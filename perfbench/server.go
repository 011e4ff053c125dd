package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"starmesh/client"
)

// server is one `starmesh serve` process under test.
type server struct {
	cmd  *exec.Cmd
	url  string
	logs *tailBuffer
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// tailBuffer keeps the last few KiB a process wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the service binary and waits until it answers
// /v1/healthz. storeDir selects the WAL store ("" = in-memory).
func startServer(bin, storeDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"serve", "-addr", addr, "-log-level", "warn", "-drain-grace", "2s"}
	if storeDir != "" {
		args = append(args, "-store-dir", storeDir)
	}
	s := &server{
		cmd:  exec.Command(bin, args...),
		url:  "http://" + addr,
		logs: &tailBuffer{},
		done: make(chan struct{}),
	}
	s.cmd.Stdout, s.cmd.Stderr = s.logs, s.logs
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	c := client.New(s.url)
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Healthz(ctx)
		cancel()
		if err == nil {
			return s, nil
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("service exited before ready (%v): %s", s.err, s.logs)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("service not ready after 30s: %v", err)
		}
	}
}

// stop drains the service with SIGTERM, killing it if the drain
// overruns, and returns once the process has exited.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled by the wait below
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // best effort; the wait below confirms the exit
		<-s.done
	}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times (100 on every Linux the Go toolchain supports).
const clockTicks = 100

// cpuTime is the process's user+sys CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is the process's resident-set high-water mark in MiB.
func (s *server) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostTicks reads the machine-wide CPU tick counters of /proc/stat:
// the steal ticks (time this virtual machine wanted a CPU the
// hypervisor gave to someone else) and the total.
func hostTicks() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat cpu line")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// selfCPU is this process's user+sys CPU time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
