// Command perfbench is the starmesh job service's benchmark. It runs
// one named workload against a `starmesh serve` process built from
// the same tree, checks every result against a standalone run, and
// prints one JSON line of metrics: end-to-end metrics by default,
// per-layer metrics and the tracing overhead with -trace 1. See
// README.md for the workloads and what each metric should move.
//
//	perfbench -server <starmesh binary> -workload tiny-open -seed 1 -seconds 10 -trace 0
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"starmesh/client"
	"starmesh/internal/workload"
)

func main() {
	// The generator allocates per op. One P and less frequent
	// collection keep its own work and GC pauses small beside the
	// server's on a machine with few CPUs.
	debug.SetGCPercent(400)
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// segments is how many parts a timed run splits its window into.
// Each part runs on a fresh set-up of the service, so every figure
// averages over several service processes, and setup_s and the peak
// RSS are medians over them.
const segments = 5

// windowReps splits the timed window into equal reps, so host noise
// can be told apart rep by rep (see quietReps).
const windowReps = 20

func run() int {
	name := flag.String("workload", "", "workload to run (tiny-open, heavy-closed, durable-mixed)")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and tracing overhead")
	bin := flag.String("server", "", "starmesh binary to serve from")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for WAL stores")
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -seconds ≥ 1 and -trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{
		w:      w,
		bin:    *bin,
		nproc:  runtime.NumCPU(),
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
	}
	if w.durable {
		dir, err := "", os.MkdirAll(*workdir, 0o755)
		if err == nil {
			dir, err = os.MkdirTemp(*workdir, w.name+"-")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: store directory:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		b.storeDir = filepath.Join(dir, "store")
	}
	res, err := b.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one invocation: a workload, its seeded inputs and the
// service binary.
type bench struct {
	w        workloadDef
	bin      string
	nproc    int
	seed     uint64
	window   time.Duration
	storeDir string

	variants [][]workload.Spec // per mix line; nil for reads
	fill     []workload.Spec   // variants of fillSpec
	refs     map[string]workload.ScenarioResult
}

// prepare draws the spec variants of the mix from the seed.
func (b *bench) prepare() error {
	rng := rand.New(rand.NewPCG(b.seed, 0xa11))
	b.variants = make([][]workload.Spec, len(b.w.mix))
	for i, e := range b.w.mix {
		if e.read != readNone {
			continue
		}
		vs, err := specVariants(e.spec, rng)
		if err != nil {
			return err
		}
		b.variants[i] = vs
	}
	var err error
	b.fill, err = specVariants(fillSpec, rng)
	return err
}

func (b *bench) jobSpecs() []workload.Spec {
	var out []workload.Spec
	for _, vs := range b.variants {
		out = append(out, vs...)
	}
	return out
}

// engineSpecs is one spec per template label across every workload,
// so each traced run reports the same per-layer metric names.
func engineSpecs(seed uint64) ([]workload.Spec, error) {
	rng := rand.New(rand.NewPCG(seed, 0xe9))
	var out []workload.Spec
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, e := range w.mix {
			if e.read != readNone || seen[label(e.spec)] {
				continue
			}
			seen[label(e.spec)] = true
			vs, err := specVariants(e.spec, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, vs[0])
		}
	}
	return out, nil
}

func (b *bench) run(traced bool) (result, error) {
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	layer := metrics{}
	if traced {
		specs, err := engineSpecs(b.seed)
		if err != nil {
			return result{}, err
		}
		if err := engineLayer(layer, specs); err != nil {
			return result{}, err
		}
	}
	refs, err := references(append(b.jobSpecs(), b.fill...))
	if err != nil {
		return result{}, err
	}
	b.refs = refs

	if !traced {
		m, err := b.measure(segments, b.window, false)
		if err != nil {
			return result{}, err
		}
		return b.report(m, m.endToEnd(), nil), nil
	}
	// A traced run splits its window between an untraced pass and a
	// traced one, so it costs about as much as a timed run. Both passes
	// issue the same calls and keep the same records (tracing adds no
	// calls), so the overhead figures measure the noise between them.
	base, err := b.measure(1, b.window/2, false)
	if err != nil {
		return result{}, err
	}
	tr, err := b.measure(1, b.window/2, true)
	if err != nil {
		return result{}, err
	}
	tr.layerMetrics(layer)
	baseFig, trFig := base.endToEnd(), tr.endToEnd()
	maps.Copy(baseFig, base.latencyFigures())
	maps.Copy(trFig, tr.latencyFigures())
	for _, name := range overheadMetrics {
		pct := 0.0 // a figure with no samples (no reads in the mix) is 0 in both
		if base := baseFig[name].Value; base != 0 {
			pct = 100 * (trFig[name].Value - base) / base
		}
		layer.set("trace.overhead_pct."+name, "%", pct)
	}
	return b.report(tr, layer, base), nil
}

// overheadMetrics are the figures compared between the untraced and
// traced passes of a traced run.
var overheadMetrics = []string{
	"jobs_per_s", "server_cpu_ms_per_job", "job_latency_p50_ms", "read_latency_p50_ms",
}

// report prints the human-readable summary, the first problems and
// failed ops, and assembles the result line. An incorrect run carries
// no metrics.
func (b *bench) report(m *measurement, out metrics, also *measurement) result {
	passes := []*measurement{m}
	if also != nil {
		passes = append(passes, also)
	}
	for _, p := range passes {
		for _, msg := range p.problems {
			fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", msg)
		}
		for _, msg := range p.errs {
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", msg)
		}
		if p.res.missed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %d scheduled ops never started\n", p.res.missed)
		}
	}
	m.summary(os.Stdout, b)
	res := verdict(passes)
	if res.Correct {
		res.Metrics = out
	}
	return res
}

// verdict counts the passes' ops and judges the run. A healthy service
// fails no op, so any failure makes the run incorrect, as do a
// divergence and a failed self-check: a submit or read that errored,
// a 429 left after the client's retries, a missed deadline, and a
// scheduled op that never started.
func verdict(passes []*measurement) result {
	res := result{Metrics: metrics{}}
	problems := 0
	for _, p := range passes {
		res.Attempted += len(p.res.recs) + p.res.missed
		res.Failed += p.res.missed
		for _, r := range p.res.recs {
			if r.failed {
				res.Failed++
			}
		}
		problems += len(p.problems)
	}
	res.Correct = problems == 0 && res.Failed == 0
	return res
}

// measurement is one set-up-and-window pass over the service.
type measurement struct {
	w         workloadDef
	window    time.Duration
	setups    []time.Duration
	res       runResult
	rssMB     []float64 // peak RSS of each segment's service process
	served    statsDelta
	rejected  int64
	repSteal  []float64     // host CPU steal per rep, in percent
	serverCPU time.Duration // server user+sys CPU over the window
	clientCPU time.Duration // this process's CPU over the window
	problems  []string      // divergences and failed self-checks
	errs      []string      // first few failed operations
}

// statsDelta is what the service's /v1/stats counters gained over the
// timed window.
type statsDelta struct {
	builds, reuses        int64 // pool checkouts that built / reused a machine
	walRecords, snapshots int64
	watchDrops            int64
}

func (d *statsDelta) add(before, after client.Stats) {
	for _, p := range after.Pools {
		d.builds, d.reuses = d.builds+p.Builds, d.reuses+p.Reuses
	}
	for _, p := range before.Pools {
		d.builds, d.reuses = d.builds-p.Builds, d.reuses-p.Reuses
	}
	d.walRecords += after.Durability.WALRecords - before.Durability.WALRecords
	d.snapshots += after.Durability.Snapshots - before.Durability.Snapshots
	d.watchDrops += after.WatchDrops - before.WatchDrops
}

// measure splits the window into `parts` segments and runs each on a
// fresh set-up: a new service process (on an empty WAL directory),
// warmed to steady state. A traced pass also checks its span timings
// (selfCheck).
func (b *bench) measure(parts int, window time.Duration, traced bool) (*measurement, error) {
	m := &measurement{w: b.w, window: window}
	for i := range parts {
		if err := b.segment(m, i, parts); err != nil {
			return nil, err
		}
	}
	if traced {
		m.problems = append(m.problems, m.selfCheck()...)
	}
	return m, nil
}

// segment sets the service up, drives segment i of m's window on it,
// and adds what it measured to m. Its reps are numbered after those
// of the segments before it.
func (b *bench) segment(m *measurement, i, parts int) error {
	if b.storeDir != "" {
		if err := os.RemoveAll(b.storeDir); err != nil {
			return err
		}
	}
	t0 := time.Now()
	srv, err := startServer(b.bin, b.storeDir)
	if err != nil {
		return err
	}
	defer srv.stop()
	d := b.newGenerator(srv.url)
	if err := b.warm(d); err != nil {
		return fmt.Errorf("warm-up: %w (service log: %s)", err, srv.logs)
	}
	m.setups = append(m.setups, time.Since(t0))

	ctx := context.Background()
	before, err := d.c.Stats(ctx)
	if err != nil {
		return err
	}
	server0, err1 := srv.cpuTime()
	client0, err2 := selfCPU()
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	reps, window := windowReps/parts, m.window/time.Duration(parts)
	// Each segment draws its own ops; the same seed gives the same ones.
	seed := b.seed + uint64(i)*0x9e3779b97f4a7c15
	start := time.Now().Add(20 * time.Millisecond)
	type sampled struct {
		steal []float64
		err   error
	}
	samples := make(chan sampled, 1)
	go func() {
		steal, err := repSteal(start, window, reps)
		samples <- sampled{steal, err}
	}()
	var res runResult
	if b.w.open {
		ops := schedule(b.w.rates, reps, window, b.w.mix, b.variants, seed)
		res = d.runOpen(ops, start, window, b.nproc)
	} else {
		res = d.runClosed(start, window, reps, b.nproc, seed)
	}
	server1, err1 := srv.cpuTime()
	client1, err2 := selfCPU()
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	m.serverCPU += server1 - server0
	m.clientCPU += client1 - client0
	sm := <-samples
	if sm.err != nil {
		return sm.err
	}
	m.repSteal = append(m.repSteal, sm.steal...)
	rss, err := srv.peakRSS()
	if err != nil {
		return err
	}
	m.rssMB = append(m.rssMB, rss)
	after, err := d.c.Stats(ctx)
	if err != nil {
		return err
	}
	m.served.add(before, after)
	for k := range res.recs {
		res.recs[k].rep += i * reps
	}
	m.res.recs = append(m.res.recs, res.recs...)
	m.res.missed += res.missed
	m.res.elapsed += res.elapsed
	m.rejected += d.rejected.Load()
	m.problems = append(m.problems, d.diverged...)
	m.errs = append(m.errs, d.errs...)
	return nil
}

func (b *bench) newGenerator(url string) *generator {
	d := &generator{
		mix:      b.w.mix,
		variants: b.variants,
		refs:     b.refs,
		done:     newRecent(256),
	}
	d.c = client.New(url, client.WithBackpressureHook(func(time.Duration) { d.rejected.Add(1) }))
	return d
}

// warm brings a fresh service to steady state: every spec variant
// runs nproc times at nproc-way concurrency, so each shape's pool
// holds a machine per worker and every plan is recorded; then fillJobs
// more jobs go through, so the store is past its retention bound when
// timing starts.
func (b *bench) warm(d *generator) error {
	var specs []workload.Spec
	for range b.nproc {
		specs = append(specs, b.jobSpecs()...)
	}
	if err := d.runAll(specs, b.nproc); err != nil {
		return err
	}
	specs = specs[:0]
	for i := range fillJobs {
		specs = append(specs, b.fill[i%len(b.fill)])
	}
	return d.fillBatches(specs, b.nproc)
}

// runAll runs specs as jobs on n concurrent senders, checking each.
func (d *generator) runAll(specs []workload.Spec, n int) error {
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(specs); k = int(next.Add(1) - 1) {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				var rec record
				err := d.job(ctx, specs[k], &rec)
				cancel()
				if err != nil {
					errs[s] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serviceQueue is the service's default admission queue depth: the
// fill's batches in flight together stay within it.
const serviceQueue = 64

// fillBatches pushes specs through the service in atomic batches from
// n senders. Each sender awaits only its batch's last job before
// sending the next batch (the queue is FIFO, so the rest of the batch
// has been claimed by then), which keeps the fill bound by the
// service's work rather than by round trips. Once the service is idle,
// every retained job is checked against its reference in bulk.
func (d *generator) fillBatches(specs []workload.Spec, n int) error {
	batch := max(1, serviceQueue/n)
	var batches [][]workload.Spec
	for len(specs) > 0 {
		k := min(batch, len(specs))
		batches = append(batches, specs[:k])
		specs = specs[k:]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 6*opTimeout)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := s; k < len(batches); k += n {
				jobs, err := d.c.SubmitBatch(ctx, batches[k])
				if err != nil {
					errs[s] = fmt.Errorf("fill batch: %w", err)
					return
				}
				if _, err := d.c.Await(ctx, jobs[len(jobs)-1].ID); err != nil {
					errs[s] = fmt.Errorf("fill await: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for {
		st, err := d.c.Stats(ctx)
		if err != nil {
			return err
		}
		if st.Failed != 0 {
			return fmt.Errorf("fill: %d jobs failed: %w", st.Failed, errDiverged)
		}
		if st.Queued == 0 && st.Running == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done, err := d.c.ListAll(ctx, client.ListOptions{Status: client.StatusDone, Limit: 100})
	if err != nil {
		return fmt.Errorf("fill check: %w", err)
	}
	if len(done) < retainedJobs {
		return fmt.Errorf("fill check: %d done jobs retained, want %d", len(done), retainedJobs)
	}
	for i := len(done) - 1; i >= 0; i-- { // oldest first, so the ring ends on the newest
		if err := d.checkJob(done[i]); err != nil {
			return err
		}
		d.done.add(done[i].ID)
	}
	return nil
}

// jobs and reads of the window that completed.
func (m *measurement) completed() (jobs, reads []record) {
	for _, r := range m.res.recs {
		if r.failed {
			continue
		}
		if r.read == readNone {
			jobs = append(jobs, r)
		} else {
			reads = append(reads, r)
		}
	}
	return jobs, reads
}

func latencies(rs []record, f func(record) time.Duration) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func byLatency(r record) time.Duration { return r.latency }

// repSteal samples the host's CPU steal counters at every rep
// boundary of the window that begins at start, and returns each rep's
// steal percentage.
func repSteal(start time.Time, window time.Duration, reps int) ([]float64, error) {
	out := make([]float64, reps)
	var steal0, total0 int64
	for k := 0; k <= reps; k++ {
		time.Sleep(time.Until(start.Add(window * time.Duration(k) / time.Duration(reps))))
		steal, total, err := hostTicks()
		if err != nil {
			return nil, fmt.Errorf("sampling host steal: %w", err)
		}
		if k > 0 {
			out[k-1] = 100 * float64(steal-steal0) / float64(max(1, total-total0))
		}
		steal0, total0 = steal, total
	}
	return out, nil
}

// quietReps picks the quarter of the window's reps with the least
// host CPU steal. The latency figures are computed over those reps
// only: steal is the hypervisor serving other machines, and
// the reps it hit hardest measure the neighbours, not the service. The
// choice depends on the host's counters alone, never on the service's
// own timings, so it cannot favour a faster or slower build.
func (m *measurement) quietReps() map[int]bool {
	idx := make([]int, len(m.repSteal))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(m.repSteal[a], m.repSteal[b]) })
	quiet := map[int]bool{}
	for _, i := range idx[:(len(idx)+3)/4] {
		quiet[i] = true
	}
	return quiet
}

// inReps keeps the records of the given reps.
func inReps(rs []record, reps map[int]bool) []record {
	var out []record
	for _, r := range rs {
		if reps[r.rep] {
			out = append(out, r)
		}
	}
	return out
}

// endToEnd computes the gated end-to-end metrics: the figures a user
// of the service sees that hold steady on a shared host (see README).
func (m *measurement) endToEnd() metrics {
	allJobs, _ := m.completed()
	out := metrics{}
	setups := make([]float64, len(m.setups))
	for i, s := range m.setups {
		setups[i] = s.Seconds()
	}
	out.set("setup_s", "s", median(setups))
	// Throughput is counted over the whole window. An open loop's
	// goodput is set by its schedule unless the service falls behind. A
	// closed loop's follows how fast the shared host runs the engine,
	// which drifts over seconds without showing as steal, so it needs
	// the longest average the window gives.
	out.set("jobs_per_s", "1/s", float64(len(allJobs))/m.res.elapsed.Seconds())
	// CPU time is not charged for stolen time, and the whole window
	// averages over many of the server's GC cycles, which a few reps
	// would sample unevenly.
	out.set("server_cpu_ms_per_job", "ms", ms(m.serverCPU)/float64(max(1, len(allJobs))))
	out.set("server_rss_peak_mb", "MiB", median(m.rssMB))
	return out
}

// latencyFigures computes the client-observed latencies over the
// quiet reps. They follow the host's CPU steal too closely to carry a
// regression bound, so they are printed in the summary of every run
// and reported as client-layer metrics by a traced run.
func (m *measurement) latencyFigures() metrics {
	quiet := m.quietReps()
	jobs, reads := m.completed()
	jl, rl := latencies(inReps(jobs, quiet), byLatency), latencies(inReps(reads, quiet), byLatency)
	out := metrics{}
	out.set("job_latency_p50_ms", "ms", pctMs(jl, 50))
	out.set("job_latency_p99_ms", "ms", pctMs(jl, 99))
	out.set("read_latency_p50_ms", "ms", pctMs(rl, 50))
	out.set("read_latency_p99_ms", "ms", pctMs(rl, 99))
	return out
}

// spanTolerance is how far the sum of a job's trace spans may stray
// from its Created→Finished span (both come from the same server
// timestamps, so only rounding separates them), and how far that span
// may exceed the client-observed call (server wall clock against the
// client's monotonic clock on the same host).
const spanTolerance = 100 * time.Microsecond

// selfCheck verifies the traced timings add up: queue + checkout +
// run equals the server span, and the server span fits inside the
// client-observed call.
func (m *measurement) selfCheck() []string {
	var out []string
	jobs, _ := m.completed()
	for _, r := range jobs {
		if d := r.queue + r.checkout + r.run - r.server; d > spanTolerance || d < -spanTolerance {
			out = append(out, fmt.Sprintf("traced %s job: queue+checkout+run %v ≠ server span %v", r.label, r.queue+r.checkout+r.run, r.server))
		}
		if r.server > r.call+spanTolerance {
			out = append(out, fmt.Sprintf("traced %s job: server span %v exceeds client call %v", r.label, r.server, r.call))
		}
		if len(out) >= 5 {
			break
		}
	}
	return out
}

// layerMetrics adds the traced pass's per-layer metrics.
func (m *measurement) layerMetrics(out metrics) {
	jobs, reads := m.completed()
	pct := func(prefix string, ds []time.Duration) {
		out.set(prefix+".p50", "ms", pctMs(ds, 50))
		out.set(prefix+".p99", "ms", pctMs(ds, 99))
	}
	pct("client.submit_ms", latencies(jobs, func(r record) time.Duration { return r.submit }))
	pct("client.await_ms", latencies(jobs, func(r record) time.Duration { return r.await }))
	out.set("client.rejected_429", "count", float64(m.rejected))
	out.set("client.cpu_ms_per_job", "ms", ms(m.clientCPU)/float64(max(1, len(jobs))))
	lat := m.latencyFigures()
	for _, k := range []string{"job", "read"} {
		for _, p := range []string{"p50", "p99"} {
			out.set("client."+k+"_latency_ms."+p, "ms", lat[k+"_latency_"+p+"_ms"].Value)
		}
	}

	pct("serve.queue_wait_ms", latencies(jobs, func(r record) time.Duration { return r.queue }))
	pct("serve.checkout_ms", latencies(jobs, func(r record) time.Duration { return r.checkout }))
	run := latencies(jobs, func(r record) time.Duration { return r.run })
	pct("serve.run_ms", run)
	out.set("serve.run_share", "ratio", float64(sum(run))/float64(max(1, sum(latencies(jobs, byLatency)))))
	pct("serve.server_ms", latencies(jobs, func(r record) time.Duration { return r.server }))
	pct("serve.outside_ms", latencies(jobs, func(r record) time.Duration { return r.call - r.server }))
	sd := m.served
	out.set("serve.pool_reuse_ratio", "ratio", float64(sd.reuses)/float64(max(1, sd.builds+sd.reuses)))
	out.set("serve.wal_records_per_job", "count", float64(sd.walRecords)/float64(max(1, len(jobs))))
	out.set("serve.snapshots", "count", float64(sd.snapshots))
	for _, k := range []readKind{readStats, readList, readGet} {
		var ds []time.Duration
		for _, r := range reads {
			if r.read == k {
				ds = append(ds, r.call)
			}
		}
		pct("serve."+k.String()+"_ms", ds)
	}
	out.set("serve.watch_drops", "count", float64(sd.watchDrops))

	var late, over, busy []time.Duration
	for _, r := range m.res.recs {
		late = append(late, r.overshoot+r.busy)
		over = append(over, r.overshoot)
		busy = append(busy, r.busy)
	}
	pct("loadgen.late_ms", late)
	pct("loadgen.timer_overshoot_ms", over)
	pct("loadgen.busy_late_ms", busy)
	out.set("loadgen.missed_ops", "count", float64(m.res.missed))
	out.set("host.steal_pct", "%", median(m.repSteal))
}

// stepStats is one open-loop rate step's outcome.
type stepStats struct {
	rate          float64
	ops, failed   int
	p50, p99      time.Duration
	jobs          int
	backlog, pass bool
}

// steps splits an open-loop window by rate step and applies the
// workload's latency limit: a step passes when its job p99 meets the
// limit, nothing failed, and the backlog did not grow (the last tenth
// of its ops did not start later than the limit).
func (m *measurement) steps() []stepStats {
	out := make([]stepStats, len(m.w.rates))
	byStep := make([][]record, len(m.w.rates))
	for _, r := range m.res.recs {
		byStep[r.step] = append(byStep[r.step], r)
	}
	for i, rs := range byStep {
		st := stepStats{rate: m.w.rates[i], ops: len(rs)}
		var jl []time.Duration
		for _, r := range rs {
			switch {
			case r.failed:
				st.failed++
			case r.read == readNone:
				jl = append(jl, r.latency)
			}
		}
		st.jobs = len(jl)
		st.p50, _ = percentile(jl, 50)
		st.p99, _ = percentile(jl, 99)
		if tail := rs[len(rs)-len(rs)/10:]; len(tail) > 0 {
			var late []time.Duration
			for _, r := range tail {
				late = append(late, r.busy)
			}
			p50, _ := percentile(late, 50)
			st.backlog = p50 > m.w.limit
		}
		st.pass = st.p99 <= m.w.limit && st.failed == 0 && !st.backlog
		out[i] = st
	}
	if m.res.missed > 0 && len(out) > 0 {
		out[len(out)-1].pass = false
	}
	return out
}

// summary prints the human-readable lines before the result line:
// every end-to-end figure by name with its unit (gated or not), the
// sample counts, per-rep detail and, for open loops, the step table.
func (m *measurement) summary(f *os.File, b *bench) {
	jobs, reads := m.completed()
	quiet := m.quietReps()
	fmt.Fprintf(f, "workload %s seed %d: %d jobs, %d reads in %.2fs, %d of %d reps quiet (%d jobs, %d reads), host steal %.1f%% (median rep)\n",
		b.w.name, b.seed, len(jobs), len(reads), m.res.elapsed.Seconds(), len(quiet), len(m.repSteal),
		len(inReps(jobs, quiet)), len(inReps(reads, quiet)), median(m.repSteal))
	figs := m.endToEnd()
	maps.Copy(figs, m.latencyFigures())
	if jobShare(m.w.mix) == 1 { // no reads in the mix: no read figures
		delete(figs, "read_latency_p50_ms")
		delete(figs, "read_latency_p99_ms")
	}
	attempted, failed := m.res.missed+len(m.res.recs), m.res.missed
	for _, r := range m.res.recs {
		if r.failed {
			failed++
		}
	}
	figs.set("failed_frac", "ratio", float64(failed)/float64(max(1, attempted)))
	if m.w.open {
		slo := 0.0
		for _, st := range m.steps() {
			fmt.Fprintf(f, "  step %.0f ops/s: %d ops, %d jobs, p50 %.3fms p99 %.3fms, failed %d, growing backlog %v, meets %v limit %v\n",
				st.rate, st.ops, st.jobs, ms(st.p50), ms(st.p99), st.failed, st.backlog, m.w.limit, st.pass)
			if st.pass {
				slo = st.rate * jobShare(m.w.mix)
			}
		}
		figs.set("slo_rate_jobs_per_s", "1/s", slo)
	}
	for _, k := range slices.Sorted(maps.Keys(figs)) {
		fmt.Fprintf(f, "  %-24s %12.4f %s\n", k, figs[k].Value, figs[k].Unit)
	}
	fmt.Fprintf(f, "  per-rep job p50/p99 ms (host steal %%), * = quiet:")
	for rep := range len(m.repSteal) {
		var ds []time.Duration
		for _, r := range jobs {
			if r.rep == rep {
				ds = append(ds, r.latency)
			}
		}
		mark := ""
		if quiet[rep] {
			mark = "*"
		}
		fmt.Fprintf(f, " %.2f/%.2f(%.0f)%s", pctMs(ds, 50), pctMs(ds, 99), m.repSteal[rep], mark)
	}
	fmt.Fprintln(f)
}

// jobShare is the fraction of a mix's ops that are jobs.
func jobShare(mix []entry) float64 {
	var jobs, total int
	for _, e := range mix {
		total += e.weight
		if e.read == readNone {
			jobs += e.weight
		}
	}
	return float64(jobs) / float64(total)
}
