package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"starmesh/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- { // unsorted input
		s = append(s, time.Duration(i))
	}
	orig := slices.Clone(s)
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		got, n := percentile(s, tc.p)
		if got != tc.want || n != 100 {
			t.Errorf("percentile(1..100, %v) = %v (n=%d), want %v (n=100)", tc.p, got, n, tc.want)
		}
	}
	if !slices.Equal(s, orig) {
		t.Error("percentile reordered its input")
	}
	if got, n := percentile([]time.Duration{7}, 99); got != 7 || n != 1 {
		t.Errorf("single sample: got %v (n=%d)", got, n)
	}
	if got, n := percentile(nil, 50); got != 0 || n != 0 {
		t.Errorf("empty: got %v (n=%d), want 0 (n=0)", got, n)
	}
	// Nearest rank never interpolates: p50 of an even count is the
	// lower middle sample.
	if got, _ := percentile([]time.Duration{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", got)
	}
}

func TestScheduleDeterministicPoisson(t *testing.T) {
	mix := []entry{
		{weight: 3, spec: workload.Spec{Kind: "broadcast", N: 4}},
		{weight: 1, read: readGet},
	}
	variants := [][]workload.Spec{{{Kind: "broadcast", N: 4}, {Kind: "broadcast", N: 4, Source: 1}}, nil}
	rates := []float64{200, 800}
	window := 20 * time.Second
	a := schedule(rates, 4, window, mix, variants, 42)
	b := schedule(rates, 4, window, mix, variants, 42)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := schedule(rates, 4, window, mix, variants, 43); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	stepLen := window / 8
	counts := map[int]int{}
	reads := 0
	for i, o := range a {
		if i > 0 && o.at < a[i-1].at {
			t.Fatalf("op %d at %v precedes op %d at %v", i, o.at, i-1, a[i-1].at)
		}
		slot := o.rep*len(rates) + o.step
		if o.at < time.Duration(slot)*stepLen || o.at >= time.Duration(slot+1)*stepLen {
			t.Fatalf("op %d at %v outside its rep %d step %d", i, o.at, o.rep, o.step)
		}
		counts[o.step]++
		if mix[o.entry].read != readNone {
			reads++
		} else if o.variant >= len(variants[o.entry]) {
			t.Fatalf("op %d variant %d out of range", i, o.variant)
		}
	}
	// Poisson counts: mean rate·time, sd √mean — 5 sd is far outside
	// chance for a correct generator.
	for step, rate := range rates {
		want := rate * (window / 2).Seconds()
		if got := float64(counts[step]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("step %d: %v ops, want %v ± %v", step, got, want, 5*math.Sqrt(want))
		}
	}
	if share := float64(reads) / float64(len(a)); math.Abs(share-0.25) > 0.03 {
		t.Errorf("read share %v, want 0.25", share)
	}
}

// declared reads BENCHMARK.json's metric names for one list.
func declared(t *testing.T, list string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[list], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

func names(m metrics) []string {
	var out []string
	for k := range m {
		if !metricName.MatchString(k) {
			panic(k) // set already rejects these
		}
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// fakeMeasurement is a traced window of two consistent jobs and a read.
func fakeMeasurement() *measurement {
	job := record{
		latency: 3 * time.Millisecond, call: 2 * time.Millisecond,
		submit: time.Millisecond, await: time.Millisecond,
		queue: 100 * time.Microsecond, checkout: 10 * time.Microsecond, run: 500 * time.Microsecond,
		server: 610 * time.Microsecond,
	}
	return &measurement{
		w:         workloads[0],
		window:    time.Second,
		repSteal:  []float64{0},
		serverCPU: time.Millisecond,
		clientCPU: time.Millisecond,
		setups:    []time.Duration{time.Second},
		res: runResult{recs: []record{job, job, {read: readGet, latency: time.Millisecond, call: time.Millisecond}},
			elapsed: time.Second},
		rssMB: []float64{10},
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	m := fakeMeasurement()
	if got, want := names(m.endToEnd()), declared(t, "end_to_end"); !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	layer := metrics{}
	specs, err := engineSpecs(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := engineLayer(layer, specs); err != nil {
		t.Fatal(err)
	}
	m.layerMetrics(layer)
	for _, name := range overheadMetrics {
		layer.set("trace.overhead_pct."+name, "%", 0)
	}
	if got, want := names(layer), declared(t, "per_layer"); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
}

func TestMetricsRejectBadNames(t *testing.T) {
	for _, name := range []string{"", "has space", "slash/name", "ünïcode"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metrics.set accepted %q", name)
				}
			}()
			metrics{}.set(name, "ms", 1)
		}()
	}
}

func TestTracedSelfCheck(t *testing.T) {
	m := fakeMeasurement()
	if problems := m.selfCheck(); len(problems) != 0 {
		t.Fatalf("consistent spans flagged: %v", problems)
	}
	// Spans that do not add up to the server span.
	m.res.recs[0].run += time.Millisecond
	// A server span longer than the client call around it.
	m.res.recs[1].server = 5 * time.Millisecond
	m.res.recs[1].queue += 5*time.Millisecond - 610*time.Microsecond
	if problems := m.selfCheck(); len(problems) != 2 {
		t.Fatalf("want 2 problems, got %v", problems)
	}
}

func TestFailedOpsFailTheRun(t *testing.T) {
	// A read the service answers with 500 fails its op...
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"store unavailable"}`))
	}))
	defer srv.Close()
	b := &bench{w: workloadDef{mix: []entry{{weight: 1, read: readGet}}}, variants: make([][]workload.Spec, 1)}
	d := b.newGenerator(srv.URL)
	d.done.add("job-1")
	rec := d.do(op{entry: 0})
	if !rec.failed || len(d.errs) != 1 {
		t.Fatalf("a Get answered 500: failed=%v errs=%v", rec.failed, d.errs)
	}
	if res := verdict([]*measurement{fakeMeasurement()}); !res.Correct || res.Failed != 0 || res.Attempted != 3 {
		t.Fatalf("healthy window judged %+v", res)
	}
	// ...and one failed op makes the whole run incorrect.
	m := fakeMeasurement()
	m.res.recs = append(m.res.recs, rec)
	if res := verdict([]*measurement{fakeMeasurement(), m}); res.Correct || res.Failed != 1 || res.Attempted != 7 {
		t.Errorf("window with an erroring read judged %+v", res)
	}
	// So does a scheduled op that never started.
	m = fakeMeasurement()
	m.res.missed = 1
	if res := verdict([]*measurement{m}); res.Correct || res.Failed != 1 {
		t.Errorf("window with a missed op judged %+v", res)
	}
}

func TestQuietRepsPicksLeastSteal(t *testing.T) {
	m := &measurement{repSteal: []float64{5, 1, 9, 1, 3, 7, 2, 8}}
	got := m.quietReps()
	if len(got) != 2 || !got[1] || !got[3] {
		t.Errorf("quiet reps %v, want the two 1%% reps {1, 3}", got)
	}
}

func TestDeckDealsExactProportions(t *testing.T) {
	mix := []entry{{weight: 3}, {weight: 1, read: readGet}, {weight: 2, read: readStats}}
	variants := [][]workload.Spec{{{Kind: "sort", N: 4}}, nil, nil}
	dk := newDeck(mix, rand.New(rand.NewPCG(1, 2)))
	counts := make([]int, len(mix))
	for range 10 * 6 {
		counts[dk.draw(variants).entry]++
	}
	if !slices.Equal(counts, []int{30, 10, 20}) {
		t.Errorf("10 rounds dealt %v, want [30 10 20]", counts)
	}
}

func TestRecentRingConcurrent(t *testing.T) {
	r := newRecent(8)
	if _, ok := r.pick(0); ok {
		t.Fatal("empty ring picked an id")
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				r.add(fmt.Sprintf("w%d-%d", w, i))
				if _, ok := r.pick(uint32(i)); !ok {
					t.Error("pick after add found nothing")
				}
			}
		}()
	}
	wg.Wait()
	if r.n != 400 {
		t.Errorf("ring counted %d adds, want 400", r.n)
	}
}
