package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"starmesh/internal/workload"
)

// readKind names the read calls a mix can interleave with submits.
type readKind int

const (
	readNone  readKind = iota
	readGet            // client.Get of a recently finished job
	readList           // client.List of the newest finished jobs
	readStats          // client.Stats
)

func (r readKind) String() string {
	return [...]string{"job", "get", "list", "stats"}[r]
}

// entry is one line of a workload's traffic mix: a job spec template
// or a read, drawn with probability weight/Σweights.
type entry struct {
	weight int
	spec   workload.Spec // template; Kind == "" for a read
	read   readKind
}

// workloadDef is one named traffic mix and the way it is offered.
type workloadDef struct {
	name string
	// open selects open-loop Poisson arrivals stepped through rates
	// (ops/s, each step an equal share of the window); otherwise
	// nproc closed-loop clients each draw an op and wait for it before
	// drawing the next.
	open  bool
	rates []float64
	// limit is the p99 latency limit of a rate step (open loop).
	limit time.Duration
	// durable runs the service on a WAL store (-store-dir).
	durable bool
	mix     []entry
}

// retainedJobs is the service's job-retention bound (store.go). Every
// workload's warm-up pushes fillJobs of fillSpec through the service
// first, so the store and its latency window are at their bounds when
// timing starts: the cost of Stats, List and snapshots then no longer
// depends on how long the service has been up.
const (
	retainedJobs = 4096
	fillJobs     = retainedJobs + 64
)

var fillSpec = workload.Spec{Kind: "broadcast", N: 4}

var workloads = []workloadDef{
	{
		// HTTP/JSON, admission, the store lock, watch delivery and the
		// client dominate; the engine run is a few µs and there is no
		// WAL. Tiny jobs only: no reads.
		name:  "tiny-open",
		open:  true,
		rates: []float64{150, 300, 600},
		limit: 10 * time.Millisecond,
		mix: []entry{
			{weight: 1, spec: workload.Spec{Kind: "broadcast", N: 4}},
			{weight: 1, spec: workload.Spec{Kind: "broadcast", N: 5}},
			{weight: 1, spec: workload.Spec{Kind: "permroute", N: 4}},
		},
	},
	{
		// Engine execution dominates; HTTP is a few percent. Jobs only:
		// a client's time on a read would make throughput track the
		// store's scan cost.
		name: "heavy-closed",
		mix: []entry{
			{weight: 6, spec: workload.Spec{Kind: "sweep", N: 8, Trials: 4}},
			{weight: 4, spec: workload.Spec{Kind: "sweep", N: 7, Trials: 16}},
			{weight: 4, spec: workload.Spec{Kind: "embedrect", N: 7, D: 3}},
			{weight: 2, spec: workload.Spec{Kind: "sort", N: 6}},
		},
	},
	{
		// WAL appends, inline snapshots, the store mutex and stats
		// aggregation, with writes beside reads on a full store. Every
		// line has the same weight (README gives the reason).
		name:    "durable-mixed",
		open:    true,
		rates:   []float64{200},
		limit:   100 * time.Millisecond,
		durable: true,
		mix: []entry{
			{weight: 1, spec: workload.Spec{Kind: "broadcast", N: 4}},
			{weight: 1, spec: workload.Spec{Kind: "sort", N: 5}},
			{weight: 1, spec: workload.Spec{Kind: "shear", Rows: 16, Cols: 16}},
			{weight: 1, read: readGet},
			{weight: 1, read: readList},
			{weight: 1, read: readStats},
		},
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// variantsPerSpec is how many seeded variants each seed-sensitive
// template expands to: enough that jobs differ, few enough that every
// variant gets a standalone reference before timing.
const variantsPerSpec = 4

// specVariants expands a template into its normalized seeded variants.
// Kinds whose result depends on a seed or source get variantsPerSpec
// draws from rng; the rest are a single spec.
func specVariants(tmpl workload.Spec, rng *rand.Rand) ([]workload.Spec, error) {
	k := 1
	switch tmpl.Kind {
	case "broadcast", "permroute", "sort", "shear":
		k = variantsPerSpec
	}
	var out []workload.Spec
	for range k {
		s := tmpl
		switch s.Kind {
		case "broadcast":
			s.Source = rng.IntN(factorial(s.N))
		case "permroute", "sort", "shear":
			s.Seed = rng.Int64N(1<<31) + 1
		}
		norm, err := s.Normalized()
		if err != nil {
			return nil, fmt.Errorf("spec %+v: %w", s, err)
		}
		out = append(out, norm)
	}
	return out, nil
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// label names a template for per-layer metrics: kind plus shape.
func label(s workload.Spec) string {
	switch s.Kind {
	case "sweep":
		return fmt.Sprintf("sweep-n%d-t%d", s.N, s.Trials)
	case "embedrect":
		return fmt.Sprintf("embedrect-n%d-d%d", s.N, s.D)
	case "shear":
		return fmt.Sprintf("shear-%dx%d", s.Rows, s.Cols)
	default:
		return fmt.Sprintf("%s-n%d", s.Kind, s.N)
	}
}
