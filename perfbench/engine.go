package main

import (
	"context"
	"fmt"
	"time"

	"starmesh/internal/workload"
)

// references runs every spec standalone (workload.ScenarioFor: a
// fresh machine per run) and returns the results keyed by spec name.
// Every job the service finishes must match its reference exactly.
func references(specs []workload.Spec) (map[string]workload.ScenarioResult, error) {
	refs := make(map[string]workload.ScenarioResult, len(specs))
	for _, s := range specs {
		if _, ok := refs[s.Name()]; ok {
			continue
		}
		sc, err := workload.ScenarioFor(s)
		if err != nil {
			return nil, err
		}
		res, err := sc.Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", s.Name(), err)
		}
		if !res.OK {
			return nil, fmt.Errorf("reference run of %s fails its own self-check", s.Name())
		}
		refs[s.Name()] = res
	}
	return refs, nil
}

// engineRunBudget bounds how long the warm-run sample of one spec
// may take; engineMinRuns and engineMaxRuns bound its size.
const (
	engineRunBudget = 300 * time.Millisecond
	engineMinRuns   = 5
	engineMaxRuns   = 200
)

// engineLayer times the workload and simd layers in process, for one
// spec per label, by calling the registry's Build and Run directly:
// the build of a cold machine (a pool miss), the first run (which
// records the spec's route plans), and the median run on a Reset
// machine. It must run before anything else in the process has run
// these specs, or the first run finds its plans already recorded.
func engineLayer(m metrics, specs []workload.Spec) error {
	ctx := context.Background()
	for _, s := range specs {
		f, err := workload.FamilyOf(s.Kind)
		if err != nil {
			return err
		}
		t0 := time.Now()
		r := f.Build(s)
		build := time.Since(t0)
		t0 = time.Now()
		first, err := f.Run(ctx, s, r)
		firstRun := time.Since(t0)
		if err != nil {
			r.Close()
			return fmt.Errorf("engine run of %s: %w", s.Name(), err)
		}
		var runs []time.Duration
		for spent := time.Duration(0); len(runs) < engineMaxRuns &&
			(len(runs) < engineMinRuns || spent < engineRunBudget); {
			r.Reset()
			t0 = time.Now()
			res, err := f.Run(ctx, s, r)
			d := time.Since(t0)
			if err != nil {
				r.Close()
				return fmt.Errorf("engine run of %s: %w", s.Name(), err)
			}
			if res.UnitRoutes != first.UnitRoutes || res.Conflicts != first.Conflicts || res.OK != first.OK {
				r.Close()
				return fmt.Errorf("engine run of %s on a Reset machine: %w", s.Name(), errDiverged)
			}
			runs = append(runs, d)
			spent += d
		}
		r.Close()
		run, _ := percentile(runs, 50)
		l := label(s)
		m.set("workload.build_ms."+l, "ms", ms(build))
		m.set("workload.first_run_ms."+l, "ms", ms(firstRun))
		m.set("workload.run_ms."+l, "ms", ms(run))
		m.set("simd.unit_routes_per_job."+l, "count", float64(first.UnitRoutes))
		m.set("simd.unit_routes_per_s."+l, "1/s", float64(first.UnitRoutes)/run.Seconds())
	}
	return nil
}
