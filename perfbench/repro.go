package main

import (
	"fmt"
	"runtime"
	"time"

	"summitscale/internal/core"
)

// The repro workload: one op is a cold full-registry report through a
// fresh DAG engine at nproc workers, the summit-repro path. Its input is
// the fixed experiment registry, so the seed changes nothing here.
type reproRunner struct {
	e    env
	want string // the -j 1 report every op must reproduce byte for byte

	// Accumulated over traced ops.
	reports      int
	allocs       uint64
	cacheEntries int
}

func setupRepro(e env, tr *tracer, root int) (runner, error) {
	sp := tr.begin("core.reference", root)
	want, pass := core.NewEngine().RunAllParallel(1)
	tr.end(sp)
	if !pass {
		return nil, fmt.Errorf("the -j 1 reference report has deviating metrics")
	}
	return &reproRunner{e: e, want: want}, nil
}

func (r *reproRunner) op(tr *tracer, root int) (int, error) {
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	en := core.NewEngine()
	sp := tr.begin("core.report", root)
	got, pass := en.RunAllParallel(r.e.workers)
	tr.end(sp)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.reports++
		r.allocs += after.Mallocs - before.Mallocs
		r.cacheEntries = en.Cache().Len()
	}
	if err := checkReport(got, pass, r.want); err != nil {
		return 0, err
	}
	return 1, nil
}

// checkReport holds a report to the reference: byte-identical at any
// worker count, and every metric within tolerance.
func checkReport(got string, pass bool, want string) error {
	if !pass {
		return fmt.Errorf("report has deviating metrics")
	}
	if got == want {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("report differs from the -j 1 report at byte %d of %d", i, len(want))
}

// reproRows are the experiments with a row of their own in the layer
// table; the rest are summed into core.exp.rest_s.
var reproRows = []string{"S6", "RS5", "RS3", "RS1", "B1", "V1", "W1", "W3"}

// layers times a cold serial Experiment.Run of every experiment, once,
// after the measured ops.
func (r *reproRunner) layers(st map[string]*layerStat) (map[string]float64, error) {
	out := map[string]float64{}
	own := map[string]bool{}
	for _, id := range reproRows {
		own[id] = true
	}
	var sum float64
	for _, e := range core.Experiments() {
		t0 := time.Now()
		res := e.Run()
		d := time.Since(t0).Seconds()
		if !res.Pass() {
			return nil, fmt.Errorf("experiment %s has deviating metrics", e.ID)
		}
		sum += d
		if own[e.ID] {
			out["core.exp."+e.ID+"_s"] += d
		} else {
			out["core.exp.rest_s"] += d
		}
	}
	rep := st["core.report"]
	if rep == nil || r.reports == 0 {
		return nil, fmt.Errorf("no traced report")
	}
	out["core.serial_sum_s"] = sum
	out["core.parallel_eff"] = sum / (rep.total.Seconds() / float64(rep.calls) * float64(r.e.workers))
	out["core.cache_entries"] = float64(r.cacheEntries)
	out["core.allocs_per_report"] = float64(r.allocs) / float64(r.reports)
	return out, nil
}
