package core

import (
	"fmt"
	"strings"

	"summitscale/internal/sched"
	"summitscale/internal/stats"
)

// schedulingExperiment reproduces the §II-B allocation structure: INCITE
// receives roughly 60% of allocable hours, ALCC 20%, DD 20%, with INCITE
// running capability-scale jobs. A synthesized week of workload is pushed
// through the capability-priority backfill scheduler and the realized
// shares and machine utilization are measured.
func schedulingExperiment() Experiment {
	return Experiment{
		ID:         "B1",
		Title:      "§II-B allocation programs — batch scheduling study",
		PaperClaim: "INCITE ~60% of hours, ALCC ~20%, DD ~20%; INCITE jobs are capability scale",
		Body: func(Env) Result {
			rng := stats.NewRNG(2)
			jobs := sched.SynthesizeWorkload(rng, sched.OLCFShares(), 600_000, 7*24*3600)
			s := sched.NewScheduler(4608)
			placed := s.Schedule(jobs)
			st := s.Summarize(placed)

			var total float64
			for _, h := range st.HoursByGroup {
				total += h
			}
			share := func(p string) float64 { return st.HoursByGroup[p] / total }

			// Mean job size per program.
			sizes := map[string]float64{}
			counts := map[string]float64{}
			for _, j := range placed {
				sizes[j.Program] += float64(j.Nodes)
				counts[j.Program]++
			}
			inciteMean := sizes["INCITE"] / counts["INCITE"]
			ddMean := sizes["DD"] / counts["DD"]

			var b strings.Builder
			fmt.Fprintf(&b, "one synthesized week: %d jobs, makespan %.1f h, utilization %.1f%%\n",
				len(placed), st.Makespan/3600, 100*st.Utilization)
			for _, p := range []string{"INCITE", "ALCC", "DD"} {
				fmt.Fprintf(&b, "  %-7s %5.1f%% of node-hours, mean job %6.0f nodes\n",
					p, 100*share(p), sizes[p]/counts[p])
			}
			fmt.Fprintf(&b, "  queue wait: mean %.1f h, max %.1f h\n", st.MeanWait/3600, st.MaxWait/3600)
			return Result{
				Metrics: []Metric{
					{Name: "INCITE share of hours", Paper: 0.60, Measured: share("INCITE"), Tol: 0.15},
					{Name: "ALCC share of hours", Paper: 0.20, Measured: share("ALCC"), Tol: 0.30},
					{Name: "DD share of hours", Paper: 0.20, Measured: share("DD"), Tol: 0.30},
					{Name: "INCITE capability scale (mean/DD mean > 4) (1=yes)", Paper: 1,
						Measured: boolMetric(inciteMean > 4*ddMean), Tol: 1e-9},
					{Name: "machine utilization", Measured: st.Utilization},
				},
				Detail: b.String(),
			}
		},
	}
}
