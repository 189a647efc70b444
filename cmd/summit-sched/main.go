// Command summit-sched simulates a week of Summit batch scheduling under
// the §II-B allocation split (INCITE 60%, ALCC 20%, DD 20%): synthesizes
// a calibrated workload, schedules it with capability-priority backfill,
// and reports utilization, queue waits, and realized program shares.
//
// Usage:
//
//	summit-sched -hours 500000 -horizon 168 -seed 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"summitscale/internal/sched"
	"summitscale/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-sched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hours := fs.Float64("hours", 300_000, "total node-hours of work to synthesize")
	horizon := fs.Float64("horizon", 168, "submission horizon (hours)")
	seed := fs.Uint64("seed", 1, "workload seed")
	nodes := fs.Int("nodes", 4608, "machine size")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "summit-sched: "+format+"\n", a...)
		return 2
	}
	switch {
	case *nodes <= 0:
		return fail("-nodes must be positive, got %d", *nodes)
	case !positiveFinite(*hours):
		return fail("-hours must be positive and finite, got %v", *hours)
	case !positiveFinite(*horizon):
		return fail("-horizon must be positive and finite, got %v", *horizon)
	}

	rng := stats.NewRNG(*seed)
	jobs := sched.SynthesizeWorkload(rng, sched.OLCFShares(), *hours, *horizon*3600)
	for _, j := range jobs {
		if j.Nodes > *nodes {
			return fail("job %d (%s) wants %d nodes but the machine has %d", j.ID, j.Program, j.Nodes, *nodes)
		}
	}
	s := sched.NewScheduler(*nodes)
	placed := s.Schedule(jobs)
	st := s.Summarize(placed)

	fmt.Fprintf(stdout, "workload: %d jobs, %.0f node-hours over a %.0f h submission window\n",
		len(jobs), *hours, *horizon)
	fmt.Fprintf(stdout, "machine:  %d nodes, capability-priority backfill\n\n", *nodes)
	fmt.Fprintf(stdout, "makespan:       %.1f h\n", st.Makespan/3600)
	fmt.Fprintf(stdout, "utilization:    %.1f%%\n", 100*st.Utilization)
	fmt.Fprintf(stdout, "queue wait:     mean %.1f h, max %.1f h\n", st.MeanWait/3600, st.MaxWait/3600)

	fmt.Fprintln(stdout, "\nrealized node-hours by program:")
	var progs []string
	var total float64
	for p, h := range st.HoursByGroup {
		progs = append(progs, p)
		total += h
	}
	sort.Strings(progs)
	for _, p := range progs {
		fmt.Fprintf(stdout, "  %-7s %12.0f  (%4.1f%%)\n", p, st.HoursByGroup[p],
			100*st.HoursByGroup[p]/total)
	}

	// Largest jobs — the capability workload the paper's AI studies join.
	sort.Slice(placed, func(i, j int) bool { return placed[i].Nodes > placed[j].Nodes })
	fmt.Fprintln(stdout, "\nlargest jobs:")
	for i := 0; i < 5 && i < len(placed); i++ {
		j := placed[i]
		fmt.Fprintf(stdout, "  %-7s %5d nodes  %5.1f h walltime  waited %5.1f h\n",
			j.Program, j.Nodes, j.Walltime/3600, j.Wait()/3600)
	}
	return 0
}

// positiveFinite rejects zero, negatives, NaN and +Inf (an infinite
// node-hour budget would never stop synthesizing jobs).
func positiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}
