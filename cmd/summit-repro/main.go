// Command summit-repro runs the complete reproduction: every table,
// figure, scaling study, system-requirement analysis, workflow case
// study, and resilience study, with paper-vs-measured comparisons. Exit
// status 1 if any metric falls outside its tolerance.
//
// Usage:
//
//	summit-repro                       # full registry on the Summit baseline
//	summit-repro -md                   # markdown paper-vs-measured table
//	summit-repro -platform frontier    # replay the machine-aware studies
//	summit-repro -platforms            # list registered machines
//	summit-repro -experiment RS2       # run one experiment by ID
//	summit-repro -experiment RS1 -platform frontier
//	                                   # one machine-aware study on another machine
//	summit-repro -experiment RS2 -trace out.json -metrics
//	                                   # + Chrome trace & metrics summary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"summitscale/internal/core"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	md := fs.Bool("md", false, "emit a markdown paper-vs-measured table instead of the full report")
	jobs := fs.Int("j", runtime.NumCPU(), "experiment workers; 1 runs the plain sequential path (output is byte-identical either way)")
	plat := fs.String("platform", "summit", "machine to reproduce on ("+strings.Join(platform.Names(), ", ")+"); non-baseline machines replay the sysreq, scaling, resilience, chaos, and benchmark-campaign studies")
	list := fs.Bool("platforms", false, "list registered platforms and exit")
	expID := fs.String("experiment", "", "run a single experiment by ID (e.g. RS2) instead of the full registry; with -platform, only the machine-aware studies")
	traceOut := fs.String("trace", "", "write the run's simulated-clock spans as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	metrics := fs.Bool("metrics", false, "print the obs metrics summary and trace summary after the report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, n := range platform.Names() {
			p := platform.MustLookup(n)
			fmt.Fprintf(stdout, "%-16s %s (%d nodes)\n", n, p.Name, p.Nodes)
		}
		return 0
	}
	if *md {
		fmt.Fprint(stdout, core.RenderMarkdown())
		return 0
	}

	p, err := platform.Lookup(*plat)
	if err != nil {
		fmt.Fprintf(stderr, "summit-repro: %v\n", err)
		return 2
	}
	exps := core.ExperimentsOn(p)

	// One observer spans the whole run: the obs layer is concurrency-safe
	// and renders byte-deterministically regardless of -j or scheduling.
	var ob *obs.Observer
	if *traceOut != "" || *metrics {
		ob = obs.New()
	}

	var report string
	var pass bool
	switch {
	case *expID != "":
		e, err := lookup(exps, *expID, p)
		if err != nil {
			fmt.Fprintf(stderr, "summit-repro: %v\n", err)
			return 2
		}
		r := e.Body(core.Env{Obs: ob})
		report, pass = core.RenderResult(e, r), r.Pass()
	case p.IsPaperBaseline():
		// The full registry (tables, figures, scaling, sysreq, workflows,
		// resilience) carries the paper's reference values on the baseline.
		report, pass = core.RunAllObserved(*jobs, ob)
	default:
		// Off-baseline: replay the machine-aware studies on p.
		var b strings.Builder
		pass = true
		for _, e := range exps {
			r := e.Body(core.Env{Obs: ob})
			b.WriteString(core.RenderResult(e, r))
			b.WriteString("\n")
			if !r.Pass() {
				pass = false
			}
		}
		report = b.String()
	}
	fmt.Fprint(stdout, report)
	if *traceOut != "" {
		if err := ob.WriteChromeTrace(*traceOut); err != nil {
			fmt.Fprintf(stderr, "summit-repro: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "summit-repro: wrote trace to %s\n", *traceOut)
	}
	if *metrics {
		fmt.Fprint(stdout, ob.Trace.Summary())
		fmt.Fprint(stdout, ob.Metrics.Render())
	}
	if !pass {
		fmt.Fprintln(stderr, "summit-repro: one or more metrics deviate from the paper")
		return 1
	}
	fmt.Fprintln(stdout, "summit-repro: all experiments within tolerance")
	return 0
}

// lookup resolves an experiment ID against the set reproducible on p.
// An ID that exists only on the paper baseline is an error off it — the
// run must never silently fall back to Summit.
func lookup(exps []core.Experiment, id string, p platform.Platform) (core.Experiment, error) {
	for _, e := range exps {
		if e.ID == id {
			return e, nil
		}
	}
	if _, ok := core.ByID(id); ok {
		return core.Experiment{}, fmt.Errorf("experiment %q is not machine-aware and runs only on the paper baseline, not on %s", id, p.Name)
	}
	return core.Experiment{}, fmt.Errorf("unknown experiment %q", id)
}
