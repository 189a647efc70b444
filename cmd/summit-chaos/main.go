// Command summit-chaos compiles an adversarial failure scenario and
// drives it across every simulator — checkpointing, collectives, staging,
// elastic training, and the cross-facility campaign — reporting how far
// each subsystem degrades and whether the graceful-degradation policies
// hold the line.
//
// Usage:
//
//	summit-chaos -list                       # builtin scenarios
//	summit-chaos -scenario rack-cascade      # run a builtin
//	summit-chaos -scenario worst-week.chaos  # run a scenario file
//	summit-chaos -scenario all -check        # every builtin + invariants
//	summit-chaos -scenario perfect-storm -seed 7 -platform frontier
//	summit-chaos -scenario perfect-storm -trace out.json -metrics
//	summit-chaos -scenario sdc-storm -sdc -j 4   # corruption ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"summitscale/internal/chaos"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
)

func main() {
	scenario := flag.String("scenario", "perfect-storm", "builtin scenario name, path to a scenario file, or \"all\" for every builtin")
	seed := flag.Uint64("seed", 20220523, "RNG seed; the same seed always compiles the same schedule")
	plat := flag.String("platform", "summit", "machine under test ("+strings.Join(platform.Names(), ", ")+")")
	check := flag.Bool("check", false, "run the invariant suite (replay determinism, byte conservation, monotone degradation, policies load-bearing) after each scenario")
	sdc := flag.Bool("sdc", false, "run the silent-data-corruption ablation (clean vs detection-on vs detection-off guarded training) after each scenario's report")
	jobs := flag.Int("j", 1, "ablation legs to run concurrently (-sdc); the report is identical at any value")
	list := flag.Bool("list", false, "list builtin scenarios and exit")
	traceOut := flag.String("trace", "", "write the run's simulated-clock spans as Chrome trace-event JSON to this file")
	metrics := flag.Bool("metrics", false, "print the obs metrics summary after the report")
	flag.Parse()

	if *list {
		for _, name := range chaos.Names() {
			sc, err := chaos.Builtin(name)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-16s %d nodes over %s\n", name, sc.Nodes, hours(sc))
		}
		return
	}

	p, err := platform.Lookup(*plat)
	if err != nil {
		fatal(err)
	}

	var scenarios []*chaos.Scenario
	switch {
	case *scenario == "all":
		for _, name := range chaos.Names() {
			sc, err := chaos.Builtin(name)
			if err != nil {
				fatal(err)
			}
			scenarios = append(scenarios, sc)
		}
	case looksLikeFile(*scenario):
		text, err := os.ReadFile(*scenario)
		if err != nil {
			fatal(err)
		}
		sc, err := chaos.Parse(string(text))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *scenario, err))
		}
		scenarios = append(scenarios, sc)
	default:
		sc, err := chaos.Builtin(*scenario)
		if err != nil {
			fatal(err)
		}
		scenarios = append(scenarios, sc)
	}

	var ob *obs.Observer
	if *traceOut != "" || *metrics {
		ob = obs.New()
	}

	failed := false
	for i, sc := range scenarios {
		if i > 0 {
			fmt.Println()
		}
		rep, err := chaos.Run(sc, *seed, chaos.Config{Platform: p, Obs: ob})
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Render())
		var srep *chaos.SDCReport
		if *sdc {
			srep, err = chaos.RunSDC(sc, *seed, chaos.SDCConfig{Jobs: *jobs, Obs: ob})
			if err != nil {
				fatal(err)
			}
			fmt.Print(srep.Render())
		}
		if *check {
			err = chaos.CheckInvariants(sc, *seed, chaos.Config{Platform: p})
			if err == nil && len(sc.SDCs) > 0 {
				// Verified recovery, on the -sdc report when there is one.
				if srep == nil {
					srep, err = chaos.RunSDC(sc, *seed, chaos.SDCConfig{Jobs: 1})
				}
				if err == nil {
					err = chaos.CheckSDCInvariants(srep, sc)
				}
			}
			if err != nil {
				fmt.Printf("  INVARIANT VIOLATION: %v\n", err)
				failed = true
			} else {
				fmt.Println("  invariants: ok")
			}
		}
	}

	if *traceOut != "" {
		if err := ob.WriteChromeTrace(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("summit-chaos: wrote trace to %s\n", *traceOut)
	}
	if *metrics {
		fmt.Print(ob.Trace.Summary())
		fmt.Print(ob.Metrics.Render())
	}
	if failed {
		os.Exit(1)
	}
}

// looksLikeFile treats anything with a path separator or extension as a
// scenario file, so builtin names never shadow files and vice versa.
func looksLikeFile(s string) bool {
	return strings.ContainsAny(s, "/\\.") || fileExists(s)
}

func fileExists(s string) bool {
	st, err := os.Stat(s)
	return err == nil && !st.IsDir()
}

func hours(sc *chaos.Scenario) string {
	return fmt.Sprintf("%gh", float64(sc.Horizon)/3600)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "summit-chaos: %v\n", err)
	os.Exit(2)
}
