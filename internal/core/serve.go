package core

import (
	"fmt"
	"strings"

	"summitscale/internal/chaos"
	"summitscale/internal/platform"
	"summitscale/internal/serve"
)

// The serving study: training campaigns produce surrogates, and the
// paper's workflows (alloy design, binding-affinity scoring) only pay off
// when those surrogates answer simulation queries at interactive rates
// for large user populations. S6 reproduces the serving argument end to
// end on the simulated clock: dynamic micro-batching amortizes dispatch
// overhead (the roofline-priced analogue of Brewer et al.'s batching
// result), bounded admission queues convert overload into typed
// rejections instead of unbounded tails, and a shed-load policy keeps
// Interactive latency bounded through partial capacity loss.

// serveSeed roots the serving study: the model fleet's weights, the
// synthetic user population, and the chaos schedule all derive from it.
const serveSeed = 42

// serveExperiments returns the serving study on the paper baseline.
func serveExperiments() []Experiment {
	return ServeExperimentsOn(platform.Summit())
}

// ServeExperimentsOn returns the serving experiments on the given
// platform: S6, the micro-batching and degradation study.
func ServeExperimentsOn(p platform.Platform) []Experiment {
	return []Experiment{serveExperiment(p)}
}

// serveExperiment is S6: the same seeded request stream served three
// ways — micro-batched, unbatched at identical capacity, and micro-
// batched under the serving-storm chaos scenario with the shed policy on
// and off.
func serveExperiment(p platform.Platform) Experiment {
	run := func(env Env) Result {
		models := serve.DefaultModels(serveSeed)
		spec := serve.DefaultTraffic()
		reqs, err := spec.Generate(serveSeed, models)
		if err != nil {
			return Result{Metrics: []Metric{{Name: "traffic generation failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: err.Error()}
		}

		batchedCfg := serve.Config{Platform: p, Models: models, Horizon: spec.Horizon, Obs: env.Obs}
		batched, err := serve.Run(batchedCfg, reqs)
		if err != nil {
			return Result{Metrics: []Metric{{Name: "batched run failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: err.Error()}
		}
		unbatchedCfg := serve.Config{
			Platform: p, Models: models, Horizon: spec.Horizon,
			Batch:     serve.BatchConfig{MaxBatch: 1, MaxDelay: 0},
			Admission: serve.DefaultAdmission(batched.Replicas, serve.DefaultBatch().MaxBatch),
		}
		unbatched, err := serve.Run(unbatchedCfg, reqs)
		if err != nil {
			return Result{Metrics: []Metric{{Name: "unbatched run failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: err.Error()}
		}
		storm, err := chaos.RunServe(p, chaos.ServingStorm(), serveSeed, spec, models, nil)
		if err != nil {
			return Result{Metrics: []Metric{{Name: "serving-storm run failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: err.Error()}
		}

		pricer := serve.PricerFor(p)
		amortized := 0
		for _, m := range models {
			if pricer.Amortization(m, serve.DefaultBatch().MaxBatch) >= 2 {
				amortized++
			}
		}
		interArrivals, interServedStorm, interShedStorm := 0, 0, 0
		for _, r := range reqs {
			if r.Tier == serve.Interactive {
				interArrivals++
			}
		}
		for _, r := range storm.Shed.Responses {
			if r.Tier == serve.Interactive {
				interServedStorm++
			}
		}
		for _, rj := range storm.Shed.Rejections {
			if rj.Code == serve.RejectShed && rj.Tier == serve.Interactive {
				interShedStorm++
			}
		}
		interAvail := 0.0
		if interArrivals > 0 {
			interAvail = float64(interServedStorm) / float64(interArrivals)
		}
		p99Ratio := 0.0
		if batched.InteractiveP99 > 0 {
			p99Ratio = float64(unbatched.InteractiveP99) / float64(batched.InteractiveP99)
		}
		shedWin := 0.0
		if storm.Shed.InteractiveP99 > 0 {
			shedWin = float64(storm.NoShed.InteractiveP99) / float64(storm.Shed.InteractiveP99)
		}

		metrics := []Metric{
			{Name: "batched run rejections", Paper: 0, Measured: float64(batched.Rejected),
				Unit: "requests", Tol: 1e-9},
			{Name: "models with >=2x analytic amortization", Paper: float64(len(models)),
				Measured: float64(amortized), Unit: "models", Tol: 1e-9},
			{Name: "interactive requests shed under storm", Paper: 0,
				Measured: float64(interShedStorm), Unit: "requests", Tol: 1e-9},
			{Name: "interactive availability, storm + shed", Paper: 1,
				Measured: interAvail, Unit: "fraction", Tol: 0.02},
			{Name: "mean micro-batch size", Measured: batched.MeanBatch, Unit: "rows"},
			{Name: "batched throughput", Measured: batched.Throughput, Unit: "req/s"},
			{Name: "unbatched/batched interactive p99", Measured: p99Ratio, Unit: "ratio"},
			{Name: "shed-policy interactive p99 win (storm)", Measured: shedWin, Unit: "ratio"},
		}

		var detail strings.Builder
		fmt.Fprintf(&detail, "  workload: %s\n", serve.Census(reqs))
		fmt.Fprintf(&detail, "  --- micro-batched ---\n%s", indent(batched.Render()))
		fmt.Fprintf(&detail, "  --- unbatched, same capacity ---\n%s", indent(unbatched.Render()))
		fmt.Fprintf(&detail, "  --- serving-storm ---\n%s", indent(storm.Render()))
		return Result{Metrics: metrics, Detail: detail.String()}
	}
	return Experiment{
		ID:    "S6",
		Title: "serving — surrogate inference with micro-batching, admission control, and load shedding",
		PaperClaim: "trained surrogates must answer simulation queries for millions of users; " +
			"dynamic micro-batching amortizes per-dispatch overhead so the same replicas absorb " +
			"bursty diurnal load that collapses an unbatched server, and shedding bulk work under " +
			"partial outages keeps interactive tails bounded without dropping interactive traffic",
		Body: run,
	}
}
