package main

import (
	"fmt"
	"runtime"

	"summitscale/internal/chaos"
	"summitscale/internal/parallel"
	"summitscale/internal/platform"
	"summitscale/internal/serve"
	"summitscale/internal/units"
)

// The serve workload: one op is S6's three serving runs over one seeded
// request stream — micro-batched, unbatched at the same capacity, and
// micro-batched under the serving-storm chaos scenario with the shed
// policy on and off — with a horizon several times S6's one minute.
const serveHorizon = 3 * units.Minute

type serveRunner struct {
	e      env
	plat   platform.Platform
	models []serve.Model
	spec   serve.TrafficSpec
	storm  *chaos.Scenario
	reqs   []serve.Request

	// The outputs of the same runs at Workers 1, which every op at nproc
	// workers must reproduce.
	refBatched, refUnbatched *serve.Report
	refStorm                 *chaos.ServeChaosReport

	// Accumulated over traced ops.
	ops      int
	requests int
	allocs   uint64
	admitted [3]float64 // served/requests: batched, unbatched, storm with shedding
}

func setupServe(e env, tr *tracer, root int) (runner, error) {
	r := &serveRunner{e: e, plat: platform.Summit(), models: serve.DefaultModels(e.seed), storm: chaos.ServingStorm()}
	r.spec = serve.DefaultTraffic()
	r.spec.Horizon = serveHorizon
	sp := tr.begin("serve.generate", root)
	reqs, err := r.spec.Generate(e.seed, r.models)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.reqs = reqs
	sp = tr.begin("serve.reference", root)
	defer tr.end(sp)
	if r.refBatched, err = serve.Run(r.batchedConfig(r.models, 1), reqs); err != nil {
		return nil, err
	}
	if r.refUnbatched, err = serve.Run(r.unbatchedConfig(r.models, 1), reqs); err != nil {
		return nil, err
	}
	if r.refStorm, err = chaos.RunServe(r.plat, r.storm, e.seed, r.spec, r.models, nil); err != nil {
		return nil, err
	}
	if r.refUnbatched.Rejected == 0 {
		return nil, fmt.Errorf("the unbatched run rejected nothing, so admission carries no load")
	}
	return r, nil
}

func (r *serveRunner) batchedConfig(models []serve.Model, workers int) serve.Config {
	return serve.Config{Platform: r.plat, Models: models, Horizon: r.spec.Horizon, Workers: workers}
}

// unbatchedConfig serves one request per dispatch with the admission
// queue the batched run gets, as S6 does.
func (r *serveRunner) unbatchedConfig(models []serve.Model, workers int) serve.Config {
	return serve.Config{
		Platform: r.plat, Models: models, Horizon: r.spec.Horizon, Workers: workers,
		Batch:     serve.BatchConfig{MaxBatch: 1, MaxDelay: 0},
		Admission: serve.DefaultAdmission(serve.ReplicasFor(r.plat, len(models)), serve.DefaultBatch().MaxBatch),
	}
}

func (r *serveRunner) op(tr *tracer, root int) (int, error) {
	var before runtime.MemStats
	models := r.models
	run := -1 // the open run span, parent of the models' predict spans
	if tr != nil {
		runtime.ReadMemStats(&before)
		models = make([]serve.Model, len(r.models))
		for i, m := range r.models {
			models[i] = &timedModel{Model: m, tr: tr, parent: &run}
		}
	}
	run = tr.begin("serve.run", root)
	batched, err := serve.Run(r.batchedConfig(models, r.e.workers), r.reqs)
	tr.end(run)
	if err != nil {
		return 0, err
	}
	run = tr.begin("serve.run", root)
	unbatched, err := serve.Run(r.unbatchedConfig(models, r.e.workers), r.reqs)
	tr.end(run)
	if err != nil {
		return 0, err
	}
	run = tr.begin("chaos.run_serve", root)
	storm, err := chaos.RunServe(r.plat, r.storm, r.e.seed, r.spec, models, nil)
	tr.end(run)
	if err != nil {
		return 0, err
	}
	requests := batched.Requests + unbatched.Requests + storm.Shed.Requests + storm.NoShed.Requests
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.ops++
		r.requests += requests
		r.allocs += after.Mallocs - before.Mallocs
		for i, rep := range []*serve.Report{batched, unbatched, storm.Shed} {
			r.admitted[i] += float64(rep.Served) / float64(rep.Requests)
		}
	}
	for _, c := range []struct {
		name     string
		got, ref *serve.Report
	}{
		{"batched", batched, r.refBatched},
		{"unbatched", unbatched, r.refUnbatched},
		{"storm with shedding", storm.Shed, r.refStorm.Shed},
		{"storm without shedding", storm.NoShed, r.refStorm.NoShed},
	} {
		if err := checkServe(c.got, c.ref); err != nil {
			return 0, fmt.Errorf("%s run: %w", c.name, err)
		}
	}
	return requests, nil
}

// checkServe holds a serving report to its reference: every request is
// accounted for once, and the rendered report and the checksum over all
// responses are identical to the reference's.
func checkServe(got, ref *serve.Report) error {
	if n := got.Served + got.Rejected + got.Unserved; n != got.Requests {
		return fmt.Errorf("served %d + rejected %d + unserved %d = %d, not the %d requests",
			got.Served, got.Rejected, got.Unserved, n, got.Requests)
	}
	if got.Checksum != ref.Checksum {
		return fmt.Errorf("checksum %.17g, reference %.17g", got.Checksum, ref.Checksum)
	}
	if got.Render() != ref.Render() {
		return fmt.Errorf("rendered report differs from the reference")
	}
	return nil
}

func (r *serveRunner) layers(st map[string]*layerStat) (map[string]float64, error) {
	if r.ops == 0 {
		return nil, fmt.Errorf("no traced op")
	}
	ops := float64(r.ops)
	var run, self float64
	for _, name := range []string{"serve.run", "chaos.run_serve"} {
		if s := st[name]; s != nil {
			run += s.total.Seconds()
			self += s.self.Seconds()
		}
	}
	var predict, generate float64
	if s := st["serve.predict"]; s != nil {
		predict = s.total.Seconds()
	}
	if s := st["serve.generate"]; s != nil {
		generate = s.total.Seconds() / float64(s.calls)
	}
	return map[string]float64{
		"serve.generate_s":            generate,
		"serve.run_s":                 run / ops,
		"serve.predict_s":             predict / ops,
		"serve.router_self_s":         self / ops,
		"serve.mean_batch":            r.refBatched.MeanBatch,
		"serve.admit_ratio.batched":   r.admitted[0] / ops,
		"serve.admit_ratio.unbatched": r.admitted[1] / ops,
		"serve.admit_ratio.storm":     r.admitted[2] / ops,
		"serve.allocs_per_req":        float64(r.allocs) / float64(r.requests),
	}, nil
}

// timedModel times PredictBatch under the open run span. Everything else
// passes through, so routing and results are unchanged.
type timedModel struct {
	serve.Model
	tr     *tracer
	parent *int
}

func (m *timedModel) PredictBatch(pool *parallel.WorkerPool, workers int, rows [][]float64, out []float64) {
	sp := m.tr.begin("serve.predict", *m.parent)
	m.Model.PredictBatch(pool, workers, rows, out)
	m.tr.end(sp)
}
