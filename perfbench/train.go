package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"summitscale/internal/autograd"
	"summitscale/internal/data"
	"summitscale/internal/ddl"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/stats"
)

// The train workload: one op is one epoch of data-parallel CNN training
// from the seeded initial model, nproc ranks over an mp world, the
// summit-train path.
const (
	trainSamples   = 1536
	trainChannels  = 2
	trainImage     = 16
	trainBatch     = 8 // per rank
	trainLR        = 0.05
	trainMomentum  = 0.9
	trainModelSeed = 100 // offset of the model's seed from the data's
)

var trainCNN = nn.SmallCNNConfig{InChannels: trainChannels, ImageSize: trainImage, Channels: []int{8, 16}, Classes: 2}

type trainRunner struct {
	e       env
	src     *data.ClimateImages
	refLoss float64 // rank 0's final loss in the set-up epoch

	// Accumulated over traced ops.
	steps      int
	bytes      int64
	msgs       int64
	allocs     uint64
	stepMillis []float64
}

// epochOutcome is what one epoch's check looks at.
type epochOutcome struct {
	loss       float64 // rank 0's loss at the last step
	consistent bool    // every replica holds the same parameters
	steps      int     // steps rank 0 took
	bytes      int64   // bytes the training allreduces moved
	msgs       int64
}

func setupTrain(e env, tr *tracer, root int) (runner, error) {
	r := &trainRunner{e: e, src: data.NewClimateImages(e.seed, trainSamples, trainChannels, trainImage)}
	sp := tr.begin("train.reference", root)
	ref := r.epoch(nil, -1)
	tr.end(sp)
	if !ref.consistent || math.IsNaN(ref.loss) || ref.steps == 0 {
		return nil, fmt.Errorf("reference epoch: consistent %v, loss %v, %d steps", ref.consistent, ref.loss, ref.steps)
	}
	r.refLoss = ref.loss
	return r, nil
}

// epoch trains one epoch. Only rank 0 records spans: its timeline is one
// sequence of batch, step, forward, allreduce and optimizer calls, so the
// spans nest without overlap and self times add up to the op.
func (r *trainRunner) epoch(tr *tracer, root int) epochOutcome {
	w := mp.NewWorld(r.e.workers)
	models := make([]nn.Module, r.e.workers)
	var out epochOutcome
	w.Run(func(c *mp.Comm) {
		rtr := tr
		if c.Rank() != 0 {
			rtr = nil
		}
		m := nn.NewSmallCNN(stats.NewRNG(r.e.seed+trainModelSeed), trainCNN)
		models[c.Rank()] = m
		step := -1 // rank 0's open ddl.step span
		var opt optim.Optimizer = optim.NewMomentumSGD(trainLR, trainMomentum)
		var cfg ddl.Config
		if rtr != nil {
			opt = &timedOptimizer{Optimizer: opt, tr: rtr, parent: &step}
			cfg.Allreduce = func(c *mp.Comm, g []float64) []float64 {
				sp := rtr.begin("mp.allreduce", step)
				defer rtr.end(sp)
				return c.AllReduceRing(g)
			}
		}
		rank := ddl.NewRank(c, m, opt, cfg)
		idx := data.ShardedEpoch(r.e.seed, 0, r.src.Len(), c.Size(), c.Rank())
		var loss float64
		steps := 0
		for _, batch := range data.Batches(idx, trainBatch) {
			sp := rtr.begin("data.batch", root)
			x, labels := data.BatchImages(r.src, batch)
			rtr.end(sp)
			step = rtr.begin("ddl.step", root)
			loss = rank.Step(func(int) *autograd.Value {
				sp := rtr.begin("nn.forward", step)
				defer rtr.end(sp)
				return autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(x)), labels)
			})
			rtr.end(step)
			steps++
		}
		if c.Rank() == 0 {
			out.loss, out.steps = loss, steps
		}
	})
	out.bytes, out.msgs = w.BytesSent(), w.MessagesSent()
	w.Run(func(c *mp.Comm) {
		ok := ddl.ReplicasConsistent(c, models[c.Rank()], 0)
		if c.Rank() == 0 {
			out.consistent = ok
		}
	})
	return out
}

func (r *trainRunner) op(tr *tracer, root int) (int, error) {
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	out := r.epoch(tr, root)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.steps += out.steps
		r.bytes += out.bytes
		r.msgs += out.msgs
		r.allocs += after.Mallocs - before.Mallocs
		for _, d := range tr.durations("ddl.step") {
			r.stepMillis = append(r.stepMillis, float64(d)/float64(time.Millisecond))
		}
	}
	if err := checkEpoch(out, r.refLoss); err != nil {
		return 0, err
	}
	return out.steps * trainBatch * r.e.workers, nil
}

// checkEpoch holds an epoch to the set-up epoch: replicas agree, and the
// final loss matches the reference to rounding.
func checkEpoch(out epochOutcome, refLoss float64) error {
	if !out.consistent {
		return fmt.Errorf("replicas diverged")
	}
	if !(math.Abs(out.loss-refLoss) <= 1e-12*math.Abs(refLoss)) {
		return fmt.Errorf("final loss %.17g, reference %.17g", out.loss, refLoss)
	}
	return nil
}

func (r *trainRunner) layers(st map[string]*layerStat) (map[string]float64, error) {
	if r.steps == 0 {
		return nil, fmt.Errorf("no traced epoch")
	}
	steps := float64(r.steps)
	return map[string]float64{
		"data.batch_ms":   perCallMillis(st, "data.batch", false),
		"nn.forward_ms":   perCallMillis(st, "nn.forward", false),
		"mp.allreduce_ms": perCallMillis(st, "mp.allreduce", false),
		"optim.step_ms":   perCallMillis(st, "optim.step", false),
		// Backward is what Step spends outside forward, allreduce and the
		// optimizer: its self time.
		"autograd.backward_ms": perCallMillis(st, "ddl.step", true),
		"ddl.step_p50_ms":      stats.Percentile(r.stepMillis, 50),
		"ddl.step_p99_ms":      stats.Percentile(r.stepMillis, 99),
		"mp.bytes_per_step":    float64(r.bytes) / steps,
		"mp.msgs_per_step":     float64(r.msgs) / steps,
		"ddl.allocs_per_step":  float64(r.allocs) / steps,
	}, nil
}

// timedOptimizer times Step under the open ddl.step span.
type timedOptimizer struct {
	optim.Optimizer
	tr     *tracer
	parent *int
}

func (o *timedOptimizer) Step(params []nn.Param) {
	sp := o.tr.begin("optim.step", *o.parent)
	o.Optimizer.Step(params)
	o.tr.end(sp)
}
