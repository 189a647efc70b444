package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"summitscale/internal/autograd"
	"summitscale/internal/checkpoint"
	"summitscale/internal/ddl"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// The recover workload: one op is one guarded data-parallel run on a
// 3-tier on-disk checkpoint store, with seeded silent corruptions — grad
// flips, wire flips, torn drains and stale drains — that the guards must
// detect and the run must roll back and recompute.
const (
	recoverSteps     = 32
	recoverEvery     = 4  // steps per checkpoint window
	recoverBatch     = 64 // global batch per step, split across ranks
	recoverLR        = 0.05
	recoverNormLimit = 100 // far above clean gradient norms
	recoverModelSeed = 200 // offset of the model's seed from the data's
	// flipBit is the top exponent bit: a nonzero gradient of magnitude
	// below 2 (every gradient of this tanh MLP) escalates to 2^1024 times
	// itself when it flips, far past the norm limit or to non-finite, so
	// each flip is one the guards can see.
	flipBit = 62
)

var recoverWidths = []int{32, 256, 256, 10}

type recoverRunner struct {
	e          env
	x          []*tensor.Tensor // per step: the global batch
	labels     [][]int
	injections []ddl.SDCInjection
	flips      int
	clean      []float64 // final parameters of the run without injections
	runs       int       // guarded runs so far, to give each its own directory

	// Accumulated over traced ops.
	ops        int
	useful     float64
	rollbacks  int
	detections int
	last       *ddl.GuardedResult
}

func setupRecover(e env, tr *tracer, root int) (runner, error) {
	rng := stats.NewRNG(e.seed)
	r := &recoverRunner{e: e}
	teacher := tensor.Randn(rng, 1, recoverWidths[0], recoverWidths[len(recoverWidths)-1])
	for s := 0; s < recoverSteps; s++ {
		x := tensor.Randn(rng, 1, recoverBatch, recoverWidths[0])
		r.x = append(r.x, x)
		r.labels = append(r.labels, x.MatMul(teacher).ArgMaxRows())
	}
	r.injections, r.flips = recoverInjections(rng, e.workers, paramCount(r.newModel()))

	sp := tr.begin("ddl.reference", root)
	clean, err := r.guarded(nil, nil, -1)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	if clean.Detections != 0 {
		return nil, fmt.Errorf("clean run tripped a guard %d times", clean.Detections)
	}
	r.clean = clean.FinalParams
	return r, nil
}

// recoverInjections draws two grad flips, two wire flips, a torn drain
// and a stale drain, each in a checkpoint window of its own chosen by the
// seed, at seeded ranks and words. A flip lands on the last step of its
// window, so each detection discards the same number of steps whatever
// the seed and every seed asks for the same work. The two storage kinds
// never share a commit: a drain that never happened cannot be torn.
func recoverInjections(rng *stats.RNG, ranks, words int) ([]ddl.SDCInjection, int) {
	kinds := []ddl.SDCKind{ddl.GradFlip, ddl.GradFlip, ddl.WireFlip, ddl.WireFlip, ddl.TornDrain, ddl.StaleDrain}
	windows := rng.Perm(recoverSteps / recoverEvery)
	var out []ddl.SDCInjection
	flips := 0
	for i, k := range kinds {
		inj := ddl.SDCInjection{Step: windows[i]*recoverEvery + recoverEvery - 1, Kind: k}
		if k == ddl.GradFlip || k == ddl.WireFlip {
			inj.Rank, inj.Word, inj.Bit = rng.Intn(ranks), rng.Intn(words), flipBit
			flips++
		}
		out = append(out, inj)
	}
	return out, flips
}

func (r *recoverRunner) newModel() nn.Module {
	return nn.NewMLP(stats.NewRNG(r.e.seed+recoverModelSeed), recoverWidths, autograd.Tanh)
}

func paramCount(m nn.Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Data.Size()
	}
	return n
}

// guarded runs one guarded run in a directory of its own and removes the
// directory afterwards. Rank 0's forward passes are traced under parent.
func (r *recoverRunner) guarded(injections []ddl.SDCInjection, tr *tracer, parent int) (*ddl.GuardedResult, error) {
	r.runs++
	dir := filepath.Join(r.e.scratch, fmt.Sprintf("guarded-%d", r.runs))
	defer os.RemoveAll(dir)
	world := r.e.workers
	lossFn := func(rank, world, step int, m nn.Module) *autograd.Value {
		if rank == 0 {
			sp := tr.begin("ddl.guarded.forward", parent)
			defer tr.end(sp)
		}
		per := recoverBatch / world
		lo := rank * per
		out := m.(*nn.Sequential).Forward(autograd.Constant(r.x[step].Slice2DRows(lo, lo+per)))
		return autograd.SoftmaxCrossEntropy(out, r.labels[step][lo:lo+per])
	}
	return ddl.RunGuarded(ddl.GuardedConfig{
		Ranks:           world,
		Steps:           recoverSteps,
		CheckpointEvery: recoverEvery,
		Tiers:           storeTiers(dir),
		Injections:      injections,
		Guards:          ddl.Guards{NaN: true, GradNormLimit: recoverNormLimit, ABFT: true},
	}, r.newModel, func() optim.Optimizer { return optim.NewSGD(recoverLR) }, lossFn)
}

// storeTiers is the node-local, replica and parallel-file-system layout
// summit-train uses, under dir.
func storeTiers(dir string) []checkpoint.TierDir {
	return []checkpoint.TierDir{
		{Name: "nvme", Dir: filepath.Join(dir, "nvme")},
		{Name: "replica", Dir: filepath.Join(dir, "replica")},
		{Name: "gpfs", Dir: filepath.Join(dir, "gpfs")},
	}
}

func (r *recoverRunner) op(tr *tracer, root int) (int, error) {
	sp := tr.begin("ddl.run_guarded", root)
	res, err := r.guarded(r.injections, tr, sp)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		r.ops++
		r.useful += float64(res.StepsCommitted) / float64(res.StepsExecuted)
		r.rollbacks += res.Rollbacks
		r.detections += res.Detections
		r.last = res
	}
	if err := checkRecovered(res, r.clean, r.flips); err != nil {
		return 0, err
	}
	return res.StepsCommitted, nil
}

// checkRecovered holds a run with injections to the clean run: recovery
// leaves no trace in the final parameters, bit for bit, and injected flips
// were detected.
func checkRecovered(res *ddl.GuardedResult, clean []float64, flips int) error {
	if len(res.FinalParams) != len(clean) {
		return fmt.Errorf("%d final parameters, clean run has %d", len(res.FinalParams), len(clean))
	}
	for i, v := range res.FinalParams {
		if math.Float64bits(v) != math.Float64bits(clean[i]) {
			return fmt.Errorf("final parameter %d is %.17g, clean run has %.17g", i, v, clean[i])
		}
	}
	if flips > 0 && res.Detections < 1 {
		return fmt.Errorf("%d flips injected, none detected", flips)
	}
	return nil
}

// layers replays the store calls of the last traced run — its commits,
// drains and restores — on the workload's model and tier layout, timing
// each call, since the guarded run makes them inside the ddl package.
func (r *recoverRunner) layers(st map[string]*layerStat) (map[string]float64, error) {
	if r.ops == 0 {
		return nil, fmt.Errorf("no traced run")
	}
	dir := filepath.Join(r.e.scratch, "replay")
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewStore(storeTiers(dir), 0)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	m := r.newModel()
	var save, drain, restore time.Duration
	var bytes int64
	versions := r.last.Checkpoints
	for v := 1; v <= versions; v++ {
		t0 := time.Now()
		if err := store.Save(m, v); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := store.DrainAll(v); err != nil {
			return nil, err
		}
		save, drain = save+t1.Sub(t0), drain+time.Since(t1)
		fi, err := os.Stat(store.VersionPath(0, v))
		if err != nil {
			return nil, err
		}
		bytes += fi.Size()
	}
	// A guarded run restores once per window it starts, and once more at
	// the end: its commits plus its detections.
	restores := r.last.Checkpoints + r.last.Detections
	for i := 0; i < restores; i++ {
		t0 := time.Now()
		if _, err := store.Restore(m); err != nil {
			return nil, err
		}
		restore += time.Since(t0)
	}
	ms := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Millisecond) / float64(n) }
	ops := float64(r.ops)
	return map[string]float64{
		"checkpoint.save_ms":           ms(save, versions),
		"checkpoint.drain_ms":          ms(drain, versions),
		"checkpoint.restore_ms":        ms(restore, restores),
		"checkpoint.bytes_per_version": float64(bytes) / float64(versions),
		"ddl.guarded.forward_ms":       perCallMillis(st, "ddl.guarded.forward", false),
		"ddl.guarded.useful_ratio":     r.useful / ops,
		"ddl.guarded.rollbacks":        float64(r.rollbacks) / ops,
		"ddl.guarded.detections":       float64(r.detections) / ops,
	}, nil
}
