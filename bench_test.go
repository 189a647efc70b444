// Benchmark harness: one benchmark per table and figure of the paper
// (T1-T3, F1-F6), one per §IV-B scaling study (S1-S5), the §VI-B system-
// requirement analyses (IO1, C1), the §V workflow case studies (W1-W3),
// and the three design-choice ablations called out in DESIGN.md (A1-A3).
//
// Run with: go test -bench=. -benchmem
//
// Each benchmark executes its experiment end to end and, on the first
// iteration, logs the paper-vs-measured comparison so `go test -bench -v`
// doubles as a reproduction report.
package summitscale_test

import (
	"strings"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/core"
	"summitscale/internal/machine"
	"summitscale/internal/mp"
	"summitscale/internal/netsim"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/parallel"
	"summitscale/internal/platform"
	"summitscale/internal/stats"
	"summitscale/internal/storage"
	"summitscale/internal/tensor"
	"summitscale/internal/units"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := core.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		r := e.Run()
		if i == 0 {
			if !r.Pass() {
				b.Errorf("%s deviates from the paper:\n%s", id, core.RenderResult(e, r))
			}
			b.Log("\n" + core.RenderResult(e, r))
		}
	}
}

// Tables.

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "T1") }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, "T2") }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "T3") }

// Figures.

func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "F2") }
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "F3") }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "F4") }
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "F5") }
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "F6") }

// §IV-B scaling studies.

func BenchmarkScalingKurth(b *testing.B)     { benchExperiment(b, "S1") }
func BenchmarkScalingYang(b *testing.B)      { benchExperiment(b, "S2") }
func BenchmarkScalingLaanait(b *testing.B)   { benchExperiment(b, "S3") }
func BenchmarkScalingKhan(b *testing.B)      { benchExperiment(b, "S4") }
func BenchmarkScalingBlanchard(b *testing.B) { benchExperiment(b, "S5") }

// §VI-B system requirements.

func BenchmarkIORequirements(b *testing.B)   { benchExperiment(b, "IO1") }
func BenchmarkCommRequirements(b *testing.B) { benchExperiment(b, "C1") }
func BenchmarkRoofline(b *testing.B)         { benchExperiment(b, "R1") }

// §II-B batch scheduling study.

func BenchmarkScheduling(b *testing.B) { benchExperiment(b, "B1") }

// §VI-A method needs.

func BenchmarkTrustMechanisms(b *testing.B) { benchExperiment(b, "V1") }

// §V workflow case studies.

func BenchmarkWorkflowMaterials(b *testing.B) { benchExperiment(b, "W1") }
func BenchmarkWorkflowBiology(b *testing.B)   { benchExperiment(b, "W2") }
func BenchmarkWorkflowDrug(b *testing.B)      { benchExperiment(b, "W3") }

// Hot-path pair: the full experiment suite through the legacy flat
// registry (every experiment recomputes its own intermediates, one worker,
// no memoization) versus the dependency-DAG engine at -j 4 with the
// process-warm default cache. Both render byte-identical reports; the gap
// is the scheduling-plus-memoization win the refactor exists for — shared
// sub-results computed once across experiments and reused across runs.

// runAllFlat is the legacy flat-registry path: every experiment run
// independently by a bounded pool, no sub-result sharing, no
// memoization — the baseline the DAG engine is measured against.
func runAllFlat(workers int) (string, bool) {
	exps := core.Experiments()
	sections := make([]string, len(exps))
	passed := make([]bool, len(exps))
	parallel.NewPool(workers).ForEach(len(exps), func(i int) {
		r := exps[i].Run()
		sections[i] = core.RenderResult(exps[i], r) + "\n"
		passed[i] = r.Pass()
	})
	var b strings.Builder
	all := true
	for i, s := range sections {
		b.WriteString(s)
		if !passed[i] {
			all = false
		}
	}
	return b.String(), all
}

func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, pass := runAllFlat(1)
		if !pass {
			b.Fatal("experiment suite failed")
		}
		if len(report) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, pass := core.RunAllParallel(4)
		if !pass {
			b.Fatal("experiment suite failed")
		}
		if len(report) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkDAGSchedule isolates the engine's two levers at -j 4: "flat" is
// the legacy pool with per-experiment recomputation, "dag-cold" pays the
// full graph once on a fresh engine (its win over flat is sub-result
// sharing alone), and "dag-warm" reuses one engine across iterations (the
// steady state of a long-lived tool, where memoized experiments only
// re-render).
func BenchmarkDAGSchedule(b *testing.B) {
	verify := func(b *testing.B, report string, pass bool) {
		b.Helper()
		if !pass || len(report) == 0 {
			b.Fatal("experiment suite failed")
		}
	}
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			report, pass := runAllFlat(4)
			verify(b, report, pass)
		}
	})
	b.Run("dag-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			report, pass := core.NewEngine().RunAllParallel(4)
			verify(b, report, pass)
		}
	})
	b.Run("dag-warm", func(b *testing.B) {
		en := core.NewEngine()
		en.RunAllParallel(4) // populate the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			report, pass := en.RunAllParallel(4)
			verify(b, report, pass)
		}
	})
}

// Cross-platform sweep: the Kurth et al. climate study (S1) replayed on
// every registered machine. One iteration evaluates the full study on one
// platform; the first iteration logs the per-machine efficiency so
// `go test -bench Platform -v` doubles as a what-if report.

func BenchmarkPlatformScalingSweep(b *testing.B) {
	for _, name := range platform.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := platform.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				s := core.ScalingStudiesOn(p)[0]
				r := core.RunScalingStudy(s)
				if len(r.Metrics) == 0 {
					b.Fatalf("%s: no metrics", name)
				}
				for _, m := range r.Metrics {
					if m.Measured != m.Measured || m.Measured > 1e308 || m.Measured < -1e308 {
						b.Fatalf("%s: metric %q is not finite: %v", name, m.Name, m.Measured)
					}
				}
				if i == 0 {
					b.Logf("%s: %s = %.4f", name, r.Metrics[0].Name, r.Metrics[0].Measured)
				}
			}
		})
	}
}

// Ablation A1 — allreduce algorithm choice: the flat ring against the
// two-level island collective (islands of 4 of the 8 ranks). The real
// collectives run at a fixed vector size per sub-benchmark; the analytic
// crossover from the netsim model is logged for comparison.

func benchAllreduce(b *testing.B, algo string, n int) {
	b.Helper()
	const p = 8
	vecs := make([][]float64, p)
	rng := stats.NewRNG(1)
	for r := range vecs {
		vecs[r] = make([]float64, n)
		for i := range vecs[r] {
			vecs[r][i] = rng.NormFloat64()
		}
	}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mp.NewWorld(p)
		w.Run(func(c *mp.Comm) {
			switch algo {
			case "ring":
				c.AllReduceRing(vecs[c.Rank()])
			case "hierarchical":
				c.AllReduceHierarchical(vecs[c.Rank()], 4)
			}
		})
	}
}

func BenchmarkAblationAllreduce(b *testing.B) {
	f := netsim.SummitFabric()
	b.Logf("analytic ring/doubling crossover at 4608 nodes: %v", f.RingTreeCrossover(4608))
	for _, n := range []int{1 << 8, 1 << 14, 1 << 18} {
		n := n
		for _, algo := range []string{"ring", "hierarchical"} {
			algo := algo
			b.Run(algo+"/"+itoa(n), func(b *testing.B) { benchAllreduce(b, algo, n) })
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

// Ablation A2 — storage path for a ResNet-50 epoch at 64..4608 nodes:
// GPFS direct vs NVMe staging (replicated vs partitioned with per-epoch
// shuffle). One iteration sweeps the whole grid through the model.

func BenchmarkAblationStorage(b *testing.B) {
	stager := storage.StagerFor(machine.Summit())
	gpfs := storage.NewGPFS()
	nvme := storage.NewNVMe()
	dataset := 150 * units.TB // ImageNet-scale scientific dataset
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, nodes := range []int{64, 512, 4608} {
			epochBytes := float64(dataset)
			gpfsTime := epochBytes / float64(gpfs.ReadBW(nodes))
			nvmeTime := epochBytes / float64(nvme.ReadBW(nodes))
			plan, err := stager.PlanFor(dataset, nodes)
			var stage, shuffle float64
			if err == nil {
				stage = float64(stager.StagingTime(dataset, nodes, plan))
				shuffle = float64(stager.EpochShuffleTime(dataset, nodes, plan))
			}
			sink += gpfsTime + nvmeTime + stage + shuffle
			if i == 0 {
				b.Logf("nodes=%4d  gpfs-epoch=%8.1fs  nvme-epoch=%8.1fs  stage=%8.1fs  shuffle=%6.1fs",
					nodes, gpfsTime, nvmeTime, stage, shuffle)
			}
		}
	}
	if sink == 0 {
		b.Fatal("model produced zero times")
	}
}

// Ablation A3 — optimizer choice at large batch: fixed-step training of
// an MLP on a fixed dataset; the per-iteration work is one full short
// training run. Final losses are logged for the convergence comparison.

func BenchmarkAblationOptimizer(b *testing.B) {
	rng := stats.NewRNG(3)
	x := tensor.Randn(rng, 1, 64, 8)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 4
	}
	mk := map[string]func() optim.Optimizer{
		"sgd":  func() optim.Optimizer { return optim.NewSGD(0.1) },
		"adam": func() optim.Optimizer { return optim.NewAdam(0.01) },
		"lars": func() optim.Optimizer { return optim.NewLARS(10) },
		"lamb": func() optim.Optimizer { return optim.NewLAMB(0.02) },
	}
	for _, name := range []string{"sgd", "adam", "lars", "lamb"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				m := nn.NewMLP(stats.NewRNG(42), []int{8, 32, 4}, autograd.Tanh)
				opt := mk[name]()
				for step := 0; step < 60; step++ {
					nn.ZeroGrads(m)
					loss := autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(x)), labels)
					loss.Backward(nil)
					opt.Step(m.Params())
					last = loss.Data.At(0)
				}
			}
			b.Logf("%s final loss after 60 large-batch steps: %.4f", name, last)
			if last > 1.45 { // worse than uniform over 4 classes
				b.Errorf("%s failed to learn: loss %.4f", name, last)
			}
		})
	}
}
