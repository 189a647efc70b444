package core

import (
	"fmt"
	"strings"

	"summitscale/internal/models"
	"summitscale/internal/perf"
	"summitscale/internal/platform"
	"summitscale/internal/storage"
	"summitscale/internal/units"
)

func sysreqExperiments() []Experiment {
	return SysreqExperimentsOn(platform.Summit())
}

// SysreqExperimentsOn returns the §VI-B system-requirement analyses (I/O,
// communication, device roofline) evaluated on the given platform. On the
// paper's baseline the experiments carry the paper's reference values and
// render byte-identically to the seed report (locked by the golden
// tests); on other platforms the same analyses run with informational
// metrics, since the paper reports Summit numbers only.
func SysreqExperimentsOn(p platform.Platform) []Experiment {
	return []Experiment{ioExperiment(p), commExperiment(p), rooflineExperiment(p)}
}

// refMetric keeps the paper reference on the baseline platform and
// downgrades the metric to informational elsewhere.
func refMetric(ref bool, m Metric) Metric {
	if !ref {
		m.Paper, m.Tol = 0, 0
	}
	return m
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// rooflineExperiment reproduces §VI-B's device-level claim: AI/ML
// workloads reduce to convolution, recurrent operations, and matrix
// multiplication, are "typically computational bound at the device
// level" for the matrix-like kernels, and "high floating point rates for
// model training require large matrix sizes".
func rooflineExperiment(p platform.Platform) Experiment {
	ref := p.IsPaperBaseline()
	fam := p.Node.GPU.Family()
	return Experiment{
		ID:         "R1",
		Title:      fmt.Sprintf("§VI-B roofline — the three basic operation classes on a %s", fam),
		PaperClaim: "conv/matmul compute-bound at training sizes; recurrent/elementwise memory-bound; high rates need large matrices",
		Body: func(Env) Result {
			r := p.Roofline()
			var b strings.Builder
			fmt.Fprintf(&b, "%s tensor roofline: peak %v, HBM %v, ridge %.0f flops/byte\n",
				fam, r.Peak, units.BytesPerSecond(r.MemBW), r.RidgeIntensity())
			b.WriteString("  kernel            intensity   attainable\n")
			type k struct {
				name string
				kind string
				n    int
			}
			for _, kk := range []k{
				{"matmul n=64", "matmul", 64},
				{"matmul n=1024", "matmul", 1024},
				{"conv (training tiles)", "conv", 2048},
				{"recurrent/elementwise", "recurrent", 0},
			} {
				in := perf.KernelIntensity(kk.kind, kk.n)
				fmt.Fprintf(&b, "  %-20s %9.1f  %12v\n", kk.name, in, r.Attainable(in))
			}
			bigMatmul := r.ComputeBound(perf.KernelIntensity("matmul", 1024))
			conv := r.ComputeBound(perf.KernelIntensity("conv", 2048))
			recurrent := r.ComputeBound(perf.KernelIntensity("recurrent", 0))
			smallMatmul := r.ComputeBound(perf.KernelIntensity("matmul", 64))
			return Result{
				Metrics: []Metric{
					refMetric(ref, Metric{Name: "ridge intensity", Paper: 125e12 / 900e9, Measured: r.RidgeIntensity(), Unit: "flop/B", Tol: 0.01}),
					refMetric(ref, Metric{Name: "large matmul compute-bound (1=yes)", Paper: 1, Measured: boolMetric(bigMatmul), Tol: 1e-9}),
					refMetric(ref, Metric{Name: "large conv compute-bound (1=yes)", Paper: 1, Measured: boolMetric(conv), Tol: 1e-9}),
					refMetric(ref, Metric{Name: "recurrent memory-bound (1=yes)", Paper: 1, Measured: boolMetric(!recurrent), Tol: 1e-9}),
					refMetric(ref, Metric{Name: "small matmul memory-bound (1=yes)", Paper: 1, Measured: boolMetric(!smallMatmul), Tol: 1e-9}),
				},
				Detail: b.String(),
			}
		},
	}
}

// ioExperiment reproduces §VI-B's I/O analysis: full-Summit data-parallel
// ResNet-50 needs ~20 TB/s aggregate read bandwidth; GPFS (2.5 TB/s)
// cannot sustain it; node-local NVMe (>27 TB/s) can. On other platforms
// the same requirement is weighed against that machine's storage paths.
func ioExperiment(p platform.Platform) Experiment {
	ref := p.IsPaperBaseline()
	claim := "ResNet-50 needs ~20 TB/s; GPFS provides 2.5 TB/s; NVMe aggregate exceeds 27 TB/s"
	if !ref {
		claim = fmt.Sprintf("§VI-B I/O analysis replayed on %s (no paper reference values)", p.Name)
	}
	run := func(env Env) Result {
		mach := p.Machine
		m := models.ResNet50()
		req := storage.TrainingReadRequirement(mach.TotalGPUs(), m.SingleGPUThroughput, m.RecordBytes)
		gpfs := p.GPFS()
		gpfsBW := gpfs.ReadBW(mach.Nodes)
		_, gpfsFrac := storage.Sustains(gpfs, mach.Nodes, req)

		var b strings.Builder
		fmt.Fprintf(&b, "Training input requirement vs. available bandwidth (full %s):\n", mach.Name)
		fmt.Fprintf(&b, "  required (ResNet-50, %d GPUs x %.0f samples/s x %v): %v\n",
			mach.TotalGPUs(), m.SingleGPUThroughput, m.RecordBytes, req)
		fmt.Fprintf(&b, "  GPFS aggregate read:  %v  -> sustains %.0f%% of need\n", gpfsBW, 100*gpfsFrac)

		ms := []Metric{
			refMetric(ref, Metric{Name: "required aggregate read bw", Paper: 20e12, Measured: float64(req), Unit: "B/s", Tol: 0.1}),
			refMetric(ref, Metric{Name: "GPFS aggregate read bw", Paper: 2.5e12, Measured: float64(gpfsBW), Unit: "B/s", Tol: 0.01}),
		}
		if p.HasNodeLocal() {
			nvme := p.NVMe()
			nvmeBW := nvme.ReadBW(mach.Nodes)
			okNVMe, _ := storage.Sustains(nvme, mach.Nodes, req)
			fmt.Fprintf(&b, "  NVMe aggregate read:  %v  -> sustains training: %v\n", nvmeBW, okNVMe)
			stager := p.Stager()
			for _, ds := range []units.Bytes{10 * units.TB, 200 * units.TB} {
				plan, err := stager.PlanFor(ds, mach.Nodes)
				if err != nil {
					fmt.Fprintf(&b, "  staging %v: %v\n", ds, err)
					continue
				}
				fmt.Fprintf(&b, "  staging %v (plan %d): %v, per-epoch shuffle %v\n",
					ds, plan, stager.ObservedStagingTime(env.Obs, ds, mach.Nodes, plan),
					stager.EpochShuffleTime(ds, mach.Nodes, plan))
			}
			ms = append(ms,
				refMetric(ref, Metric{Name: "NVMe aggregate read bw", Paper: 27e12, Measured: float64(nvmeBW), Unit: "B/s", Tol: 0.05}),
				refMetric(ref, Metric{Name: "GPFS sustains (1=yes)", Paper: 0, Measured: boolMetric(gpfsFrac >= 1), Tol: 1e-9}),
				refMetric(ref, Metric{Name: "NVMe sustains (1=yes)", Paper: 1, Measured: boolMetric(okNVMe), Tol: 1e-9}),
			)
		} else {
			b.WriteString("  no node-local storage on this machine; the shared FS is the only input path\n")
			ms = append(ms,
				refMetric(ref, Metric{Name: "GPFS sustains (1=yes)", Paper: 0, Measured: boolMetric(gpfsFrac >= 1), Tol: 1e-9}),
			)
		}
		return Result{Metrics: ms, Detail: b.String()}
	}
	return Experiment{
		ID:         "IO1",
		Title:      fmt.Sprintf("§VI-B I/O — training input bandwidth on full %s", p.Name),
		PaperClaim: claim,
		Body:       run,
	}
}

// commExperiment reproduces §VI-B's communication analysis: ResNet-50's
// ~100 MB allreduce takes ~8 ms at 12.5 GB/s algorithm bandwidth and hides
// under computation; BERT-large's ~1.4 GB takes ~110 ms, comparable to its
// per-batch compute, so larger models become communication-bound.
func commExperiment(p platform.Platform) Experiment {
	ref := p.IsPaperBaseline()
	claim := "ring algorithm bw 12.5 GB/s; ResNet-50 ~8 ms, BERT-large ~110 ms; BERT-large is the data-parallel crossover"
	if !ref {
		claim = fmt.Sprintf("§VI-B communication analysis replayed on %s", p.Name)
	}
	run := func(env Env) Result {
		f := p.Fabric()
		mach := p.Machine
		resnet := models.ResNet50()
		bert := models.BERTLarge()
		bertNodes := minInt(4032, mach.Nodes)
		selNodes := minInt(4096, mach.Nodes)
		tRes := f.ObservedRingAllReduce(env.Obs, "comm", 0, mach.Nodes, resnet.GradientBytes())
		tBert := f.ObservedRingAllReduce(env.Obs, "comm", tRes, bertNodes, bert.GradientBytes())
		if env.Obs != nil {
			// Replay the BERT-large allreduce with a mid-collective node
			// loss so the trace shows the wasted/rebuild/redo decomposition
			// (§IV-B's failure mode). Gated on the observer: the report
			// itself never depends on it.
			f.ObservedAllReduceWithNodeLoss(env.Obs, "comm-loss", 0,
				bertNodes, bert.GradientBytes(), 0.5, 0.5)
		}
		algoBW := f.RingAlgorithmBW(mach.Nodes, units.Bytes(1*units.GB))
		bertCompute := bert.StepComputeTime()

		var b strings.Builder
		fmt.Fprintf(&b, "Ring allreduce on %s fabric (per-device gradients):\n", mach.Name)
		fmt.Fprintf(&b, "  algorithm bandwidth (large msgs): %v\n", algoBW)
		fmt.Fprintf(&b, "  %-12s %10v gradient -> %v\n", resnet.Name, resnet.GradientBytes(), tRes)
		fmt.Fprintf(&b, "  %-12s %10v gradient -> %v (per-batch compute %v)\n",
			bert.Name, bert.GradientBytes(), tBert, bertCompute)
		fmt.Fprintf(&b, "  allreduce algorithm selection by message size (%d nodes):\n", selNodes)
		for _, sz := range []units.Bytes{1 * units.KB, 1 * units.MB, 100 * units.MB, 1.4 * units.GB} {
			algo, t := f.BestAllReduce(selNodes, sz)
			fmt.Fprintf(&b, "    %10v -> %-18s %v\n", sz, algo, t)
		}
		ms := []Metric{
			refMetric(ref, Metric{Name: "ring algorithm bandwidth", Paper: 12.5e9, Measured: float64(algoBW), Unit: "B/s", Tol: 0.1}),
			refMetric(ref, Metric{Name: "ResNet-50 allreduce time", Paper: 0.008, Measured: float64(tRes), Unit: "s", Tol: 0.25}),
			refMetric(ref, Metric{Name: "BERT-large allreduce time", Paper: 0.110, Measured: float64(tBert), Unit: "s", Tol: 0.15}),
			refMetric(ref, Metric{Name: "BERT comm comparable to compute (1=yes)", Paper: 1,
				Measured: boolMetric(float64(tBert) > 0.5*float64(bertCompute)), Tol: 1e-9}),
		}
		if !ref {
			// The baseline report is byte-frozen by the golden tests, so
			// the explicit crossover point is surfaced only on the other
			// machines, where it is the headline difference.
			cross := f.RingTreeCrossover(selNodes)
			fmt.Fprintf(&b, "  ring/recursive-doubling crossover at %d nodes: %v\n", selNodes, cross)
			ms = append(ms, Metric{Name: "ring/doubling crossover message size", Measured: float64(cross), Unit: "B"})
		}
		return Result{Metrics: ms, Detail: b.String()}
	}
	return Experiment{
		ID:         "C1",
		Title:      "§VI-B communication — allreduce cost vs model size",
		PaperClaim: claim,
		Body:       run,
	}
}
