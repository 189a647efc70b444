// Command perfbench is the SummitScale benchmark: one closed-loop client
// per process drives one workload through the public functions of the
// core, ddl, mp, serve, chaos, checkpoint, nn, optim, data and tensor
// packages, checks every output, and prints each metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 every other op is traced at the benchmark's
// calls into each layer, one traced op of each other workload follows,
// and the metrics are the per-layer ones of all workloads plus the
// tracing overhead (traced against untraced ops of the same run). The
// timing metrics of ops are the fast end of a run's ops, not its median;
// see fastQuantile. Wall times leave out time stolen by a hypervisor; see
// stopwatch.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"summitscale/internal/parallel"
	"summitscale/internal/tensor"
)

const (
	// setupRuns is how many times a run sets its workload up; setup_s is
	// the median, so a one-off stall in one set-up does not show.
	setupRuns = 3
	// minOps is the least number of ops a run measures, whatever
	// -seconds says; a traced run needs two traced and two untraced.
	minOps = 4
	// gemmKC pins the packed GEMM panel depth, as BENCH_ENV does in the
	// Makefile, so the init-time autotune cannot pick a different depth
	// from one run to the next.
	gemmKC = 256
	// fastQuantile is the quantile of the ops' times that op_s and
	// cpu_per_op_s report (and 1 - fastQuantile that of their rates, for
	// items_per_s). Every op of a run does the same work, and on a shared
	// host another tenant's load only ever adds to its time: a busy
	// hyperthread sibling slows the same fixed loop by up to 2x for
	// seconds at a time, and a run's median moves with how much of the
	// run that lasted. The fast end of the ops is the time the code takes
	// when its core is not shared; the median is printed alongside.
	fastQuantile = 0.10
)

// env is what every workload is built from.
type env struct {
	seed    uint64
	workers int    // nproc: ranks, -j and serving kernel width
	scratch string // directory for on-disk state, inside the checkout
}

// runner is a set-up workload: the closed-loop client calls op until the
// run's time is up.
type runner interface {
	// op runs one operation, checks its outputs and returns the number of
	// work items it completed. tr is nil on untraced ops; root is the op's
	// root span, under which op opens its layer spans.
	op(tr *tracer, root int) (items int, err error)
	// layers returns the workload's per-layer metrics from its traced ops;
	// st holds the spans' totals by name.
	layers(st map[string]*layerStat) (map[string]float64, error)
}

// workload names one client and how to set it up.
type workload struct {
	name  string
	setup func(e env, tr *tracer, root int) (runner, error)
	// oneProc runs the workload's nproc ranks on one processor
	// (GOMAXPROCS 1); they still exchange every gradient through mp. The
	// ranks step in lockstep, so on nproc processors a pause of any CPU
	// stalls them all: on a shared host, whose hypervisor takes a CPU
	// away for milliseconds at a time and more often when the guest keeps
	// every CPU busy, the op's wall time then follows the host's load more
	// than the code's, by more than stopwatch can take out.
	oneProc bool
	// layersOnly leaves the workload out of BENCHMARK.json: it runs with
	// -workload like the others, and every traced run traces one op of it
	// for its layers, but its end-to-end metrics are not a gate. train's
	// convolutions are floating-point bound, and on a shared host a busy
	// hyperthread sibling slows them up to 2x for minutes at a time, more
	// than two sets of ten runs can average out.
	layersOnly bool
}

var workloads = []workload{
	{name: "repro", setup: setupRepro},
	{name: "train", setup: setupTrain, layersOnly: true},
	{name: "serve", setup: setupServe},
	{name: "recover", setup: setupRecover, oneProc: true},
}

// procs is the GOMAXPROCS a workload runs at.
func (w workload) procs() int {
	if w.oneProc {
		return 1
	}
	return runtime.NumCPU()
}

// opSample is one measured op.
type opSample struct {
	traced   bool
	wall     time.Duration // as a clock on the wall shows it
	unstolen time.Duration // wall less the hypervisor's share; see stopwatch
	cpu      time.Duration
	items    int
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "how long to measure, in seconds")
	traceFlag := flag.Int("trace", 0, "1 traces every other op and prints the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(name string, seed uint64, seconds, traceFlag int) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
	}
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	traced := traceFlag == 1

	tensor.SetGemmKC(gemmKC)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_build", "scratch-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w (run from the repository root)", err)
	}
	defer os.RemoveAll(scratch)
	e := env{seed: seed, workers: runtime.NumCPU(), scratch: scratch}
	runtime.GOMAXPROCS(w.procs())

	fmt.Printf("perfbench: workload %s, seed %d, %d s, trace %d\n", w.name, seed, seconds, traceFlag)
	fmt.Printf("env: nproc %d, GOMAXPROCS %d, kernel pool %d, %s, cpu %q, gemm kc %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), parallel.Shared().Workers(), runtime.Version(), cpuModel(), tensor.GemmKC())

	// Set up several times and keep the last; a traced run sets up once
	// more with tracing on, to time set-up's layers and their overhead.
	// Each set-up computes the reference outputs the ops are checked
	// against, which also warms the code paths the ops take.
	var setups []float64
	var r runner
	for i := 0; i < setupRuns; i++ {
		sw := startStopwatch()
		if r, err = w.setup(e, nil, -1); err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		_, d := sw.elapsed()
		setups = append(setups, d.Seconds())
	}
	stats := map[string]*layerStat{}
	var tr *tracer
	var tracedSetup float64
	if traced {
		tr = newTracer()
		sw := startStopwatch()
		root := tr.begin("setup", -1)
		if r, err = w.setup(e, tr, root); err != nil {
			return fmt.Errorf("%s traced setup: %w", w.name, err)
		}
		tr.end(root)
		_, d := sw.elapsed()
		tracedSetup = d.Seconds()
		if err := tr.reduce(stats); err != nil {
			return err
		}
	}

	var samples []opSample
	failed := 0
	begin := time.Now()
	for len(samples) < minOps || time.Since(begin) < time.Duration(seconds)*time.Second {
		s := opSample{traced: traced && len(samples)%2 == 1}
		var opTr *tracer
		if s.traced {
			opTr = tr
		}
		cpu0 := cpuTime()
		sw := startStopwatch()
		root := opTr.begin(w.name, -1)
		items, err := safeOp(r, opTr, root)
		opTr.end(root)
		s.wall, s.unstolen = sw.elapsed()
		s.cpu = cpuTime() - cpu0
		if err == nil && s.traced {
			err = tr.reduce(stats)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", w.name, len(samples), err)
		} else {
			s.items = items
		}
		samples = append(samples, s)
	}

	attempted := len(samples)
	untracedOps := pick(samples, false)
	e2e := map[string]float64{
		"setup_s":      median(setups),
		"peak_rss_mb":  peakRSSMB(),
		"cpu_per_op_s": quantileOf(untracedOps, opCPU, fastQuantile),
		"op_s":         quantileOf(untracedOps, opWall, fastQuantile),
		"items_per_s":  quantileOf(untracedOps, opRate, 1-fastQuantile),
	}
	fmt.Printf("setup %d times; untraced ops, s:\n  wall      %s\n  unstolen  %s\n  cpu       %s\n", len(setups),
		quartiles(untracedOps, func(s opSample) float64 { return s.wall.Seconds() }),
		quartiles(untracedOps, opWall), quartiles(untracedOps, opCPU))
	fmt.Printf("end to end (untraced ops):\n")
	for _, m := range endToEnd {
		alias := ""
		if a := m.alias[w.name]; a != "" {
			alias = "  = " + a
		}
		fmt.Printf("  %-14s %14.6g %-6s%s\n", m.name, e2e[m.name], m.unit, alias)
	}

	out := map[string]metricValue{}
	if !traced {
		for _, m := range endToEnd {
			out[m.name] = metricValue{e2e[m.name], m.unit}
		}
	} else {
		layer, err := r.layers(stats)
		if err != nil {
			return fmt.Errorf("%s layers: %w", w.name, err)
		}
		tracedOps := pick(samples, true)
		layer["trace.overhead.setup_s"] = tracedSetup / e2e["setup_s"]
		layer["trace.overhead.op_s"] = quantileOf(tracedOps, opWall, fastQuantile) / e2e["op_s"]
		layer["trace.overhead.cpu_per_op_s"] = quantileOf(tracedOps, opCPU, fastQuantile) / e2e["cpu_per_op_s"]
		layer["trace.overhead.items_per_s"] = quantileOf(tracedOps, opRate, 1-fastQuantile) / e2e["items_per_s"]
		layer["trace.peak_rss_mb"] = e2e["peak_rss_mb"]
		// Every per-layer metric is reported on every workload, so the run
		// also sets each other workload up and runs one traced op of it for
		// the layers this workload does not reach.
		for _, v := range workloads {
			if v.name == w.name {
				continue
			}
			attempted++
			vl, err := layersOf(v, e)
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s op for its layers: %v\n", v.name, err)
				continue
			}
			for _, m := range perLayer {
				if m.workload == v.name {
					layer[m.name] = vl[m.name]
				}
			}
		}
		fmt.Printf("per layer (%d traced %s ops, one traced op of each other workload):\n", len(tracedOps), w.name)
		for _, m := range perLayer {
			v, ok := layer[m.name]
			if !ok && failed == 0 {
				return fmt.Errorf("%s did not measure %s", m.workload, m.name)
			}
			out[m.name] = metricValue{v, m.unit}
			fmt.Printf("  %-32s %14.6g %-8s moves %s\n", m.name, v, m.unit, m.moves)
		}
	}
	fmt.Printf("ops: %d attempted, %d failed\n  %-14s %14.6g ratio\n", attempted, failed, "error_rate", float64(failed)/float64(attempted))
	res, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// layersOf sets v up and runs one traced op of it, and returns the layer
// metrics of that op.
func layersOf(v workload, e env) (map[string]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs()))
	tr := newTracer()
	st := map[string]*layerStat{}
	root := tr.begin("setup", -1)
	r, err := v.setup(e, tr, root)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if err := tr.reduce(st); err != nil {
		return nil, err
	}
	root = tr.begin(v.name, -1)
	_, err = safeOp(r, tr, root)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if err := tr.reduce(st); err != nil {
		return nil, err
	}
	return r.layers(st)
}

// safeOp runs one op, reporting a panic in the program as the op's error
// so that the run goes on and counts it as failed.
func safeOp(r runner, tr *tracer, root int) (items int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return r.op(tr, root)
}

// pick returns the successful ops that were (or were not) traced.
func pick(samples []opSample, traced bool) []opSample {
	var out []opSample
	for _, s := range samples {
		if s.traced == traced && s.items > 0 {
			out = append(out, s)
		}
	}
	return out
}

// quantile is the p-quantile of xs, interpolated linearly between the two
// nearest order statistics, so quantile(xs, 0.5) is the median.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantileOf(ops []opSample, f func(opSample) float64, p float64) float64 {
	xs := make([]float64, len(ops))
	for i, s := range ops {
		xs[i] = f(s)
	}
	return quantile(xs, p)
}

// quartiles renders min, the reported quantile, quartiles and max of f
// over the ops.
func quartiles(ops []opSample, f func(opSample) float64) string {
	if len(ops) == 0 {
		return "no ops"
	}
	q := func(p float64) float64 { return quantileOf(ops, f, p) }
	return fmt.Sprintf("n %d  min %.4g  p10 %.4g  p25 %.4g  p50 %.4g  p75 %.4g  max %.4g",
		len(ops), q(0), q(fastQuantile), q(0.25), q(0.5), q(0.75), q(1))
}

// opWall is the op's wall time as the metrics count it: less the time the
// hypervisor took from the machine meanwhile.
func opWall(s opSample) float64 { return s.unstolen.Seconds() }
func opCPU(s opSample) float64  { return s.cpu.Seconds() }

// opRate is the items an op completed per wall second it took.
func opRate(s opSample) float64 { return float64(s.items) / opWall(s) }

// stopwatch measures wall time, and wall time less the CPU time that the
// hypervisor of a virtual machine gave to other guests meanwhile (the
// steal column of /proc/stat) divided by the number of CPUs. On a shared
// host the steal comes and goes with other tenants' load and can take a
// third of the machine for minutes; the code under test never sees that
// time, so the metrics leave it out. Where the kernel reports no steal
// the two readings are equal.
type stopwatch struct {
	t0    time.Time
	steal time.Duration
}

func startStopwatch() stopwatch { return stopwatch{time.Now(), stolen()} }

func (sw stopwatch) elapsed() (wall, unstolen time.Duration) {
	wall = time.Since(sw.t0)
	share := (stolen() - sw.steal) / time.Duration(runtime.NumCPU())
	return wall, wall - min(share, wall)
}

// userHZ is the unit of the /proc/stat counters, USER_HZ: 100 on Linux.
const userHZ = 100

// stolen is the CPU time stolen from this machine so far, summed over its
// CPUs, or 0 where /proc/stat does not report it.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuModel names the processor, for the record printed with every result.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
