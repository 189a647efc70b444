package faults

import (
	"math"
	"reflect"
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/units"
)

func summitParams() Params {
	return ParamsFor(machine.Summit(), 4608)
}

func TestTraceDeterministic(t *testing.T) {
	p := summitParams()
	a := p.Generate(42, 24*units.Hour)
	b := p.Generate(42, 24*units.Hour)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same seed produced different traces")
	}
	c := p.Generate(43, 24*units.Hour)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceSorted(t *testing.T) {
	tr := summitParams().Generate(7, 48*units.Hour)
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time < tr.Events[i-1].Time {
			t.Fatal("trace events not sorted by onset")
		}
	}
}

func TestFailureRateMatchesMTBF(t *testing.T) {
	p := summitParams()
	horizon := 30 * 24 * units.Hour
	// Average over seeds: the empirical failure rate must track
	// horizon/systemMTBF within a few percent.
	var total float64
	const seeds = 20
	for s := uint64(0); s < seeds; s++ {
		total += float64(p.Generate(s, horizon).Count(NodeFailure))
	}
	want := float64(horizon) / float64(p.SystemMTBF())
	got := total / seeds
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("mean failures %.1f, MTBF predicts %.1f", got, want)
	}
}

func TestWeibullShapePreservesMean(t *testing.T) {
	p := summitParams()
	p.Shape = 0.7 // infant mortality
	horizon := 60 * 24 * units.Hour
	var total float64
	const seeds = 30
	for s := uint64(0); s < seeds; s++ {
		total += float64(p.Generate(s, horizon).Count(NodeFailure))
	}
	want := float64(horizon) / float64(p.SystemMTBF())
	got := total / seeds
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("Weibull(0.7) mean failures %.1f, want ~%.1f", got, want)
	}
}

func TestParamsForDefaultsAndClamp(t *testing.T) {
	m := machine.Summit()
	m.NodeMTBF = 0
	p := ParamsFor(m, 0)
	if p.NodeMTBF != DefaultNodeMTBF {
		t.Fatalf("zero machine MTBF not defaulted: %v", p.NodeMTBF)
	}
	if p.Nodes != m.Nodes {
		t.Fatalf("job nodes not clamped to machine size: %d", p.Nodes)
	}
	if got := ParamsFor(m, 100).Nodes; got != 100 {
		t.Fatalf("job node count not honored: %d", got)
	}
}

func TestTransientWindows(t *testing.T) {
	p := summitParams()
	tr := p.Generate(11, 24*units.Hour)
	var strag *Event
	for i := range tr.Events {
		if tr.Events[i].Kind == Straggler {
			strag = &tr.Events[i]
			break
		}
	}
	if strag == nil {
		t.Skip("no straggler in this trace")
	}
	mid := strag.Time + strag.Duration/2
	if got := tr.SlowdownAt(mid); got < strag.Factor {
		t.Fatalf("SlowdownAt(%v) = %v, want >= %v", mid, got, strag.Factor)
	}
	if got := tr.SlowdownAt(strag.Time + strag.Duration + tr.Horizon); got != 1 {
		t.Fatalf("slowdown after horizon = %v, want 1", got)
	}
}

func TestNodeFailedIn(t *testing.T) {
	p := summitParams()
	tr := p.Generate(3, 48*units.Hour)
	var fail *Event
	for i := range tr.Events {
		if tr.Events[i].Kind == NodeFailure {
			fail = &tr.Events[i]
			break
		}
	}
	if fail == nil {
		t.Fatal("48h Summit trace has no failures")
	}
	if !tr.NodeFailedIn(fail.Node, fail.Time, fail.Time+1) {
		t.Fatal("NodeFailedIn missed a recorded failure")
	}
	if tr.NodeFailedIn(fail.Node, fail.Time+1, fail.Time+1) {
		t.Fatal("empty window matched")
	}
}

func TestSimulateFailureFree(t *testing.T) {
	shape := RunShape{TotalWork: 1000, CheckpointCost: 10, RestartCost: 100}
	o := Simulate(shape, 100, traceWith(), nil)
	// 10 work chunks, 9 committed checkpoints (no commit after the last).
	if o.Checkpoints != 9 || o.Failures != 0 {
		t.Fatalf("got %d checkpoints, %d failures", o.Checkpoints, o.Failures)
	}
	if want := units.Seconds(1000 + 9*10); o.Wall != want {
		t.Fatalf("wall %v, want %v", o.Wall, want)
	}
}

func TestSimulateSingleFailure(t *testing.T) {
	shape := RunShape{TotalWork: 1000, CheckpointCost: 10, RestartCost: 100}
	// Failure at t=150: one committed segment (110 wall), 40 into the
	// second; lose 40, restart, then 9 more chunks (8 commits).
	o := Simulate(shape, 100, traceWith(150), nil)
	if o.Failures != 1 {
		t.Fatalf("failures = %d", o.Failures)
	}
	if o.LostWork != 40 {
		t.Fatalf("lost work %v, want 40", o.LostWork)
	}
	want := units.Seconds(150 + 100 + 900 + 8*10)
	if o.Wall != want {
		t.Fatalf("wall %v, want %v", o.Wall, want)
	}
}

// TestSimulateWallIdentity: wall time decomposes exactly into useful
// work + committed checkpoints + lost work + restarts.
func TestSimulateWallIdentity(t *testing.T) {
	shape := RunShape{TotalWork: 6 * units.Hour, CheckpointCost: 5, RestartCost: 120}
	p := summitParams()
	for seed := uint64(0); seed < 10; seed++ {
		tr := p.Generate(seed, 10*24*units.Hour)
		o := Simulate(shape, 300, tr, nil)
		sum := shape.TotalWork + o.CkptTime + o.LostWork + o.RestartTime
		if diff := math.Abs(float64(o.Wall - sum)); diff > 1e-6 {
			t.Fatalf("seed %d: wall %v != work+ckpt+lost+restart %v", seed, o.Wall, sum)
		}
		if o.Efficiency(shape) > 1 || o.Efficiency(shape) <= 0 {
			t.Fatalf("efficiency out of range: %v", o.Efficiency(shape))
		}
	}
}

func TestSimulateFailureDuringRestart(t *testing.T) {
	shape := RunShape{TotalWork: 100, CheckpointCost: 10, RestartCost: 100}
	// First failure at t=50 (restart to 150); second at t=120 hits the
	// restart window and restarts it (to 220); then the run completes.
	o := Simulate(shape, 200, traceWith(50, 120), nil)
	if o.Failures != 2 {
		t.Fatalf("failures = %d", o.Failures)
	}
	want := units.Seconds(220 + 100)
	if o.Wall != want {
		t.Fatalf("wall %v, want %v", o.Wall, want)
	}
	sum := shape.TotalWork + o.CkptTime + o.LostWork + o.RestartTime
	if diff := math.Abs(float64(o.Wall - sum)); diff > 1e-6 {
		t.Fatalf("wall identity broken: %v vs %v", o.Wall, sum)
	}
}

func TestDalyInterval(t *testing.T) {
	got := DalyInterval(8, 10000)
	if want := units.Seconds(400); math.Abs(float64(got-want)) > 1e-9 {
		t.Fatalf("Daly interval %v, want %v", got, want)
	}
}

// TestSweepOptimumNearDaly is the headline property: sweeping checkpoint
// intervals against seeded exponential failure traces, the measured
// optimum lands within 15% of sqrt(2*delta*MTBF).
func TestSweepOptimumNearDaly(t *testing.T) {
	p := summitParams()
	shape := RunShape{TotalWork: 12 * units.Hour, CheckpointCost: 4, RestartCost: 180}
	daly := DalyInterval(shape.CheckpointCost, p.SystemMTBF())
	traces := make([]*Trace, 256)
	for i := range traces {
		traces[i] = p.Generate(uint64(1000+i), 10*24*units.Hour)
	}
	grid := GeometricIntervals(daly/6, daly*6, 41)
	best := Optimum(Sweep(shape, grid, traces))
	rel := math.Abs(float64(best.Interval-daly)) / float64(daly)
	if rel > 0.15 {
		t.Fatalf("measured optimum %v vs Daly %v (%.0f%% off)", best.Interval, daly, 100*rel)
	}
}

func TestGeometricIntervals(t *testing.T) {
	g := GeometricIntervals(10, 1000, 5)
	if len(g) != 5 || g[0] != 10 || g[4] != 1000 {
		t.Fatalf("bad grid: %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not increasing: %v", g)
		}
	}
}

func TestRenderTrace(t *testing.T) {
	tr := summitParams().Generate(5, 12*units.Hour)
	out := tr.Render()
	if out == "" || tr.Summary() == "" {
		t.Fatal("empty render")
	}
}

// TestSDCParamsDoNotPerturbBaseSchedule pins the stream-splitting order:
// enabling the silent-data-corruption classes draws from RNG streams
// split AFTER the original three, so every pre-existing trace — and
// every golden pinned against one — stays byte-identical.
func TestSDCParamsDoNotPerturbBaseSchedule(t *testing.T) {
	base := summitParams()
	withSDC := base
	withSDC.SDCMTBE = base.NodeMTBF / 25
	withSDC.SDCWords = 1 << 20
	withSDC.TornWriteMTBE = base.NodeMTBF / 40
	withSDC.StaleReplicaMTBE = base.NodeMTBF / 40

	horizon := 24 * units.Hour
	plain := base.Generate(20220523, horizon)
	mixed := withSDC.Generate(20220523, horizon)

	keep := func(tr *Trace) []Event {
		var out []Event
		for _, e := range tr.Events {
			switch e.Kind {
			case NodeFailure, Straggler, LinkDegrade:
				out = append(out, e)
			}
		}
		return out
	}
	a, b := keep(plain), keep(mixed)
	if len(a) != len(b) {
		t.Fatalf("base schedule changed size: %d events without SDC, %d with", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("base event %d perturbed: %+v vs %+v", i, a[i], b[i])
		}
	}
	sdcs := mixed.Count(SilentCorruption) + mixed.Count(TornWrite) + mixed.Count(StaleReplica)
	if sdcs == 0 {
		t.Fatal("SDC-enabled trace generated no SDC events at these rates")
	}
	if plain.Count(SilentCorruption)+plain.Count(TornWrite)+plain.Count(StaleReplica) != 0 {
		t.Fatal("SDC events appeared with zero MTBEs")
	}
}
