package netsim

import (
	"testing"

	"summitscale/internal/units"
)

func TestDegradedScalesBandwidth(t *testing.T) {
	f := SummitFabric()
	n := units.Bytes(100 * units.MB)
	full := f.RingAllReduce(512, n)
	half := f.Degraded(0.5).RingAllReduce(512, n)
	if half <= full {
		t.Fatal("degraded ring not slower")
	}
	// Bandwidth-dominated regime: halving the link roughly doubles time.
	if ratio := float64(half) / float64(full); ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("half-bandwidth ratio %.3f, want ~2", ratio)
	}
}

func TestDegradedRejectsBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("factor 0 accepted")
		}
	}()
	SummitFabric().Degraded(0)
}

func TestNodeLossCostsMoreThanCleanStep(t *testing.T) {
	f := SummitFabric()
	n := units.Bytes(170 * units.MB)
	clean := f.RingAllReduce(1024, n)
	lossy := f.AllReduceWithNodeLoss(1024, n, 0.5, 0.5)
	// Half a wasted collective + detection + redo must exceed one clean
	// collective plus the detection timeout.
	if lossy <= clean+0.5 {
		t.Fatalf("node-loss allreduce %v not dearer than clean %v + timeout", lossy, clean)
	}
}

func TestNodeLossLateFailureWastesMore(t *testing.T) {
	f := SummitFabric()
	n := units.Bytes(170 * units.MB)
	early := f.AllReduceWithNodeLoss(1024, n, 0.1, 0.5)
	late := f.AllReduceWithNodeLoss(1024, n, 0.9, 0.5)
	if late <= early {
		t.Fatal("later failure should waste more partial work")
	}
}

func TestRingAllReduceUnderCleanMatchesAnalytic(t *testing.T) {
	f := SummitFabric()
	n := units.Bytes(100 * units.MB)
	elapsed, bytes := f.RingAllReduceUnder(64, n, 0, nil)
	if want := f.RingAllReduce(64, n); !approx(float64(elapsed), float64(want), 1e-9) {
		t.Fatalf("clean integrated time %v vs analytic %v", elapsed, want)
	}
	if want := RingAllReduceBytes(64, n); !approx(float64(bytes), float64(want), 1e-9) {
		t.Fatalf("clean integrated bytes %v vs analytic %v", bytes, want)
	}
}

func TestRingAllReduceUnderConservesBytes(t *testing.T) {
	f := SummitFabric()
	n := units.Bytes(100 * units.MB)
	flappy := func(at units.Seconds) float64 {
		if int(at*1e3)%2 == 0 {
			return 0.25
		}
		return 1
	}
	elapsed, bytes := f.RingAllReduceUnder(64, n, 0, flappy)
	if clean := f.RingAllReduce(64, n); elapsed <= clean {
		t.Fatalf("flapping link did not stretch the collective: %v <= %v", elapsed, clean)
	}
	if want := RingAllReduceBytes(64, n); !approx(float64(bytes), float64(want), 1e-9) {
		t.Fatalf("flapping link changed byte volume: %v vs %v", bytes, want)
	}
}

func TestRingAllReduceUnderMonotoneInFactor(t *testing.T) {
	f := SummitFabric()
	n := units.Bytes(64 * units.MB)
	prev := units.Seconds(0)
	for _, factor := range []float64{1, 0.75, 0.5, 0.25, 0.1} {
		ft := factor
		elapsed, _ := f.RingAllReduceUnder(32, n, 0, func(units.Seconds) float64 { return ft })
		if elapsed < prev {
			t.Fatalf("worse link factor %v yielded faster collective: %v < %v", factor, elapsed, prev)
		}
		prev = elapsed
	}
}

func TestRingAllReduceUnderRejectsBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("factor 0 accepted")
		}
	}()
	SummitFabric().RingAllReduceUnder(8, units.MB, 0, func(units.Seconds) float64 { return 0 })
}

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+b)
}

func TestRingRebuildGrowsWithMembership(t *testing.T) {
	f := SummitFabric()
	small := f.RingRebuildTime(8, 0.5)
	large := f.RingRebuildTime(4096, 0.5)
	if large < small {
		t.Fatal("rebuild cost shrank with membership")
	}
	if small < 0.5 {
		t.Fatal("rebuild cheaper than the detection timeout")
	}
}
