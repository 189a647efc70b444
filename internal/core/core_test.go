package core

import (
	"strings"
	"testing"

	"summitscale/internal/platform"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "F1", "F2", "F3", "F4", "F5", "F6", "B1",
		"S1", "S2", "S3", "S4", "S5", "IO1", "C1", "R1", "V1", "W1", "W2", "W3",
		"RS1", "RS2", "RS3", "RS4", "RS5", "S6", "S7"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		seen[e.ID] = true
		if e.Title == "" || e.PaperClaim == "" || e.Body == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("S1")
	if !ok || e.ID != "S1" {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("Z9"); ok {
		t.Fatal("found ghost experiment")
	}
}

// TestEveryExperimentPasses is the headline reproduction check: every
// table, figure, scaling study, system-requirement analysis, and workflow
// case study reproduces its paper value within its stated tolerance.
func TestEveryExperimentPasses(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run()
			if len(r.Metrics) == 0 {
				t.Fatalf("%s produced no metrics", e.ID)
			}
			for _, m := range r.Metrics {
				if !m.Within() {
					t.Errorf("%s: %s = %v vs paper %v (relerr %.1f%% > tol %.0f%%)",
						e.ID, m.Name, m.Measured, m.Paper, 100*m.RelErr(), 100*m.Tol)
				}
			}
			if r.Detail == "" {
				t.Errorf("%s has no rendered detail", e.ID)
			}
		})
	}
}

func TestMetricSemantics(t *testing.T) {
	m := Metric{Name: "x", Paper: 10, Measured: 10.5, Tol: 0.1}
	if !m.Within() || m.RelErr() != 0.05 {
		t.Fatalf("metric: %+v relerr %v", m, m.RelErr())
	}
	m.Measured = 12
	if m.Within() {
		t.Fatal("20% deviation passed a 10% tolerance")
	}
	// Informational metrics always pass.
	if !(Metric{Name: "info", Measured: 99}).Within() {
		t.Fatal("informational metric failed")
	}
	// Structural zero: tolerance bounds the absolute value.
	z := Metric{Name: "zero", Paper: 0, Measured: 0, Tol: 1e-9}
	if !z.Within() {
		t.Fatal("exact zero failed")
	}
	z.Measured = 1
	if z.Within() {
		t.Fatal("nonzero passed structural zero")
	}
}

func TestRenderResult(t *testing.T) {
	e, _ := ByID("C1")
	out := RenderResult(e, e.Run())
	for _, frag := range []string{"C1", "paper:", "ring algorithm bandwidth", "ok"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestRunAll(t *testing.T) {
	report, pass := RunAllParallel(1)
	if !pass {
		t.Error("RunAll reports failures")
	}
	for _, id := range []string{"T1", "F6", "S5", "IO1", "W3"} {
		if !strings.Contains(report, "== "+id) {
			t.Errorf("report missing %s", id)
		}
	}
	if len(report) < 3000 {
		t.Errorf("report suspiciously short: %d bytes", len(report))
	}
}

// TestRunAllParallelByteIdentical is the determinism guarantee of the
// concurrent runner: the parallel report must match the sequential one
// byte for byte, at several worker counts, so `-j` can default to NumCPU
// without perturbing any golden or downstream diff.
func TestRunAllParallelByteIdentical(t *testing.T) {
	seq, seqPass := RunAllParallel(1)
	for _, workers := range []int{2, 4, 8} {
		par, parPass := RunAllParallel(workers)
		if parPass != seqPass {
			t.Errorf("workers=%d: pass %v vs sequential %v", workers, parPass, seqPass)
		}
		if par != seq {
			t.Fatalf("workers=%d: parallel report diverged from sequential (%d vs %d bytes)",
				workers, len(par), len(seq))
		}
	}
}

// TestExperimentsRegistryCached pins the sync.OnceValue satellite: repeated
// calls must hand back the same backing array instead of rebuilding every
// experiment closure.
func TestExperimentsRegistryCached(t *testing.T) {
	a, b := Experiments(), Experiments()
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty registry")
	}
	if &a[0] != &b[0] {
		t.Error("Experiments() rebuilt the registry on a second call")
	}
}

func TestScalingStudiesConsistent(t *testing.T) {
	for _, s := range ScalingStudiesOn(platform.Summit()) {
		if s.Job.Nodes != s.AtNodes {
			t.Errorf("%s: job nodes %d != AtNodes %d", s.ID, s.Job.Nodes, s.AtNodes)
		}
		if len(s.Curve) < 3 {
			t.Errorf("%s: curve too short", s.ID)
		}
		if s.Curve[0] != s.BaseNodes || s.Curve[len(s.Curve)-1] != s.AtNodes {
			t.Errorf("%s: curve endpoints %v don't match base/at", s.ID, s.Curve)
		}
		if out := RenderScalingCurve(s); !strings.Contains(out, "nodes") {
			t.Errorf("%s: curve render broken", s.ID)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	md := RenderMarkdown()
	if !strings.Contains(md, "| ID |") || !strings.Contains(md, "| S5 |") {
		t.Fatal("markdown table incomplete")
	}
	if strings.Contains(md, "DEVIATES") {
		t.Fatal("markdown report shows deviations")
	}
	// One row per metric: at least 50 data rows.
	if rows := strings.Count(md, "\n|") - 2; rows < 50 {
		t.Fatalf("only %d rows", rows)
	}
}

func TestRenderScalingSVG(t *testing.T) {
	for _, s := range ScalingStudiesOn(platform.Summit()) {
		svg := RenderScalingSVG(s)
		if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
			t.Fatalf("%s SVG malformed", s.ID)
		}
		if !strings.Contains(svg, "polyline") {
			t.Fatalf("%s SVG missing the curve", s.ID)
		}
		if s.PaperEfficiency > 0 && !strings.Contains(svg, "paper") {
			t.Fatalf("%s SVG missing the paper reference point", s.ID)
		}
	}
}
