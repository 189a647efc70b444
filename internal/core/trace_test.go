package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"summitscale/internal/obs"
)

// The observability layer must be a pure read-out: observing an
// experiment changes neither its Result nor the byte-level report, and
// the emitted Chrome trace is a deterministic function of the
// experiment's seeds — identical across reruns and across worker counts.

// rs2Trace runs RS2 under a fresh observer and returns the trace bytes
// and the rendered report.
func rs2Trace(t *testing.T) ([]byte, string) {
	t.Helper()
	e, ok := ByID("RS2")
	if !ok {
		t.Fatal("RS2 not registered")
	}
	ob := obs.New()
	r := e.Body(Env{Obs: ob})
	return ob.Trace.ChromeTrace(), RenderResult(e, r)
}

// TestRS2TraceGolden pins the fault-injected campaign's Chrome trace
// byte-for-byte (the `summit-repro -experiment RS2 -trace out.json`
// artifact) and checks it is reproducible and a pure read-out.
func TestRS2TraceGolden(t *testing.T) {
	first, report := rs2Trace(t)
	again, _ := rs2Trace(t)
	if !bytes.Equal(first, again) {
		t.Error("RS2 trace not byte-identical across reruns")
	}
	e, _ := ByID("RS2")
	if unobserved := RenderResult(e, e.Run()); report != unobserved {
		t.Errorf("observing RS2 changed its report:\n--- observed ---\n%s\n--- plain ---\n%s", report, unobserved)
	}
	if want := readGolden(t, "trace-RS2.golden.json"); string(first) != want {
		t.Errorf("RS2 trace diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", first, want)
	}
}

// TestRS2TraceValidChromeJSON parses the pinned artifact with the stdlib
// decoder and checks the trace-event envelope Perfetto/chrome://tracing
// expect: integer-microsecond complete and instant events under pid 1,
// named by thread_name metadata.
func TestRS2TraceValidChromeJSON(t *testing.T) {
	raw, _ := rs2Trace(t)
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		if ev.Pid != 1 {
			t.Fatalf("event %q has pid %d, want 1", ev.Name, ev.Pid)
		}
		if ev.Ts != float64(int64(ev.Ts)) || ev.Dur != float64(int64(ev.Dur)) {
			t.Fatalf("event %q has non-integer ts/dur (%v/%v)", ev.Name, ev.Ts, ev.Dur)
		}
	}
	for _, ph := range []string{"M", "X", "i"} {
		if phases[ph] == 0 {
			t.Errorf("trace has no %q events (got %v)", ph, phases)
		}
	}
}

// TestFullRegistryTraceDeterministicAcrossWorkers shares one observer
// across the whole registry at different worker counts: report, trace,
// and metrics must all be byte-identical regardless of scheduling. The
// observed report must equal the unobserved one, and observing an engine
// an unobserved run has already warmed must re-record exactly the cold
// run's trace — observed runs share sub-results but skip the
// result/<ID> memo, so no span may go missing.
func TestFullRegistryTraceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	type out struct{ report, trace, metrics, summary string }
	runAt := func(en *Engine, workers int) out {
		ob := obs.New()
		report, _ := en.RunAllObserved(workers, ob)
		return out{report, string(ob.Trace.ChromeTrace()), ob.Metrics.Render(), ob.Trace.Summary()}
	}
	cold := runAt(NewEngine(), 1)
	// The process-wide engine is warm after any earlier full run in this
	// package; RunAllParallel makes sure of it either way.
	plain, _ := RunAllParallel(4)
	if cold.report != plain {
		t.Error("observed report differs from the unobserved report")
	}
	par := runAt(defaultEngine, 8)
	if cold.report != par.report {
		t.Error("report differs between cold -j 1 and warm -j 8")
	}
	if cold.trace != par.trace {
		t.Error("Chrome trace differs between cold -j 1 and warm -j 8")
	}
	if cold.metrics != par.metrics {
		t.Errorf("metrics differ between cold -j 1 and warm -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", cold.metrics, par.metrics)
	}
	if cold.summary != par.summary {
		t.Error("trace summary differs between cold -j 1 and warm -j 8")
	}
}
