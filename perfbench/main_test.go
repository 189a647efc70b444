package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps the contract at the repository
// root in step with the metrics this program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	var timed []workload
	for _, w := range workloads {
		if !w.layersOnly {
			timed = append(timed, w)
		}
	}
	if len(contract.Workloads) != len(timed) {
		t.Fatalf("contract has %d workloads, program %d", len(contract.Workloads), len(timed))
	}
	for i, w := range contract.Workloads {
		if w.Name != timed[i].name || w.Why == "" {
			t.Errorf("workload %d: contract %q, program %q", i, w.Name, timed[i].name)
		}
	}
	if len(contract.EndToEnd) != len(endToEnd) {
		t.Fatalf("contract has %d end-to-end metrics, program %d", len(contract.EndToEnd), len(endToEnd))
	}
	for i, m := range contract.EndToEnd {
		p := endToEnd[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better || m.Bound != p.bound {
			t.Errorf("end-to-end %d: contract %+v, program %s %s %s %v", i, m, p.name, p.unit, p.better, p.bound)
		}
	}
	if len(contract.PerLayer) != len(perLayer) {
		t.Fatalf("contract has %d per-layer metrics, program %d", len(contract.PerLayer), len(perLayer))
	}
	known := map[string]bool{"all": true}
	for _, w := range workloads {
		known[w.name] = true
	}
	for i, m := range contract.PerLayer {
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per-layer %d: contract %+v, program %s %s %s", i, m, p.name, p.unit, p.better)
		}
		if !known[p.workload] || p.moves == "" {
			t.Errorf("%s: workload %q, moves %q", p.name, p.workload, p.moves)
		}
	}
}

// TestWorkloadsPassTheirChecks sets every workload up, runs an untraced
// op, then a traced one through layersOf, and reads its layer metrics, so
// a change to a public function the benchmark drives shows here before a
// benchmark run.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e := env{seed: 5, workers: 2, scratch: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.setup(e, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := r.op(nil, -1); err != nil || n < 1 {
				t.Fatalf("untraced op: %d items, %v", n, err)
			}
			layer, err := layersOf(w, e)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				if m.workload != w.name {
					continue
				}
				if v, ok := layer[m.name]; !ok || v <= 0 {
					t.Errorf("%s = %v, %v", m.name, v, ok)
				}
			}
		})
	}
}

// TestQuantile checks the interpolation the timing metrics rest on.
func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{10, 0, 5}, 0.1, 1},
		{[]float64{10, 0, 5}, 0, 0},
		{[]float64{10, 0, 5}, 1, 10},
		{[]float64{7}, 0.1, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}
