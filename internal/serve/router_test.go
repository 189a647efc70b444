package serve

import (
	"testing"

	"summitscale/internal/platform"
	"summitscale/internal/units"
)

// tieModel is the ridge model of the default fleet: a real kernel whose
// priced service time the tests read back exactly.
func tieModel(t *testing.T) Model {
	t.Helper()
	m := DefaultModels(7)[0]
	if m.Name() != "ridge" {
		t.Fatalf("first default model is %q, want ridge", m.Name())
	}
	return m
}

func tieRequest(m Model, id uint64, at units.Seconds) Request {
	return Request{ID: id, Model: m.Name(), Arrival: at, Features: make([]float64, m.FeatureDim())}
}

// An arrival at exactly an open batch's deadline runs before the deadline
// event, so it joins the batch the deadline then closes. Were arrivals
// ordered after same-time events, the deadline would close a batch of one
// and the late request would open a second.
func TestArrivalOnDeadlineJoinsOpenBatch(t *testing.T) {
	m := tieModel(t)
	cfg := Config{
		Platform: platform.MustLookup("summit"), Models: []Model{m}, Replicas: 1,
		Batch: BatchConfig{MaxBatch: 8, MaxDelay: 0.25},
	}
	reqs := []Request{tieRequest(m, 1, 0.5), tieRequest(m, 2, 0.75)}
	rep, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 2 || len(rep.Models) != 1 || rep.Models[0].Batches != 1 {
		t.Fatalf("served %d in %d batches, want 2 in one batch", rep.Served, rep.Models[0].Batches)
	}
	for _, r := range rep.Responses {
		if r.BatchSize != 2 {
			t.Fatalf("request %d served in a batch of %d, want 2", r.ID, r.BatchSize)
		}
	}
}

// An arrival at exactly a batch's completion time is offered admission
// before that completion drains the queue: with one replica and a queue
// of one, the request waiting behind the running batch still holds the
// only slot, so the arrival is refused queue-full. Were arrivals ordered
// after same-time events, the completion would start the waiting batch
// first, free the slot, and admit the arrival.
func TestArrivalOnCompletionSeesUndrainedQueue(t *testing.T) {
	m := tieModel(t)
	p := platform.MustLookup("summit")
	cfg := Config{
		Platform: p, Models: []Model{m}, Replicas: 1,
		Batch:     BatchConfig{MaxBatch: 1},
		Admission: AdmissionConfig{QueueCap: 1},
	}
	done := PricerFor(p).ServiceTime(m, 1) // the first batch starts at 0
	reqs := []Request{tieRequest(m, 1, 0), tieRequest(m, 2, done/2), tieRequest(m, 3, done)}
	rep, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 2 || rep.Rejected != 1 {
		t.Fatalf("served %d, rejected %d; want 2 and 1", rep.Served, rep.Rejected)
	}
	rej := rep.Rejections[0]
	if rej.ID != 3 || rej.Code != RejectQueueFull || rej.At != done {
		t.Fatalf("rejection %+v, want request 3 refused queue-full at %v", rej, done)
	}
	if rep.Responses[0].ID != 1 || rep.Responses[1].ID != 2 {
		t.Fatalf("served %d then %d, want 1 then 2", rep.Responses[0].ID, rep.Responses[1].ID)
	}
}

// TestRunAllocsPerRequest holds a full serving run of BenchmarkServeRun's
// workload to the summit-bench ServeRun ceiling of 3 allocations per
// request. Allocations track batches, not requests: arrivals stream from
// the sorted slice, and batches reuse the run's scratch and slabs.
func TestRunAllocsPerRequest(t *testing.T) {
	models := DefaultModels(7)
	spec := testTraffic()
	reqs, err := spec.Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Platform: platform.MustLookup("summit"), Models: models, Horizon: spec.Horizon}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if perReq := allocs / float64(len(reqs)); perReq > 3 {
		t.Fatalf("%.0f allocs per run over %d requests = %.2f per request, ceiling 3", allocs, len(reqs), perReq)
	}
}
