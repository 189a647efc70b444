package serve

import (
	"fmt"
	"sort"
	"strings"

	"summitscale/internal/des"
	"summitscale/internal/obs"
	"summitscale/internal/parallel"
	"summitscale/internal/platform"
	"summitscale/internal/units"
)

// Config assembles one serving run. The zero value of most fields selects
// a sensible default; Platform and Models are required.
type Config struct {
	// Platform sizes replica pools and prices service times.
	Platform platform.Platform
	// Models is the fleet; requests route by Model name.
	Models []Model
	// Batch is the micro-batching policy (zero MaxBatch selects
	// DefaultBatch).
	Batch BatchConfig
	// Admission bounds each model's queue (zero QueueCap selects
	// DefaultAdmission for the resolved replica count). To disable
	// shedding, set QueueCap explicitly and leave ShedAt zero.
	Admission AdmissionConfig
	// Replicas per model; zero selects ReplicasFor(Platform, len(Models)).
	Replicas int
	// Workers caps inference-kernel parallelism (the -j knob). It cannot
	// change results: kernels write disjoint output rows through
	// RunRangeMax. Zero uses the pool's full width.
	Workers int
	// Horizon, when positive, is the denominator for throughput; zero
	// falls back to the last completion time.
	Horizon units.Seconds
	// Pricer overrides the platform-derived price model.
	Pricer *Pricer
	// Pool runs inference kernels; nil uses parallel.Shared().
	Pool *parallel.WorkerPool
	// Obs receives spans, queue gauges, and latency series; nil is a
	// no-op.
	Obs *obs.Observer

	// LinkFactorAt, when set, returns the interconnect health factor in
	// (0, 1] at a simulated time (chaos link-flap threading): service and
	// transit times divide by it.
	LinkFactorAt func(units.Seconds) float64
	// ReplicaFails are times at which one live replica is lost (each event
	// drains gracefully: an in-flight batch completes first). Losses
	// spread across models, hitting the model with the most live replicas.
	ReplicaFails []units.Seconds
	// ReplicaRepairs are times at which one lost replica returns, to the
	// model with the fewest live replicas.
	ReplicaRepairs []units.Seconds
}

// ModelStats is one model's ledger in a Report.
type ModelStats struct {
	Name         string
	Replicas     int
	ReplicasLost int

	Requests int // routed to this model
	Admitted int
	Shed     int // Bulk requests refused by the shed policy
	Full     int // requests refused queue-full
	Served   int
	Unserved int // admitted but never completed (capacity lost)

	Batches   int
	MeanBatch float64
	MaxBatch  int
	PeakQueue int

	P50, P99, Max units.Seconds // served latency quantiles
	// AnalyticP50/P99 are the queueing-free roofline estimates: half
	// (resp. full) batch delay plus the priced service time at the mean
	// (resp. largest) observed batch, plus transit.
	AnalyticP50, AnalyticP99 units.Seconds
	// Amortization is the analytic per-sample speedup at MaxBatch.
	Amortization float64
}

// Report is the deterministic outcome of a serving run: a pure function
// of (Config, request stream), byte-identical at any worker count.
type Report struct {
	Platform string
	Workers  int
	Replicas int
	Horizon  units.Seconds

	Requests int
	Served   int
	Rejected int
	Unserved int

	InteractiveP50, InteractiveP99 units.Seconds
	BulkP50, BulkP99               units.Seconds
	MeanBatch                      float64
	Throughput                     float64 // served requests per simulated second
	Checksum                       float64 // sum of response values: pins inference output

	Models     []ModelStats
	Responses  []Response
	Rejections []Rejection
}

// modelState is the router's per-model runtime.
type modelState struct {
	m        Model
	admit    *admitQueue
	batch    *batcher
	replicas *replicaPool

	latencies  []float64
	batchSizes []int
	served     int
}

// router is one run's event-loop state. Arrivals stream from the sorted
// request slice; the simulator's queue holds only batch completions,
// batch deadlines, and replica loss and repair.
type router struct {
	states  []*modelState
	byName  map[string]int
	pricer  Pricer
	pool    *parallel.WorkerPool
	workers int
	link    func(units.Seconds) float64
	o       *obs.Observer
	rep     *Report

	// rows is the PredictBatch input scratch, reused by every batch: the
	// kernel returns before the next batch starts.
	rows [][]float64
	// outs is the slab every batch's predictions are carved from. A
	// request is served in at most one batch, so len(requests) suffices.
	outs []float64
}

// Run drives the request stream through admission, micro-batching, and
// replica dispatch on the simulated clock, running real inference kernels
// for every served batch. Requests are sorted by (Arrival, ID) first, so
// the outcome is independent of input order; the event loop itself is
// single-threaded, so it is independent of -j by construction.
func Run(cfg Config, reqs []Request) (*Report, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("serve: config needs at least one model")
	}
	if cfg.Batch.MaxBatch == 0 {
		cfg.Batch = DefaultBatch()
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = ReplicasFor(cfg.Platform, len(cfg.Models))
	}
	if cfg.Admission.QueueCap == 0 {
		cfg.Admission = DefaultAdmission(replicas, cfg.Batch.MaxBatch)
	}
	rt := &router{
		pricer:  PricerFor(cfg.Platform),
		pool:    cfg.Pool,
		workers: cfg.Workers,
		link:    cfg.LinkFactorAt,
		o:       cfg.Obs,
		byName:  make(map[string]int, len(cfg.Models)),
	}
	if cfg.Pricer != nil {
		rt.pricer = *cfg.Pricer
	}
	if rt.pool == nil {
		rt.pool = parallel.Shared()
	}
	if rt.workers <= 0 {
		rt.workers = rt.pool.Workers()
	}
	for i, m := range cfg.Models {
		if _, dup := rt.byName[m.Name()]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q", m.Name())
		}
		rt.byName[m.Name()] = i
	}

	sorted := sortRequests(reqs)
	routed := make([]int, len(cfg.Models))
	for i := range sorted {
		if mi, ok := rt.byName[sorted[i].Model]; ok {
			routed[mi]++
		}
	}
	rt.states = make([]*modelState, len(cfg.Models))
	for i, m := range cfg.Models {
		rt.states[i] = &modelState{
			m:     m,
			admit: newAdmitQueue(cfg.Admission),
			// Sized to every request routed here, the open batch appends
			// in place and batches are sealed sub-slices of one array.
			batch:     newBatcher(cfg.Batch, routed[i]),
			replicas:  newReplicaPool(replicas),
			latencies: make([]float64, 0, routed[i]),
		}
	}
	rt.outs = make([]float64, len(sorted))
	rt.rep = &Report{
		Platform: cfg.Platform.Name,
		Workers:  rt.workers,
		Replicas: replicas,
		Requests: len(reqs),
		// Most requests get served; presizing keeps the hot loop free of
		// growslice churn.
		Responses: make([]Response, 0, len(reqs)),
	}

	sim := des.New()
	for _, t := range cfg.ReplicaFails {
		sim.At(float64(t), rt.loseReplica)
	}
	for _, t := range cfg.ReplicaRepairs {
		sim.At(float64(t), rt.repairReplica)
	}
	maxEvents := 8*len(sorted) + 4*(len(cfg.ReplicaFails)+len(cfg.ReplicaRepairs)) + 1024
	for i := range sorted {
		if !sim.RunBefore(float64(sorted[i].Arrival), maxEvents) {
			break
		}
		rt.arrive(sim, &sorted[i])
	}
	end := units.Seconds(sim.Run(maxEvents))
	if sim.Pending() > 0 {
		return nil, fmt.Errorf("serve: event budget exhausted with %d events pending", sim.Pending())
	}

	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = end
	}
	rt.rep.Horizon = horizon
	finish(rt.rep, rt.states, rt.pricer, cfg.Batch)
	return rt.rep, nil
}

// linkAt is the interconnect health factor at t, clamped to [0.01, 1].
func (rt *router) linkAt(t units.Seconds) float64 {
	if rt.link == nil {
		return 1
	}
	return min(max(rt.link(t), 0.01), 1)
}

// arrive admits one request at the current time, which RunBefore has set
// to its arrival: it routes the request to its model, offers it to the
// admission queue, and adds it to the open batch, dispatching the batch
// when it fills and arming its deadline when it opens.
func (rt *router) arrive(s *des.Sim, r *Request) {
	o := rt.o
	now := units.Seconds(s.Now())
	mi, ok := rt.byName[r.Model]
	if !ok {
		rt.rep.Rejections = append(rt.rep.Rejections, Rejection{
			ID: r.ID, Model: r.Model, Tier: r.Tier, Code: RejectUnknownModel, At: now,
		})
		o.Inc("serve.reject.unknown_model")
		return
	}
	st := rt.states[mi]
	st.admit.requests++
	if o != nil {
		o.Inc("serve.requests")
	}
	if rej := st.admit.offer(*r, now); rej != nil {
		rt.rep.Rejections = append(rt.rep.Rejections, *rej)
		if o != nil {
			o.Inc("serve.reject." + rej.Code.String())
		}
		return
	}
	if o != nil {
		o.Set("serve.queue."+r.Model, float64(st.admit.depth))
	}
	closed, deadline := st.batch.add(*r)
	if closed != nil {
		rt.dispatch(s, mi, closed)
		return
	}
	if deadline {
		epoch := st.batch.epoch
		s.At(float64(now+st.batch.cfg.MaxDelay), func(s *des.Sim) {
			if b := st.batch.expire(epoch); b != nil {
				rt.dispatch(s, mi, b)
			}
		})
	}
}

// dispatch queues a closed batch for its model's replicas.
func (rt *router) dispatch(s *des.Sim, mi int, batch []Request) {
	st := rt.states[mi]
	st.replicas.waiting = append(st.replicas.waiting, batch)
	rt.drain(s, mi)
}

// drain starts waiting batches on free replicas, in FIFO order.
func (rt *router) drain(s *des.Sim, mi int) {
	st := rt.states[mi]
	now := units.Seconds(s.Now())
	for st.replicas.backlog() > 0 {
		r := st.replicas.free(now)
		if r < 0 {
			return
		}
		rt.start(s, mi, r, st.replicas.next())
	}
}

// start services a batch on a replica: releases the admission ledger,
// runs the real inference kernel, and schedules completion at the
// roofline-priced service time (inflated while links are degraded).
func (rt *router) start(s *des.Sim, mi, replica int, batch []Request) {
	st := rt.states[mi]
	o := rt.o
	now := units.Seconds(s.Now())
	st.admit.release(len(batch))
	if o != nil {
		o.Set("serve.queue."+st.m.Name(), float64(st.admit.depth))
	}
	rows := rt.rows[:0]
	for i := range batch {
		rows = append(rows, batch[i].Features)
	}
	rt.rows = rows
	n := len(batch)
	out := rt.outs[:n:n]
	rt.outs = rt.outs[n:]
	st.m.PredictBatch(rt.pool, rt.workers, rows, out)
	svc := rt.pricer.ServiceTime(st.m, n) / units.Seconds(rt.linkAt(now))
	done := now + svc
	st.replicas.busyUntil[replica] = done
	st.replicas.started++
	st.batchSizes = append(st.batchSizes, n)
	// The obs layer is nil-safe, but its labels are built at the call
	// site; guarding keeps the unobserved hot path allocation-free.
	if o != nil {
		o.Observe("serve.batch.size", float64(n))
		o.Span("serve/"+st.m.Name(), "serve", fmt.Sprintf("batch/%d", n), now, svc,
			obs.Num("rows", float64(n)), obs.Num("replica", float64(replica)))
	}
	s.At(float64(done), func(s *des.Sim) { rt.complete(s, mi, replica, batch, out) })
}

// complete records a finished batch's responses and refills the model's
// free replicas from its backlog.
func (rt *router) complete(s *des.Sim, mi, replica int, batch []Request, out []float64) {
	st := rt.states[mi]
	o := rt.o
	done := units.Seconds(s.Now())
	rtt := rt.pricer.RTT / units.Seconds(rt.linkAt(done))
	for i := range batch {
		rq := &batch[i]
		resp := Response{
			ID: rq.ID, Model: rq.Model, Tier: rq.Tier, Value: out[i],
			Arrival: rq.Arrival, Done: done + rtt,
			BatchSize: len(batch), Replica: replica,
		}
		rt.rep.Responses = append(rt.rep.Responses, resp)
		rt.rep.Checksum += resp.Value
		lat := float64(resp.Latency())
		st.latencies = append(st.latencies, lat)
		st.served++
		if o != nil {
			o.Observe("serve.latency_ms."+rq.Tier.String(), lat*1e3)
			o.Span("serve/"+rq.Model+"/req", "serve", rq.Tier.String(), rq.Arrival, resp.Done-rq.Arrival,
				obs.Num("id", float64(rq.ID)), obs.Num("batch", float64(len(batch))))
		}
	}
	rt.drain(s, mi)
}

// loseReplica is a chaos replica loss: it hits the model with the most
// live replicas, ties to the lowest model index.
func (rt *router) loseReplica(s *des.Sim) {
	best, most := -1, -1
	for i, st := range rt.states {
		if a := st.replicas.alive(); a > most && a > 0 {
			best, most = i, a
		}
	}
	if best >= 0 {
		st := rt.states[best]
		st.replicas.fail()
		rt.o.Inc("serve.replica.lost")
		rt.o.Set("serve.replicas."+st.m.Name(), float64(st.replicas.alive()))
	}
}

// repairReplica returns capacity to the model with the fewest live
// replicas among those with one lost, ties to the lowest model index.
func (rt *router) repairReplica(s *des.Sim) {
	best, fewest := -1, 0
	for i, st := range rt.states {
		if st.replicas.lostCount > 0 && st.replicas.anyLost() && (best < 0 || st.replicas.alive() < fewest) {
			best, fewest = i, st.replicas.alive()
		}
	}
	if best >= 0 {
		st := rt.states[best]
		st.replicas.repair()
		rt.o.Inc("serve.replica.repaired")
		rt.o.Set("serve.replicas."+st.m.Name(), float64(st.replicas.alive()))
		rt.drain(s, best)
	}
}

// finish folds per-model state into the report's summary fields.
func finish(rep *Report, states []*modelState, pricer Pricer, bc BatchConfig) {
	var interactive, bulk []float64
	for _, r := range rep.Responses {
		lat := float64(r.Latency())
		if r.Tier == Interactive {
			interactive = append(interactive, lat)
		} else {
			bulk = append(bulk, lat)
		}
	}
	sort.Float64s(interactive)
	sort.Float64s(bulk)
	rep.InteractiveP50 = units.Seconds(quantile(interactive, 0.50))
	rep.InteractiveP99 = units.Seconds(quantile(interactive, 0.99))
	rep.BulkP50 = units.Seconds(quantile(bulk, 0.50))
	rep.BulkP99 = units.Seconds(quantile(bulk, 0.99))

	totalBatches, totalBatched := 0, 0
	for _, st := range states {
		ms := ModelStats{
			Name:         st.m.Name(),
			Replicas:     len(st.replicas.busyUntil),
			ReplicasLost: st.replicas.lostCount,
			Requests:     st.admit.requests,
			Admitted:     st.admit.admitted,
			Shed:         st.admit.shed,
			Full:         st.admit.full,
			Served:       st.served,
			Unserved:     st.admit.admitted - st.served,
			Batches:      len(st.batchSizes),
			PeakQueue:    st.admit.peakDepth,
			Amortization: pricer.Amortization(st.m, bc.MaxBatch),
		}
		maxB := 0
		for _, b := range st.batchSizes {
			totalBatched += b
			if b > maxB {
				maxB = b
			}
		}
		ms.MaxBatch = maxB
		if len(st.batchSizes) > 0 {
			sum := 0
			for _, b := range st.batchSizes {
				sum += b
			}
			ms.MeanBatch = float64(sum) / float64(len(st.batchSizes))
		}
		totalBatches += len(st.batchSizes)
		sort.Float64s(st.latencies)
		ms.P50 = units.Seconds(quantile(st.latencies, 0.50))
		ms.P99 = units.Seconds(quantile(st.latencies, 0.99))
		if n := len(st.latencies); n > 0 {
			ms.Max = units.Seconds(st.latencies[n-1])
		}
		meanB := ms.MeanBatch
		if meanB < 1 {
			meanB = 1
		}
		ms.AnalyticP50 = bc.MaxDelay/2 + pricer.ServiceTime(st.m, int(meanB+0.5)) + pricer.RTT
		analyticMax := maxB
		if analyticMax < 1 {
			analyticMax = 1
		}
		ms.AnalyticP99 = bc.MaxDelay + pricer.ServiceTime(st.m, analyticMax) + pricer.RTT
		rep.Models = append(rep.Models, ms)
		rep.Served += ms.Served
		rep.Unserved += ms.Unserved
	}
	sort.Slice(rep.Models, func(i, j int) bool { return rep.Models[i].Name < rep.Models[j].Name })
	rep.Rejected = len(rep.Rejections)
	if totalBatches > 0 {
		rep.MeanBatch = float64(totalBatched) / float64(totalBatches)
	}
	if rep.Horizon > 0 {
		rep.Throughput = float64(rep.Served) / float64(rep.Horizon)
	}
}

// Render formats the report as the deterministic text block pinned by the
// serving golden and compared byte-for-byte by the CI serve-smoke gate.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving %s: %d replicas/model, %d requests over %.0fs\n",
		r.Platform, r.Replicas, r.Requests, float64(r.Horizon))
	fmt.Fprintf(&b, "  served %d  rejected %d  unserved %d  throughput %.2f req/s  mean batch %.2f\n",
		r.Served, r.Rejected, r.Unserved, r.Throughput, r.MeanBatch)
	fmt.Fprintf(&b, "  interactive p50 %.1fms p99 %.1fms | bulk p50 %.1fms p99 %.1fms\n",
		1e3*float64(r.InteractiveP50), 1e3*float64(r.InteractiveP99),
		1e3*float64(r.BulkP50), 1e3*float64(r.BulkP99))
	fmt.Fprintf(&b, "  checksum %.6e\n", r.Checksum)
	for _, m := range r.Models {
		fmt.Fprintf(&b, "  model %-8s req %6d adm %6d shed %5d full %5d served %6d batches %5d mean %.2f max %d peakq %d\n",
			m.Name, m.Requests, m.Admitted, m.Shed, m.Full, m.Served, m.Batches, m.MeanBatch, m.MaxBatch, m.PeakQueue)
		fmt.Fprintf(&b, "    p50 %.1fms p99 %.1fms max %.1fms | analytic p50 %.1fms p99 %.1fms amortization %.1fx\n",
			1e3*float64(m.P50), 1e3*float64(m.P99), 1e3*float64(m.Max),
			1e3*float64(m.AnalyticP50), 1e3*float64(m.AnalyticP99), m.Amortization)
	}
	return b.String()
}
