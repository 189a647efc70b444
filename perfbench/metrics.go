package main

// endMetric is an end-to-end metric: every workload reports every one, so
// the names are workload-neutral. alias gives the name a workload's
// metric goes by where one op or one item has a name of its own.
type endMetric struct {
	name, unit, better string
	bound              float64 // share of the parent's median it may worsen by
	alias              map[string]string
}

var endToEnd = []endMetric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "cpu_per_op_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_s", unit: "s", better: "lower", bound: 0.25,
		alias: map[string]string{"repro": "repro_s"}},
	{name: "items_per_s", unit: "1/s", better: "higher", bound: 0.25,
		alias: map[string]string{
			"repro":   "reports per second",
			"train":   "train_samples_per_s",
			"serve":   "serve_req_per_s",
			"recover": "recover_steps_per_s",
		}},
}

// layerMetric is a per-layer metric from the traced run. workload is the
// workload that exercises the layer (the others report 0 for it); moves
// names the end-to-end metrics, as metric@workload, that a change in the
// layer should move.
type layerMetric struct {
	name, unit, better, workload, moves string
}

var perLayer = []layerMetric{
	// core: a cold serial Experiment.Run per row, outside the timed ops.
	{"core.exp.S6_s", "s", "lower", "repro", "op_s@repro, items_per_s@serve"},
	{"core.exp.RS5_s", "s", "lower", "repro", "op_s@repro, items_per_s@recover"},
	{"core.exp.RS3_s", "s", "lower", "repro", "op_s@repro"},
	{"core.exp.RS1_s", "s", "lower", "repro", "op_s@repro"},
	{"core.exp.B1_s", "s", "lower", "repro", "op_s@repro"},
	{"core.exp.V1_s", "s", "lower", "repro", "op_s@repro"},
	{"core.exp.W1_s", "s", "lower", "repro", "op_s@repro"},
	{"core.exp.W3_s", "s", "lower", "repro", "op_s@repro"},
	{"core.exp.rest_s", "s", "lower", "repro", "op_s@repro"},
	{"core.serial_sum_s", "s", "lower", "repro", "op_s@repro"},
	{"core.parallel_eff", "ratio", "higher", "repro", "op_s@repro"},
	{"core.cache_entries", "count", "lower", "repro", "op_s@repro, peak_rss_mb@repro"},
	{"core.allocs_per_report", "count", "lower", "repro", "op_s@repro, peak_rss_mb@repro"},

	// data/nn/autograd/mp/optim/ddl: rank 0's calls inside one epoch.
	// train is traced but not timed (see layersOnly); recover runs the
	// same nn, autograd, optim and mp code and shows these layers end to
	// end.
	{"data.batch_ms", "ms", "lower", "train", "items_per_s@train"},
	{"nn.forward_ms", "ms", "lower", "train", "items_per_s@train, items_per_s@recover"},
	{"autograd.backward_ms", "ms", "lower", "train", "items_per_s@train, items_per_s@recover"},
	{"mp.allreduce_ms", "ms", "lower", "train", "items_per_s@train, items_per_s@recover"},
	{"optim.step_ms", "ms", "lower", "train", "items_per_s@train, items_per_s@recover"},
	{"ddl.step_p50_ms", "ms", "lower", "train", "items_per_s@train"},
	{"ddl.step_p99_ms", "ms", "lower", "train", "items_per_s@train"},
	{"mp.bytes_per_step", "bytes", "lower", "train", "items_per_s@train, items_per_s@recover"},
	{"mp.msgs_per_step", "count", "lower", "train", "items_per_s@train, items_per_s@recover"},
	{"ddl.allocs_per_step", "count", "lower", "train", "items_per_s@train, cpu_per_op_s@train"},

	// serve: the router's runs, with the models wrapped to time inference.
	{"serve.generate_s", "s", "lower", "serve", "setup_s@serve"},
	{"serve.run_s", "s", "lower", "serve", "items_per_s@serve, op_s@repro"},
	{"serve.predict_s", "s", "lower", "serve", "items_per_s@serve, op_s@repro"},
	{"serve.router_self_s", "s", "lower", "serve", "items_per_s@serve, op_s@repro"},
	{"serve.mean_batch", "rows", "higher", "serve", "items_per_s@serve"},
	{"serve.admit_ratio.batched", "ratio", "higher", "serve", "items_per_s@serve"},
	{"serve.admit_ratio.unbatched", "ratio", "higher", "serve", "items_per_s@serve"},
	{"serve.admit_ratio.storm", "ratio", "higher", "serve", "items_per_s@serve"},
	{"serve.allocs_per_req", "count", "lower", "serve", "items_per_s@serve, peak_rss_mb@serve"},

	// checkpoint/ddl guarded: the store calls replayed on the workload's
	// model and tiers, and the guarded run's own accounting.
	{"checkpoint.save_ms", "ms", "lower", "recover", "items_per_s@recover"},
	{"checkpoint.drain_ms", "ms", "lower", "recover", "items_per_s@recover"},
	{"checkpoint.restore_ms", "ms", "lower", "recover", "items_per_s@recover"},
	{"checkpoint.bytes_per_version", "bytes", "lower", "recover", "items_per_s@recover"},
	{"ddl.guarded.forward_ms", "ms", "lower", "recover", "items_per_s@recover"},
	{"ddl.guarded.useful_ratio", "ratio", "higher", "recover", "items_per_s@recover"},
	{"ddl.guarded.rollbacks", "count", "lower", "recover", "items_per_s@recover"},
	{"ddl.guarded.detections", "count", "higher", "recover", "items_per_s@recover"},

	// Tracing overhead: traced ops against the untraced ops of the same
	// run (ratios; 1 is no overhead), and the traced run's peak RSS to set
	// against peak_rss_mb of an untraced run.
	{"trace.overhead.setup_s", "ratio", "lower", "all", "none: tracing cost"},
	{"trace.overhead.op_s", "ratio", "lower", "all", "none: tracing cost"},
	{"trace.overhead.cpu_per_op_s", "ratio", "lower", "all", "none: tracing cost"},
	{"trace.overhead.items_per_s", "ratio", "higher", "all", "none: tracing cost"},
	{"trace.peak_rss_mb", "MB", "lower", "all", "none: tracing cost"},
}
