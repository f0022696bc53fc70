package main

// target names one (metric, workload) cell a per-layer metric is expected to
// move: an end-to-end metric, or one of the ungated latency rows. The table
// is written down before anything is measured: a later change to one layer
// is judged against it.
type target struct{ metric, workload string }

// metricDef declares one reported metric. BENCHMARK.json repeats name, unit
// and direction (the driver reads it, not this file); benchmark_test.go
// keeps the two in step.
type metricDef struct {
	// name of a per-layer metric starts with its layer, the module name,
	// up to the first dot.
	name, unit, better string
	// moves is the interaction table of README.md: where a gain in this
	// layer row should show end to end. Empty for validity and control rows.
	moves []target
}

// endToEndDefs are the metrics a user of the broker sees, measured with tracing
// off and reported per workload; each has a regression bound in
// BENCHMARK.json. The issue's list had six more — the five latency statistics
// of the paced phases and failed_ops_ratio — and CPU per message as user+sys.
// The latencies and the system share of the CPU could not hold the driver's
// steadiness rule on the shared 2-core sandbox (the spread between ten runs
// must stay within a bound of at most 25 %; README.md has the spreads
// measured), and failed_ops_ratio is 0 where the driver wants metrics that
// are never 0, so they are reported as per-layer rows without a gate.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "capacity_msgs_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_user_us_per_msg", unit: "us", better: "lower"},
	{name: "allocs_per_msg", unit: "count", better: "lower"},
	{name: "alloc_bytes_per_msg", unit: "B", better: "lower"},
	{name: "heap_live_mb", unit: "MB", better: "lower"},
}

func on(workload string, metrics ...string) []target {
	ts := make([]target, len(metrics))
	for i, m := range metrics {
		ts[i] = target{metric: m, workload: workload}
	}
	return ts
}

func everywhere(metric string) []target {
	ts := make([]target, len(workloads))
	for i := range workloads {
		ts[i] = target{metric: metric, workload: workloads[i].name}
	}
	return ts
}

func join(ts ...[]target) []target {
	var out []target
	for _, t := range ts {
		out = append(out, t...)
	}
	return out
}

// perLayerDefs are the single-layer metrics of the traced run: layer replay
// (single-goroutine calls into a layer's public functions), live counters
// (deltas of public snapshots over a saturated phase) and the flight
// recorder's stage decomposition.
var perLayerDefs = func() []metricDef {
	ingress := on("wire_small", "capacity_msgs_per_s", "allocs_per_msg")
	egress := on("fanout_large", "capacity_msgs_per_s", "latency.hi_p50_us")
	scan := on("filter_scan", "capacity_msgs_per_s")
	mesh := on("mesh_ssr", "capacity_msgs_per_s", "latency.hi_p50_us")
	setup := join(on("fanout_large", "setup_s", "heap_live_mb"), on("filter_scan", "setup_s"))
	return []metricDef{
		{name: "wire.frame_read_ns", unit: "ns", better: "lower", moves: ingress},
		{name: "wire.view_parse_ns", unit: "ns", better: "lower", moves: ingress},
		{name: "wire.batch_decode_ns_per_msg", unit: "ns", better: "lower", moves: ingress},
		{name: "wire.batch_decode_allocs_per_msg", unit: "count", better: "lower", moves: ingress},
		{name: "wire.batch_encode_ns_per_msg", unit: "ns", better: "lower", moves: ingress},
		{name: "wire.frames_per_read", unit: "ratio", better: "higher", moves: ingress},
		{name: "wire.delivery_encode_ns", unit: "ns", better: "lower", moves: egress},
		{name: "wire.delivery_decode_ns", unit: "ns", better: "lower", moves: egress},
		{name: "wire.frames_per_write", unit: "ratio", better: "higher", moves: egress},
		{name: "wire.write_ns_per_frame", unit: "ns", better: "lower", moves: egress},
		{name: "wire.bytes_out_per_msg", unit: "B", better: "lower", moves: egress},
		{name: "wire.forward_encode_ns", unit: "ns", better: "lower", moves: on("mesh_ssr", "capacity_msgs_per_s")},

		{name: "jms.shared_ns", unit: "ns", better: "lower", moves: on("fanout_large", "capacity_msgs_per_s", "alloc_bytes_per_msg")},

		{name: "selector.eval_ns", unit: "ns", better: "lower", moves: scan},
		{name: "selector.parse_us", unit: "us", better: "lower", moves: on("filter_scan", "setup_s")},

		{name: "filter.corrid_range_match_ns", unit: "ns", better: "lower", moves: on("filter_scan", "capacity_msgs_per_s", "latency.hi_p99_us")},
		{name: "filter.property_match_ns", unit: "ns", better: "lower", moves: on("filter_scan", "capacity_msgs_per_s", "latency.hi_p99_us")},

		{name: "topic.match_ns", unit: "ns", better: "lower", moves: join(scan, on("fanout_large", "capacity_msgs_per_s"))},
		{name: "topic.match_evals_per_msg", unit: "count", better: "lower", moves: join(scan, on("fanout_large", "capacity_msgs_per_s"))},
		{name: "topic.subscribe_us", unit: "us", better: "lower", moves: setup},
		{name: "topic.index_rebuild_us", unit: "us", better: "lower", moves: setup},
		{name: "topic.bytes_per_sub", unit: "B", better: "lower", moves: on("fanout_large", "heap_live_mb")},

		{name: "broker.publish_ns", unit: "ns", better: "lower", moves: join(on("wire_small", "capacity_msgs_per_s"), scan)},
		{name: "broker.publish_batch_ns_per_msg", unit: "ns", better: "lower", moves: join(on("wire_small", "capacity_msgs_per_s"), scan)},
		{name: "broker.publish_allocs_per_msg", unit: "count", better: "lower", moves: on("wire_small", "allocs_per_msg")},
		{name: "broker.filter_evals_per_msg", unit: "count", better: "lower"},
		{name: "broker.replication_grade", unit: "count", better: "higher"},
		{name: "broker.dropped", unit: "count", better: "lower"},

		{name: "client.publish_rtt_us", unit: "us", better: "lower", moves: everywhere("latency.lo_p50_us")},
		{name: "client.publish_batch_rtt_us", unit: "us", better: "lower", moves: on("wire_small", "capacity_msgs_per_s")},
		{name: "client.dial_us", unit: "us", better: "lower", moves: everywhere("setup_s")},
		{name: "client.subscribe_us", unit: "us", better: "lower", moves: setup},

		{name: "cluster.forward_us", unit: "us", better: "lower", moves: mesh},
		{name: "cluster.forward_batch_us_per_msg", unit: "us", better: "lower", moves: mesh},
		{name: "cluster.forwarded_out_per_msg", unit: "count", better: "lower"},
		{name: "cluster.forward_errors", unit: "count", better: "lower"},
		{name: "cluster.reconnects", unit: "count", better: "lower"},
		{name: "cluster.ring_owner_ns", unit: "ns", better: "lower"},

		{name: "trace.decode_us", unit: "us", better: "lower", moves: on("wire_small", "capacity_msgs_per_s")},
		{name: "trace.queue_us", unit: "us", better: "lower", moves: everywhere("latency.hi_p99_us")},
		{name: "trace.match_us", unit: "us", better: "lower", moves: scan},
		{name: "trace.replicate_us", unit: "us", better: "lower", moves: egress},
		{name: "trace.transmit_us", unit: "us", better: "lower", moves: egress},
		{name: "trace.encode_us", unit: "us", better: "lower", moves: egress},
		{name: "trace.egress_queue_us", unit: "us", better: "lower", moves: egress},
		{name: "trace.egress_write_us", unit: "us", better: "lower", moves: egress},
		{name: "trace.sojourn_us", unit: "us", better: "lower", moves: everywhere("latency.hi_mean_us")},
		{name: "trace.coverage_ratio", unit: "ratio", better: "higher"},
		{name: "trace.overhead_pct", unit: "pct", better: "lower", moves: everywhere("latency.hi_p50_us")},
		{name: "trace.cpu_overhead_pct", unit: "pct", better: "lower", moves: everywhere("cpu_user_us_per_msg")},

		{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: everywhere("latency.hi_p99_us")},
		{name: "runtime.gc_pause_total_ms", unit: "ms", better: "lower", moves: everywhere("latency.hi_p99_us")},
		{name: "runtime.sched_latency_p99_us", unit: "us", better: "lower", moves: everywhere("latency.hi_p99_us")},
		{name: "runtime.cpu_sys_us_per_msg", unit: "us", better: "lower"},

		{name: "loadgen.pacer_lag_p99_us", unit: "us", better: "lower"},
		{name: "loadgen.achieved_rate_ratio", unit: "ratio", better: "higher"},
		{name: "loadgen.outstanding_peak", unit: "count", better: "lower"},
		{name: "loadgen.paced_valid", unit: "count", better: "higher"},

		// The whole path, socket to socket, at the two frozen offered rates:
		// delivery at the last of the R copies minus the due time. hi_mean
		// is the paper's E[W]+E[B].
		{name: "latency.lo_p50_us", unit: "us", better: "lower"},
		{name: "latency.lo_p99_us", unit: "us", better: "lower"},
		{name: "latency.hi_p50_us", unit: "us", better: "lower"},
		{name: "latency.hi_p99_us", unit: "us", better: "lower"},
		{name: "latency.hi_mean_us", unit: "us", better: "lower"},

		{name: "budget.layer_sum_us_per_msg", unit: "us", better: "lower", moves: everywhere("capacity_msgs_per_s")},
		{name: "budget.residual_pct", unit: "pct", better: "lower"},

		{name: "failed_ops_ratio", unit: "ratio", better: "lower"},
	}
}()

// sample is one reported value. n is the number of observations behind it
// (latency samples, repetitions, messages), stated because a percentile
// means nothing without it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// results maps metric name to its sample for one workload.
type results map[string]sample

// put stores a value under a declared metric, taking the unit from the
// declaration so the tables above stay the single source.
func (r results) put(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.name == name {
			r[name] = sample{Value: v, Unit: d.unit, N: n}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}
