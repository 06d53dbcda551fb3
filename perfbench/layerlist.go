package main

// layerMetric declares one per-layer metric; the list must match
// BENCHMARK.json's per_layer entries (a test checks it).
type layerMetric struct {
	name, unit, better string
}

// perLayer lists every per-layer metric a traced run reports, grouped by
// layer. README.md maps each to the end-to-end metric it should move.
var perLayer = []layerMetric{
	// cmd/lmtd and the load generator
	{"loadgen.late_ms", "ms", "lower"},
	{"lmtd.roundtrip_hit_us", "us", "lower"},
	{"lmtd.http_overhead_us", "us", "lower"},
	{"lmtd.roundtrip_miss_ms", "ms", "lower"},
	{"lmtd.response_bytes", "bytes", "lower"},
	// internal/spec, internal/service
	{"spec.key_us", "us", "lower"},
	{"service.run_hit_us", "us", "lower"},
	{"service.result_hit_ratio", "ratio", "higher"},
	{"service.run_miss_ms", "ms", "lower"},
	{"service.result_evictions_per_1k", "count", "lower"},
	{"service.graph_miss_ratio", "ratio", "lower"},
	{"service.singleflight_shared", "count", "higher"},
	{"service.in_flight_peak", "count", "lower"},
	{"service.overhead_us", "us", "lower"},
	{"service.pool_hit_ratio", "ratio", "higher"},
	// internal/graph, internal/gen
	{"graph.build_ms", "ms", "lower"},
	{"graph.resident_mb", "MiB", "lower"},
	// internal/walkkernel, internal/exact
	{"walkkernel.build_ms", "ms", "lower"},
	{"exact.oracle_ms.mixing", "ms", "lower"},
	{"exact.oracle_ms.local", "ms", "lower"},
	{"walkkernel.vertex_steps_per_s", "1/s", "higher"},
	// internal/core, internal/congest, internal/sweep, internal/spread
	{"core.local_ms", "ms", "lower"},
	{"core.mixing_ms", "ms", "lower"},
	{"core.walk_ms", "ms", "lower"},
	{"core.estimate_ms", "ms", "lower"},
	{"congest.rounds_per_s", "1/s", "higher"},
	{"congest.msgs_per_s", "1/s", "higher"},
	{"congest.ns_per_active_step", "ns", "lower"},
	{"congest.sleep_skip_ratio", "ratio", "higher"},
	{"congest.grows_per_job", "count", "lower"},
	{"congest.rounds_per_job", "count", "lower"},
	{"congest.msgs_per_job", "count", "lower"},
	{"congest.workers1_speedup", "ratio", "lower"},
	{"sweep.pool_build_ms", "ms", "lower"},
	{"sweep.sources_per_s", "1/s", "higher"},
	{"spread.ms", "ms", "lower"},
	{"runtime.gc_per_job", "count", "lower"},
	{"runtime.alloc_kb_per_job", "KiB", "lower"},
	// internal/cluster, internal/congest/frame
	{"cluster.round_us", "us", "lower"},
	{"cluster.transport_us_per_round", "us", "lower"},
	{"cluster.wait_share", "ratio", "lower"},
	{"cluster.rounds_per_job", "count", "lower"},
	{"cluster.syncs_per_round", "count", "lower"},
	{"cluster.wire_bytes_per_round", "bytes", "lower"},
	{"cluster.frames_per_round", "count", "lower"},
	{"cluster.sweep_chunks_per_job", "count", "lower"},
	{"cluster.peer_resident_mb", "MiB", "lower"},
	{"cluster.register_ms", "ms", "lower"},
	{"frame.encode_mb_per_s", "MB/s", "higher"},
	{"frame.decode_mb_per_s", "MB/s", "higher"},
}
