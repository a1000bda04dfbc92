package main

// The benchmark's fixed vocabulary: workload names, metric names with their
// units, and the committed op counts. BENCHMARK.json repeats the names; the
// smoke test asserts the two agree.

// Workload names, in report order.
const (
	wlPlanCold  = "plan_cold"
	wlExecJoin  = "exec_join"
	wlExecSpill = "exec_spill"
	wlSvcMixed  = "svc_mixed"
)

var workloadNames = []string{wlPlanCold, wlExecJoin, wlExecSpill, wlSvcMixed}

// metricSpec names one metric, its unit and which direction is better.
type metricSpec struct {
	name, unit, better string
}

// endToEnd lists the six end-to-end metrics every workload reports from the
// untraced run.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"replication_rate", "ratio", "lower"},
	{"reducers_over_lb", "ratio", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the metrics of the traced run, grouped by the module they
// describe. A layer that is not on a workload's path reports 0 there.
var perLayer = []metricSpec{
	{"core.validate_ms", "ms", "lower"},
	{"core.fingerprint_ms", "ms", "lower"},
	{"binpack.pack_ms", "ms", "lower"},
	{"a2a.solve_ms", "ms", "lower"},
	{"x2y.solve_ms", "ms", "lower"},
	{"planner.plan_ms", "ms", "lower"},
	{"planner.canonicalize_self_ms", "ms", "lower"},
	{"planner.cache_self_ms", "ms", "lower"},
	{"planner.race_self_ms", "ms", "lower"},
	{"planner.race_useful_ratio", "ratio", "higher"},
	{"planner.cache_hit_ratio", "ratio", "higher"},
	{"assign.facade_overhead_us", "us", "lower"},
	{"exec.compile_ms", "ms", "lower"},
	{"exec.audit_ms", "ms", "lower"},
	{"exec.audit_overhead_ratio", "ratio", "lower"},
	{"exec.pairs_per_s", "1/s", "higher"},
	{"mr.map_ms", "ms", "lower"},
	{"mr.reduce_ms", "ms", "lower"},
	{"mr.spill_ms", "ms", "lower"},
	{"mr.shuffle_records", "count", "lower"},
	{"mr.shuffle_bytes", "bytes", "lower"},
	{"mr.spill_runs", "count", "lower"},
	{"mr.spill_bytes", "bytes", "lower"},
	{"mr.spilled_share", "ratio", "lower"},
	{"mr.partition_skew", "ratio", "lower"},
	{"stream.delta_us", "us", "lower"},
	{"stream.moved_bytes_per_delta", "bytes", "lower"},
	{"stream.rebuilds", "count", "lower"},
	{"stream.reducers_over_fresh", "ratio", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.appended_records", "count", "lower"},
	{"wal.appended_bytes", "bytes", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.fsync_ms", "ms", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"obs.span_us", "us", "lower"},
	{"obs.scrape_ms", "ms", "lower"},
	{"obs.trace_overhead_ratio", "ratio", "lower"},
	{"obs.self_time_coverage", "ratio", "higher"},
	{"pland.plan_hot_p50_ms", "ms", "lower"},
	{"pland.plan_cold_p50_ms", "ms", "lower"},
	{"pland.execute_p50_ms", "ms", "lower"},
	{"pland.session_patch_p50_ms", "ms", "lower"},
	{"pland.session_get_p50_ms", "ms", "lower"},
	{"pland.http_overhead_ms", "ms", "lower"},
	{"pland.boot_ms", "ms", "lower"},
	{"pland.recovered_sessions", "count", "higher"},
	{"process.cpu_ms_per_op", "ms", "lower"},
	{"process.alloc_mb_per_op", "MB", "lower"},
	{"process.allocs_per_op", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"process.peak_rss_mb", "MB", "lower"},
	{"host.calib_ms", "ms", "lower"},
}

// exactCounts are the per-layer counts that must be bit-identical across
// runs of one seed; the smoke test and the all-workload run assert it.
var exactCounts = []string{
	"mr.shuffle_records", "mr.shuffle_bytes",
	"wal.appended_records", "wal.appended_bytes",
	"stream.rebuilds", "stream.moved_bytes_per_delta",
}

const (
	// slices cuts every timed phase into equal-work pieces; ops_per_s is the
	// median over them, so one slow burst of the host moves one slice.
	slices = 20
	// blocks groups the slices when all workloads run in one invocation:
	// blocks are interleaved round-robin across the workloads.
	blocks = 4
	// setups is how many fresh set-ups a run times; setup_s is their median.
	setups = 3
)

// sizing is the fixed work of one run of one workload. The counts are
// committed constants sized on the 2-vCPU reference box, never calibrated at
// run time: a run does the same work on every host and only its duration
// varies.
type sizing struct {
	// opsPerSecond times -seconds is the timed op count (rounded down to a
	// whole number of ops per slice and client).
	opsPerSecond float64
	// warmOps is the warm-up each set-up runs before the first timed op,
	// summed over the clients.
	warmOps int
}

var sizings = map[string]sizing{
	wlPlanCold:  {opsPerSecond: 52, warmOps: 96},
	wlExecJoin:  {opsPerSecond: 7.5, warmOps: 10},
	wlExecSpill: {opsPerSecond: 7.5, warmOps: 12},
	wlSvcMixed:  {opsPerSecond: 350, warmOps: 600},
}

// shape is the op counts of one run: per client, the timed phase is slices
// x perSlice ops after a warm-up of warm ops per set-up. The traced run
// replays the first block of slices.
type shape struct {
	slices, perSlice, warm int
}

func (s shape) timed() int { return s.slices * s.perSlice }

// tracedSlices is how many slices the traced run replays: one block.
func (s shape) tracedSlices() int { return s.slices / blocks }

// traced is the op count per client of the traced run.
func (s shape) traced() int { return s.tracedSlices() * s.perSlice }

// shapeFor sizes a run. Smoke runs shrink to the smallest shape that still
// has one slice per block and, on svc_mixed, every op type.
func shapeFor(name string, seconds, clients int, smoke bool) shape {
	if smoke {
		if name == wlSvcMixed {
			return shape{slices: blocks, perSlice: 20, warm: 20}
		}
		return shape{slices: blocks, perSlice: 1, warm: 2}
	}
	sz := sizings[name]
	sh := shape{slices: slices, warm: sz.warmOps / clients}
	sh.perSlice = int(sz.opsPerSecond*float64(seconds)) / (slices * clients)
	if sh.perSlice < 1 {
		sh.perSlice = 1
	}
	return sh
}
