package exec

import (
	"errors"

	"repro/internal/obs"
)

// Process-wide executor series on obs.Default. Everything here sits outside
// the engine's map/reduce hot loops: runs, compile outcomes and pairs are
// counted once per Run, verify latency once per audit, violations and slow
// replays only when an audit finds something.
var (
	obsRunsVec = obs.Default.CounterVec("pland_exec_runs_total",
		"Schema-driven executions, by outcome (ok, error, audit_failed).", "outcome")
	obsRunsOK          = obsRunsVec.With("ok")
	obsRunsError       = obsRunsVec.With("error")
	obsRunsAuditFailed = obsRunsVec.With("audit_failed")

	obsPairs = obs.Default.Counter("pland_exec_pairs_total",
		"Required pairs processed by reducers, summed over runs.")

	obsVerifySeconds = obs.Default.Histogram("pland_exec_verify_seconds",
		"Latency of the post-run conformance audit.", obs.LatencyBuckets)

	obsViolations = obs.Default.CounterVec("pland_exec_audit_violations_total",
		"Conformance violations found by audits, by class.", "class")

	obsSlowReplays = obs.Default.Counter("pland_exec_audit_slow_replays_total",
		"Post-run audits whose trace was not exactly what the schema prescribes and was replayed pair by pair; healthy runs never add to it.")

	obsSpillRuns = obs.Default.Counter("pland_exec_spill_runs_total",
		"Sorted runs spilled by memory-budgeted executions.")
	obsSpillBytes = obs.Default.Counter("pland_exec_spill_bytes_total",
		"Bytes written to spill files by memory-budgeted executions.")
	obsSpillPartitions = obs.Default.Counter("pland_exec_spill_partitions_total",
		"Reduce partitions that spilled at least once, summed over runs.")

	obsCompileVec = obs.Default.CounterVec("pland_exec_compile_total",
		"Schema compilations, by outcome: hit (served from a compile cache after verification), miss (compiled, and retained from the second sight on), uncacheable (compiled without a cache, over its byte bound, or failing the static check).", "outcome")
	obsCompileHit         = obsCompileVec.With("hit")
	obsCompileMiss        = obsCompileVec.With("miss")
	obsCompileUncacheable = obsCompileVec.With("uncacheable")

	obsCompileCacheBytes = obs.Default.Gauge("pland_exec_compile_cache_bytes",
		"Estimated bytes of compiled schema indexes retained by compile caches.")

	obsPipelineDepth = obs.Default.Gauge("pland_exec_pipeline_depth",
		"Streaming execution pipelines currently running.")
)

// violationClass maps a violation's sentinel to its bounded metric label.
func violationClass(v Violation) string {
	switch {
	case errors.Is(v.Err, ErrOverCapacity):
		return "over_capacity"
	case errors.Is(v.Err, ErrUncoveredPair):
		return "uncovered_pair"
	case errors.Is(v.Err, ErrDuplicatePair):
		return "duplicate_pair"
	case errors.Is(v.Err, ErrWrongOwner):
		return "wrong_owner"
	case errors.Is(v.Err, ErrLoadMismatch):
		return "load_mismatch"
	default:
		return "other"
	}
}

// countViolations feeds an audit failure's violations into the class counter.
func countViolations(err error) {
	var ae *AuditError
	if !errors.As(err, &ae) {
		return
	}
	for _, v := range ae.Violations {
		obsViolations.With(violationClass(v)).Inc()
	}
}
