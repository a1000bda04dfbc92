package planner

import "repro/internal/obs"

// Process-wide planner series on obs.Default. The per-outcome children are
// resolved once here so the Plan hot path touches only atomics — no vec map
// lookup, no lock. A process with several Planner instances (tests) sums them
// into one series; cmd/pland runs exactly one.
var (
	obsRequestsVec = obs.Default.CounterVec("pland_planner_requests_total",
		"Plan requests by outcome: hit (cache), miss (fresh solve), shared (single-flight wait), error.",
		"outcome")
	obsReqHit    = obsRequestsVec.With("hit")
	obsReqMiss   = obsRequestsVec.With("miss")
	obsReqShared = obsRequestsVec.With("shared")
	obsReqError  = obsRequestsVec.With("error")

	obsSolverWins = obs.Default.CounterVec("pland_planner_solver_wins_total",
		"Fresh solves won, by portfolio member.", "solver")

	obsPlanSeconds = obs.Default.Histogram("pland_planner_plan_seconds",
		"Wall-clock latency of Plan calls, all outcomes.", obs.LatencyBuckets)
	obsRaceSeconds = obs.Default.Histogram("pland_planner_race_seconds",
		"Wall-clock latency of fresh portfolio passes (cache misses only).", obs.LatencyBuckets)

	obsCacheEntries = obs.Default.Gauge("pland_planner_cache_entries",
		"Canonical plans currently cached.")
	obsCacheEvictions = obs.Default.Counter("pland_planner_cache_evictions_total",
		"Cache entries evicted by the LRU size or weight bound.")
)
