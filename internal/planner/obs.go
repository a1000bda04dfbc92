package planner

import (
	"io"

	"repro/internal/obs"
)

// members names every portfolio member: the solver label values of
// pland_planner_solver_wins_total.
var members = []string{"a2a/solve", "a2a/greedy", "a2a/exact", "x2y/solve", "x2y/greedy", "x2y/exact"}

// register creates the planner's series on its own registry, the only place
// it counts: each Plan call that returns increments exactly one outcome
// counter, and Stats reads them back. The outcome and member children are
// resolved here, so the Plan hot path touches only atomics.
func (p *Planner) register() (cacheEntries *obs.Gauge, cacheEvictions *obs.Counter) {
	p.reg = obs.NewRegistry()
	requests := p.reg.CounterVec("pland_planner_requests_total",
		"Plan requests by outcome: hit (cache), miss (fresh solve), shared (single-flight wait), error.",
		"outcome")
	p.hit, p.miss, p.shared, p.failed = requests.With("hit"), requests.With("miss"), requests.With("shared"), requests.With("error")
	p.wins = p.reg.CounterVec("pland_planner_solver_wins_total",
		"Fresh solves won, by portfolio member.", "solver")
	for _, m := range members {
		p.wins.With(m)
	}
	p.planSeconds = p.reg.Histogram("pland_planner_plan_seconds",
		"Wall-clock latency of Plan calls, all outcomes.", obs.LatencyBuckets)
	p.raceSeconds = p.reg.Histogram("pland_planner_race_seconds",
		"Wall-clock latency of fresh portfolio passes (cache misses only).", obs.LatencyBuckets)
	cacheEntries = p.reg.Gauge("pland_planner_cache_entries",
		"Canonical plans currently cached.")
	cacheEvictions = p.reg.Counter("pland_planner_cache_evictions_total",
		"Cache entries evicted by the LRU size or weight bound.")
	return cacheEntries, cacheEvictions
}

// WritePrometheus writes the planner's series in Prometheus text format.
func (p *Planner) WritePrometheus(w io.Writer) error { return p.reg.WritePrometheus(w) }
