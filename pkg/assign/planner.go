package assign

import (
	"time"

	"repro/internal/exec"
	"repro/internal/planner"
)

// Defaults of the planning budget and cache, re-exported for callers that
// size their own planners or budgets.
const (
	// DefaultTimeout is kept for compatibility; like Timeout, it does not
	// change the plan.
	DefaultTimeout = 2 * time.Second
	// DefaultCacheEntries is a planner's default cache capacity.
	DefaultCacheEntries = planner.DefaultCacheEntries
)

// PlannerConfig configures NewPlanner. The zero value uses the defaults.
type PlannerConfig struct {
	// CacheEntries is the canonical-plan cache capacity; 0 means
	// DefaultCacheEntries, negative disables caching entirely — of plans,
	// and of what Execute compiles from them.
	CacheEntries int
	// CacheShards spreads cache locking; 0 means a sensible default.
	CacheShards int
	// MaxCacheableInputs bounds the instance size the cache retains; larger
	// instances plan normally but bypass the cache. 0 means the default,
	// negative removes the bound.
	MaxCacheableInputs int
}

// Planner plans and executes instances against its own portfolio cache.
// Planners are safe for concurrent use. Most callers use the package-level
// Plan and Execute, which share one process-wide planner.
type Planner struct {
	p *planner.Planner
	// compiler keeps what Execute derives from a planned schema, beside the
	// plan cache and under the same switch: nil when caching is disabled.
	compiler *exec.Compiler
}

// NewPlanner builds an isolated planner. Use it when the process-wide cache
// sharing of the package-level functions is unwanted (e.g. per-tenant
// isolation, or tests that must not observe each other's cache).
func NewPlanner(cfg PlannerConfig) *Planner {
	pl := &Planner{p: planner.New(planner.Config{
		CacheEntries:       cfg.CacheEntries,
		Shards:             cfg.CacheShards,
		MaxCacheableInputs: cfg.MaxCacheableInputs,
	})}
	if cfg.CacheEntries >= 0 {
		pl.compiler = exec.NewCompiler()
	}
	return pl
}

// Default is the process-wide planner behind the package-level Plan and
// Execute; sharing it means isomorphic instances across callers hit one
// cache.
var Default = &Planner{p: planner.Default, compiler: exec.NewCompiler()}

// Stats is a snapshot of a planner's counters.
type Stats = planner.Stats

// Stats snapshots this planner's counters.
func (pl *Planner) Stats() Stats { return pl.p.Stats() }

// PlannerStats snapshots the shared default planner's counters.
func PlannerStats() Stats { return Default.Stats() }

// CacheLen reports how many canonical plans this planner currently caches.
func (pl *Planner) CacheLen() int { return pl.p.CacheLen() }
