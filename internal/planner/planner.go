package planner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/x2y"
)

// Defaults for the planning budget and the shared planner's cache.
const (
	// DefaultExactMaxInputs gates the exact branch-and-bound members.
	DefaultExactMaxInputs = 12
	// DefaultExactMaxNodes bounds the exact members' search; it is far below
	// the solvers' own default so a plan never stalls on a hard instance.
	DefaultExactMaxNodes = 200_000
	// defaultGreedyMaxInputs gates the quadratic coverage-greedy baselines.
	defaultGreedyMaxInputs = 400
	// DefaultCacheEntries is the shared planner's cache size.
	DefaultCacheEntries = 4096
	// DefaultMaxCacheableInputs bounds the instance size the cache retains:
	// every entry keeps its canonical sizes and schema, so caching huge
	// instances would let entry-count bounds hide multi-gigabyte memory use.
	// Larger instances still plan normally, just uncached.
	DefaultMaxCacheableInputs = 20_000
	// defaultShards spreads cache locking across this many shards.
	defaultShards = 16
)

// Request describes one instance to plan: which problem, the input set(s),
// and the reducer capacity q. Budget bounds the exact members; the zero value
// uses the defaults above.
type Request struct {
	// Problem selects A2A (Set) or X2Y (X and Y).
	Problem core.Problem
	// Set is the A2A input set; ignored for X2Y.
	Set *core.InputSet
	// X and Y are the X2Y input sets; ignored for A2A.
	X, Y *core.InputSet
	// Capacity is the reducer capacity q.
	Capacity core.Size
	// Budget bounds the exact members.
	Budget Budget
	// NoCache skips the canonicalization cache for this request (it is still
	// canonicalized, so the result is identical to the cached path).
	NoCache bool
}

// Budget bounds the exact members of the portfolio. The cache is keyed on
// the instance alone, so a budget only shapes fresh solves: a cached or
// in-flight isomorphic instance is served as solved under the budget of the
// request that first triggered it. Callers that need this request's budget
// honored exactly (e.g. a larger node cap hoping for the exact optimum on an
// instance first solved under a smaller one) set NoCache; Result.Gap reports
// whether the served plan is already provably optimal.
type Budget struct {
	// Timeout is accepted and ignored: it does not change the plan. Every
	// member is bounded on its own (greedy by its input ceiling, exact search
	// by ExactMaxInputs and ExactMaxNodes), so the plan is a function of the
	// instance and this budget's exact limits, whatever the host load. Only
	// the caller's context can cut a solve short.
	Timeout time.Duration
	// ExactMaxInputs caps the instance size the exact solvers attempt;
	// 0 means DefaultExactMaxInputs, negative disables them. a2a.Exact has a
	// ceiling of 64 inputs of its own: above it the member fails at once
	// with a2a.ErrTooLargeForExact and the others go on without it.
	ExactMaxInputs int
	// ExactMaxNodes caps the exact solvers' search nodes; 0 means
	// DefaultExactMaxNodes.
	ExactMaxNodes int
}

func (b Budget) exactMaxInputs() int {
	if b.ExactMaxInputs == 0 {
		return DefaultExactMaxInputs
	}
	return b.ExactMaxInputs
}

func (b Budget) exactMaxNodes() int {
	if b.ExactMaxNodes <= 0 {
		return DefaultExactMaxNodes
	}
	return b.ExactMaxNodes
}

// Result is the outcome of one Plan call. pkg/assign exports it as
// assign.Result, so its shape is under that package's compatibility contract.
type Result struct {
	// Schema is the winning mapping schema, expressed over the request's
	// original input IDs. It is owned by the caller.
	Schema *core.MappingSchema
	// Cost prices the schema.
	Cost core.Cost
	// Winner names the portfolio member that produced the schema. The set of
	// member names is not part of the compatibility contract.
	Winner string
	// LowerBoundReducers is the instance's proved reducer lower bound and Gap
	// is Schema reducers minus that bound (0 means provably optimal).
	LowerBoundReducers int
	Gap                int
	// Candidates is how many portfolio members ran and produced a schema: 1
	// (just the constructive solve) above the greedy member's 400 inputs,
	// more below it.
	Candidates int
	// CacheHit reports whether the plan was served from the cache, and
	// SharedFlight whether it piggybacked on a concurrent identical solve.
	CacheHit     bool
	SharedFlight bool
	// Elapsed is the wall-clock time Plan spent on this request.
	Elapsed time.Duration
}

// Planner runs the portfolio and memoizes canonical solutions. The zero
// value is not usable; use New. Planners are safe for concurrent use.
type Planner struct {
	cache        *cache
	maxCacheable int
	stats        stats
}

// Config configures New.
type Config struct {
	// CacheEntries is the total cache capacity; 0 means DefaultCacheEntries,
	// negative disables caching entirely.
	CacheEntries int
	// Shards is the number of cache shards; 0 means a default of 16.
	Shards int
	// MaxCacheableInputs is the largest instance (total inputs) the cache
	// retains; 0 means DefaultMaxCacheableInputs, negative removes the
	// bound. Larger instances plan normally but bypass the cache.
	MaxCacheableInputs int
}

// New builds a Planner.
func New(cfg Config) *Planner {
	p := &Planner{maxCacheable: cfg.MaxCacheableInputs}
	if p.maxCacheable == 0 {
		p.maxCacheable = DefaultMaxCacheableInputs
	}
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	if entries > 0 {
		shards := cfg.Shards
		if shards <= 0 {
			shards = defaultShards
		}
		p.cache = newCache(entries, shards)
	}
	return p
}

// Default is the process-wide shared planner the applications and cmd/pland
// use; sharing it means isomorphic instances across callers hit one cache.
var Default = New(Config{})

// Plan plans the request on the Default planner.
func Plan(ctx context.Context, req Request) (*Result, error) {
	return Default.Plan(ctx, req)
}

// Plan canonicalizes the request, serves it from the cache when an
// isomorphic instance was already solved, and otherwise runs the portfolio
// under the request budget. The returned schema always uses the request's
// original input IDs and is owned by the caller.
func (p *Planner) Plan(ctx context.Context, req Request) (*Result, error) {
	start := time.Now()
	p.stats.requests.Add(1)
	sp := obs.SpanFrom(ctx)
	endCanon := sp.Stage("canonicalize")
	cn, err := canonicalize(req)
	endCanon()
	if err != nil {
		p.stats.errors.Add(1)
		obsReqError.Inc()
		return nil, err
	}

	if p.cache == nil || req.NoCache ||
		(p.maxCacheable > 0 && len(cn.sizes)+len(cn.ySizes) > p.maxCacheable) {
		return p.solveAndRecord(ctx, req, cn, start)
	}

	endCache := sp.Stage("cache")
	plan, waitFor, mine := p.cache.startFlight(cn)
	switch {
	case plan != nil: // cache hit
		endCache()
		p.stats.hits.Add(1)
		obsReqHit.Inc()
		return p.finish(req, cn, plan, true, false, start), nil
	case waitFor != nil:
		select {
		case <-waitFor.done:
		case <-ctx.Done():
			endCache()
			p.stats.errors.Add(1)
			obsReqError.Inc()
			return nil, ctx.Err()
		}
		endCache()
		if waitFor.err != nil {
			p.stats.errors.Add(1)
			obsReqError.Inc()
			return nil, waitFor.err
		}
		p.stats.shared.Add(1)
		obsReqShared.Inc()
		return p.finish(req, cn, waitFor.plan, false, true, start), nil
	case mine != nil:
		endCache()
		// The solve is detached from the request context so an abandoned
		// request neither poisons the flight's waiters nor wastes the work:
		// the plan still lands in the cache. Every member is bounded on its
		// own, so the detached solve ends without a deadline.
		// The goroutine records the solver win (every fresh solve has one,
		// even if its requester abandons); the request counters stay with
		// the requester so each request lands in exactly one of
		// hits/misses/shared/errors.
		go func() {
			solved, err := p.solvePortfolio(context.Background(), cn, req.Budget)
			if err == nil {
				p.stats.recordWin(solved.winner)
			}
			p.cache.finishFlight(cn, mine, solved, err)
		}()
		endRace := sp.Stage("race")
		select {
		case <-mine.done:
		case <-ctx.Done():
			endRace()
			p.stats.errors.Add(1)
			obsReqError.Inc()
			return nil, ctx.Err()
		}
		endRace()
		if mine.err != nil {
			p.stats.errors.Add(1)
			obsReqError.Inc()
			return nil, mine.err
		}
		p.stats.misses.Add(1)
		obsReqMiss.Inc()
		return p.finish(req, cn, mine.plan, false, false, start), nil
	default:
		// A fingerprint-colliding instance holds the flight slot: solve solo
		// without caching.
		endCache()
		return p.solveAndRecord(ctx, req, cn, start)
	}
}

// solveAndRecord runs the portfolio for the request itself (no cache
// involvement) and updates the counters.
func (p *Planner) solveAndRecord(ctx context.Context, req Request, cn *canonical, start time.Time) (*Result, error) {
	endRace := obs.SpanFrom(ctx).Stage("race")
	plan, err := p.solvePortfolio(ctx, cn, req.Budget)
	endRace()
	if err != nil {
		p.stats.errors.Add(1)
		obsReqError.Inc()
		return nil, err
	}
	p.stats.misses.Add(1)
	obsReqMiss.Inc()
	p.stats.recordWin(plan.winner)
	return p.finish(req, cn, plan, false, false, start), nil
}

// finish materializes the canonical plan for the request and fills the
// result envelope.
func (p *Planner) finish(req Request, cn *canonical, plan *cachedPlan, hit, shared bool, start time.Time) *Result {
	schema := cn.materialize(plan)
	var total core.Size
	if req.Problem == core.ProblemA2A {
		total = req.Set.TotalSize()
	} else {
		total = req.X.TotalSize() + req.Y.TotalSize()
	}
	elapsed := time.Since(start)
	obsPlanSeconds.ObserveDuration(elapsed)
	return &Result{
		Schema:             schema,
		Cost:               core.SchemaCost(schema, total),
		Winner:             plan.winner,
		LowerBoundReducers: plan.lowerBound,
		Gap:                schema.NumReducers() - plan.lowerBound,
		Candidates:         plan.candidates,
		CacheHit:           hit,
		SharedFlight:       shared,
		Elapsed:            elapsed,
	}
}

// candidate is one portfolio member.
type candidate struct {
	name string
	run  func() (*core.MappingSchema, error)
}

// portfolio lists the members for the canonical instance, solving over the
// canonical input sets. The first member is the baseline — the paper's
// constructive dispatch — and it always runs first, so the portfolio result
// is never worse than a2a.Solve / x2y.Solve on the same instance.
func portfolio(cn *canonical, set, ySet *core.InputSet, budget Budget) []candidate {
	q := cn.q
	if cn.problem == core.ProblemA2A {
		cands := []candidate{
			{"a2a/solve", func() (*core.MappingSchema, error) { return a2a.Solve(set, q) }},
		}
		if set.Len() <= defaultGreedyMaxInputs {
			cands = append(cands, candidate{"a2a/greedy", func() (*core.MappingSchema, error) { return a2a.Greedy(set, q) }})
		}
		if max := budget.exactMaxInputs(); max > 0 && set.Len() <= max {
			cands = append(cands, candidate{"a2a/exact", func() (*core.MappingSchema, error) {
				ms, err := a2a.Exact(set, q, a2a.ExactOptions{MaxInputs: max, MaxNodes: budget.exactMaxNodes()})
				if errors.Is(err, a2a.ErrNodeBudget) {
					err = nil // budget-truncated search still yields a valid schema
				}
				return ms, err
			}})
		}
		return cands
	}
	cands := []candidate{
		{"x2y/solve", func() (*core.MappingSchema, error) { return x2y.Solve(set, ySet, q) }},
	}
	if set.Len()+ySet.Len() <= defaultGreedyMaxInputs {
		cands = append(cands, candidate{"x2y/greedy", func() (*core.MappingSchema, error) { return x2y.Greedy(set, ySet, q) }})
	}
	if max := budget.exactMaxInputs(); max > 0 && set.Len()+ySet.Len() <= max {
		cands = append(cands, candidate{"x2y/exact", func() (*core.MappingSchema, error) {
			ms, err := x2y.Exact(set, ySet, q, x2y.ExactOptions{MaxInputs: max, MaxNodes: budget.exactMaxNodes()})
			if errors.Is(err, x2y.ErrNodeBudget) {
				err = nil
			}
			return ms, err
		}})
	}
	return cands
}

// solvePortfolio runs the portfolio members in order and keeps the best
// schema: fewest reducers, then smallest maximum load, then member name for
// determinism. Every member is bounded on its own, so nothing races and
// nothing runs on after the return. ctx is checked before each member: once
// it is done, the best schema so far is returned, or ctx's error if no member
// has produced one yet.
func (p *Planner) solvePortfolio(ctx context.Context, cn *canonical, budget Budget) (*cachedPlan, error) {
	raceStart := time.Now()
	defer obsRaceSeconds.ObserveSince(raceStart)
	set, ySet, err := cn.inputSets()
	if err != nil {
		return nil, err
	}
	// Each member is a stage of the caller's span ("solve:<member>"), so a
	// trace shows which members ran and how long each took. The cached
	// flight path solves under context.Background and records nothing.
	sp := obs.SpanFrom(ctx)
	var best *core.MappingSchema
	var bestName string
	var baselineErr error
	finished := 0
	for i, c := range portfolio(cn, set, ySet, budget) {
		if ctx.Err() != nil {
			if best == nil {
				return nil, ctx.Err()
			}
			break
		}
		done := sp.Stage("solve:" + c.name)
		ms, err := c.run()
		done()
		if i == 0 {
			baselineErr = err
		}
		if err != nil || ms == nil {
			continue
		}
		finished++
		if best == nil || schemaLess(ms, c.name, best, bestName) {
			best, bestName = ms, c.name
		}
	}
	if best == nil {
		if baselineErr != nil {
			return nil, baselineErr
		}
		return nil, fmt.Errorf("planner: no portfolio member produced a schema")
	}

	var lower int
	if cn.problem == core.ProblemA2A {
		lower = a2a.LowerBounds(set, cn.q).Reducers
	} else {
		lower = x2y.LowerBounds(set, ySet, cn.q).Reducers
	}
	return newCachedPlan(cn, best, bestName, lower, finished), nil
}

// schemaLess reports whether schema a (from member na) beats schema b (from
// member nb): fewer reducers, then smaller max load, then name order.
func schemaLess(a *core.MappingSchema, na string, b *core.MappingSchema, nb string) bool {
	if a.NumReducers() != b.NumReducers() {
		return a.NumReducers() < b.NumReducers()
	}
	la, lb := maxLoad(a), maxLoad(b)
	if la != lb {
		return la < lb
	}
	return na < nb
}

func maxLoad(ms *core.MappingSchema) core.Size {
	var max core.Size
	for _, r := range ms.Reducers {
		if r.Load > max {
			max = r.Load
		}
	}
	return max
}

// CacheLen reports how many canonical plans are currently cached.
func (p *Planner) CacheLen() int {
	if p.cache == nil {
		return 0
	}
	return p.cache.len()
}
