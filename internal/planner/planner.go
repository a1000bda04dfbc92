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

// The limits of the portfolio members and the shape of the plan cache.
const (
	// exactMaxInputs gates the exact branch-and-bound members.
	exactMaxInputs = 12
	// exactMaxNodes bounds the exact members' search; it is far below the
	// solvers' own default so a plan never stalls on a hard instance.
	exactMaxNodes = 200_000
	// defaultGreedyMaxInputs gates the quadratic coverage-greedy baselines.
	defaultGreedyMaxInputs = 400
	// DefaultCacheEntries is the shared planner's cache size.
	DefaultCacheEntries = 4096
	// maxCacheableInputs bounds the instance size the cache retains:
	// every entry keeps its canonical sizes and schema, so caching huge
	// instances would let entry-count bounds hide multi-gigabyte memory use.
	// Larger instances still plan normally, just uncached.
	maxCacheableInputs = 20_000
)

// Request describes one instance to plan: which problem, the input set(s),
// and the reducer capacity q.
type Request struct {
	// Problem selects A2A (Set) or X2Y (X and Y).
	Problem core.Problem
	// Set is the A2A input set; ignored for X2Y.
	Set *core.InputSet
	// X and Y are the X2Y input sets; ignored for A2A.
	X, Y *core.InputSet
	// Capacity is the reducer capacity q.
	Capacity core.Size
	// Budget is accepted and changes nothing (see Budget).
	Budget Budget
	// NoCache skips the canonicalization cache for this request (it is still
	// canonicalized, so the result is identical to the cached path).
	NoCache bool
}

// Budget is kept for compatibility and does not change the plan: every
// member is bounded on its own (greedy by its input ceiling, exact search by
// its input and node caps), so the plan is a function of the instance alone,
// whatever the host load.
type Budget struct {
	// Timeout is accepted and ignored. Only the caller's context can cut a
	// solve short.
	Timeout time.Duration
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
	cache *cache
	// reg holds the planner's series, its only counters (see register).
	reg                       *obs.Registry
	hit, miss, shared, failed *obs.Counter
	wins                      *obs.CounterVec
	planSeconds, raceSeconds  *obs.Histogram
}

// Config configures New.
type Config struct {
	// CacheEntries is the exact cache capacity; 0 means DefaultCacheEntries,
	// negative disables caching entirely. Instances of more than 20,000
	// inputs plan normally but bypass the cache.
	CacheEntries int
}

// New builds a Planner.
func New(cfg Config) *Planner {
	p := &Planner{}
	cacheEntries, cacheEvictions := p.register()
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	if entries > 0 {
		p.cache = newCache(entries, cacheEntries, cacheEvictions)
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

// Key returns the key under which a planner caches the request's instance:
// the same for every relabelling of the inputs and, for X2Y, for the two
// sides swapped, and "p-" and 16 hex digits of the canonical instance's
// fingerprint. It is "" when no planner caches the instance: NoCache is set,
// or the instance has more than 20,000 inputs.
func Key(req Request) (string, error) {
	cn, err := canonicalize(req)
	if err != nil || req.NoCache || !cn.cacheable() {
		return "", err
	}
	return fmt.Sprintf("p-%016x", cn.hash), nil
}

// Plan canonicalizes the request, serves it from the cache when an
// isomorphic instance was already solved, and otherwise runs the portfolio.
// The returned schema always uses the request's original input IDs and is
// owned by the caller.
func (p *Planner) Plan(ctx context.Context, req Request) (*Result, error) {
	start := time.Now()
	sp := obs.SpanFrom(ctx)
	endCanon := sp.Stage("canonicalize")
	cn, err := canonicalize(req)
	endCanon()
	if err != nil {
		p.failed.Inc()
		return nil, err
	}

	if p.cache == nil || req.NoCache || !cn.cacheable() {
		return p.solveAndRecord(ctx, req, cn, start)
	}

	endCache := sp.Stage("cache")
	plan, waitFor, mine := p.cache.startFlight(cn)
	switch {
	case plan != nil: // cache hit
		endCache()
		p.hit.Inc()
		return p.finish(req, cn, plan, true, false, start), nil
	case waitFor != nil:
		select {
		case <-waitFor.done:
		case <-ctx.Done():
			endCache()
			p.failed.Inc()
			return nil, ctx.Err()
		}
		endCache()
		if waitFor.err != nil {
			p.failed.Inc()
			return nil, waitFor.err
		}
		p.shared.Inc()
		return p.finish(req, cn, waitFor.plan, false, true, start), nil
	case mine != nil:
		endCache()
		// The solve is detached from the request context so an abandoned
		// request neither poisons the flight's waiters nor wastes the work:
		// the plan still lands in the cache. Every member is bounded on its
		// own, so the detached solve ends without a deadline.
		// The goroutine records the solver win (every fresh solve has one,
		// even if its requester abandons); the request counters stay with
		// the requester so each request lands in exactly one outcome.
		go func() {
			solved, err := p.solvePortfolio(context.Background(), cn)
			if err == nil {
				p.wins.With(solved.winner).Inc()
			}
			p.cache.finishFlight(cn, mine, solved, err)
		}()
		endRace := sp.Stage("race")
		select {
		case <-mine.done:
		case <-ctx.Done():
			endRace()
			p.failed.Inc()
			return nil, ctx.Err()
		}
		endRace()
		if mine.err != nil {
			p.failed.Inc()
			return nil, mine.err
		}
		p.miss.Inc()
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
	plan, err := p.solvePortfolio(ctx, cn)
	endRace()
	if err != nil {
		p.failed.Inc()
		return nil, err
	}
	p.miss.Inc()
	p.wins.With(plan.winner).Inc()
	return p.finish(req, cn, plan, false, false, start), nil
}

// finish materializes the canonical plan for the request and fills the
// result envelope.
func (p *Planner) finish(req Request, cn *canonical, plan *cachedPlan, hit, shared bool, start time.Time) *Result {
	schema := cn.materialize(plan)
	var cost core.Cost
	if req.Problem == core.ProblemA2A {
		cost = core.SchemaCost(schema, req.Set.TotalSize())
	} else {
		cost = core.SchemaCost(schema, req.X.TotalSize(), req.Y.TotalSize())
	}
	elapsed := time.Since(start)
	p.planSeconds.ObserveDuration(elapsed)
	return &Result{
		Schema:             schema,
		Cost:               cost,
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
func portfolio(cn *canonical, set, ySet *core.InputSet) []candidate {
	q := cn.q
	if cn.problem == core.ProblemA2A {
		cands := []candidate{
			{"a2a/solve", func() (*core.MappingSchema, error) { return a2a.Solve(set, q) }},
		}
		if set.Len() <= defaultGreedyMaxInputs {
			cands = append(cands, candidate{"a2a/greedy", func() (*core.MappingSchema, error) { return a2a.Greedy(set, q) }})
		}
		if set.Len() <= exactMaxInputs {
			cands = append(cands, candidate{"a2a/exact", func() (*core.MappingSchema, error) {
				ms, err := a2a.Exact(set, q, a2a.ExactOptions{MaxInputs: exactMaxInputs, MaxNodes: exactMaxNodes})
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
	if set.Len()+ySet.Len() <= exactMaxInputs {
		cands = append(cands, candidate{"x2y/exact", func() (*core.MappingSchema, error) {
			ms, err := x2y.Exact(set, ySet, q, x2y.ExactOptions{MaxInputs: exactMaxInputs, MaxNodes: exactMaxNodes})
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
func (p *Planner) solvePortfolio(ctx context.Context, cn *canonical) (*cachedPlan, error) {
	raceStart := time.Now()
	defer p.raceSeconds.ObserveSince(raceStart)
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
	for i, c := range portfolio(cn, set, ySet) {
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

	return newCachedPlan(cn, best, bestName, lowerBound(cn, set, ySet), finished), nil
}

// lowerBound is the proved reducer lower bound of the canonical instance,
// whose input sets are set and ySet.
func lowerBound(cn *canonical, set, ySet *core.InputSet) int {
	if cn.problem == core.ProblemA2A {
		return a2a.LowerBounds(set, cn.q).Reducers
	}
	return x2y.LowerBounds(set, ySet, cn.q).Reducers
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
