package planner

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// cachedPlan is the canonical solution stored per canonical instance. The
// schema references canonical IDs and is immutable once stored; lookups
// materialize a fresh copy over the requester's IDs through byInput (the A2A
// set or the canonical X side) and byYInput (the canonical Y side).
type cachedPlan struct {
	schema     *core.MappingSchema
	byInput    inputIndex
	byYInput   inputIndex
	winner     string
	lowerBound int
	candidates int
}

// newCachedPlan wraps the winning schema of cn's portfolio pass.
func newCachedPlan(cn *canonical, schema *core.MappingSchema, winner string, lowerBound, candidates int) *cachedPlan {
	plan := &cachedPlan{schema: schema, winner: winner, lowerBound: lowerBound, candidates: candidates}
	if cn.problem == core.ProblemA2A {
		plan.byInput = newInputIndex(len(cn.sizes), schema.Reducers, func(r *core.Reducer) []int { return r.Inputs })
	} else {
		plan.byInput = newInputIndex(len(cn.sizes), schema.Reducers, func(r *core.Reducer) []int { return r.XInputs })
		plan.byYInput = newInputIndex(len(cn.ySizes), schema.Reducers, func(r *core.Reducer) []int { return r.YInputs })
	}
	return plan
}

// entry is one cache slot: the canonical instance it answers (kept to rule
// out fingerprint collisions) and its plan. weight approximates the entry's
// retained memory in words (canonical sizes, every input-ID reference of the
// schema, and the plan's input indexes at two int32 a word), so eviction can
// bound bytes as well as entry count.
type entry struct {
	hash    uint64
	problem core.Problem
	q       core.Size
	sizes   []core.Size
	ySizes  []core.Size
	plan    *cachedPlan
	weight  int
}

// entryWeight computes the retained-words estimate for a plan.
func entryWeight(cn *canonical, plan *cachedPlan) int {
	w := len(cn.sizes) + len(cn.ySizes)
	for _, r := range plan.schema.Reducers {
		w += len(r.Inputs) + len(r.XInputs) + len(r.YInputs)
	}
	for _, ix := range []*inputIndex{&plan.byInput, &plan.byYInput} {
		w += (len(ix.first) + len(ix.reducer) + len(ix.offset)) / 2
	}
	if w < 1 {
		w = 1
	}
	return w
}

// flight is an in-progress solve that later arrivals for the same canonical
// instance wait on instead of solving again (single-flight). It records the
// instance it is solving so arrivals whose fingerprint merely collides are
// not handed a foreign plan.
type flight struct {
	problem core.Problem
	q       core.Size
	sizes   []core.Size
	ySizes  []core.Size
	done    chan struct{}
	plan    *cachedPlan
	err     error
}

// cache is an LRU over canonical instances with single-flight
// deduplication, all under one mutex. All methods are safe for concurrent
// use.
type cache struct {
	mu       sync.Mutex
	capacity int
	// weightCap bounds the summed entry weights so a few huge schemas
	// cannot pin unbounded memory behind a small entry count; weight tracks
	// the current sum.
	weightCap int
	weight    int
	entries   map[uint64]*list.Element // hash -> *entry element in order
	order     *list.List               // front = most recently used
	inflight  map[uint64]*flight
	// size and evictions are the planner's pland_planner_cache_entries and
	// pland_planner_cache_evictions_total.
	size      *obs.Gauge
	evictions *obs.Counter
}

// avgEntryWeightBudget is the assumed average retained words per entry used
// to derive the cache's weight cap from its entry capacity.
const avgEntryWeightBudget = 4096

// newCache builds a cache holding at most capacity entries (at least one)
// that reports its size and evictions on the given series.
func newCache(capacity int, size *obs.Gauge, evictions *obs.Counter) *cache {
	if capacity < 1 {
		capacity = 1
	}
	return &cache{
		capacity:  capacity,
		weightCap: capacity * avgEntryWeightBudget,
		entries:   make(map[uint64]*list.Element),
		order:     list.New(),
		inflight:  make(map[uint64]*flight),
		size:      size,
		evictions: evictions,
	}
}

// startFlight registers the caller as the solver for the canonical instance,
// unless an entry or another flight already exists. It returns at most one
// of: a cached plan (hit race), an existing flight for the same instance to
// wait on, or a fresh flight the caller must resolve via finishFlight. All
// three are nil when another instance with a colliding fingerprint is
// already in flight; the caller then solves on its own without caching.
func (c *cache) startFlight(cn *canonical) (plan *cachedPlan, waitFor *flight, mine *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if plan := c.lookup(cn); plan != nil {
		return plan, nil, nil
	}
	if f, ok := c.inflight[cn.hash]; ok {
		if cn.matches(f.problem, f.q, f.sizes, f.ySizes) {
			return nil, f, nil
		}
		return nil, nil, nil // colliding instance in flight: solve solo
	}
	f := &flight{problem: cn.problem, q: cn.q, sizes: cn.sizes, ySizes: cn.ySizes, done: make(chan struct{})}
	c.inflight[cn.hash] = f
	return nil, nil, f
}

// finishFlight publishes the solve outcome to the waiters and, on success,
// stores the plan, evicting least recently used entries while the cache is
// over either bound. Errors are not cached: the next request re-solves.
func (c *cache) finishFlight(cn *canonical, f *flight, plan *cachedPlan, err error) {
	ok := err == nil && plan != nil
	w := 0
	if ok {
		w = entryWeight(cn, plan)
	}
	c.mu.Lock()
	delete(c.inflight, cn.hash)
	if ok {
		c.store(cn, plan, w)
	}
	c.mu.Unlock()
	f.plan, f.err = plan, err
	close(f.done)
}

// lookup returns the plan cached for the canonical instance, or nil, and
// marks it recently used. The caller holds c.mu.
func (c *cache) lookup(cn *canonical) *cachedPlan {
	if el, ok := c.entries[cn.hash]; ok {
		e := el.Value.(*entry)
		if cn.matches(e.problem, e.q, e.sizes, e.ySizes) {
			c.order.MoveToFront(el)
			return e.plan
		}
	}
	return nil
}

// store retains the plan of weight w; the caller holds c.mu. A plan too
// heavy for the whole budget is served but not retained; everything else is
// stored, evicting from the LRU end while either bound is exceeded (never
// the entry just inserted).
func (c *cache) store(cn *canonical, plan *cachedPlan, w int) {
	if w > c.weightCap {
		return
	}
	if el, ok := c.entries[cn.hash]; ok {
		c.remove(el)
	}
	e := &entry{hash: cn.hash, problem: cn.problem, q: cn.q, sizes: cn.sizes, ySizes: cn.ySizes,
		plan: plan, weight: w}
	c.entries[cn.hash] = c.order.PushFront(e)
	c.size.Inc()
	c.weight += w
	for c.order.Len() > 1 && (c.order.Len() > c.capacity || c.weight > c.weightCap) {
		c.remove(c.order.Back())
		c.evictions.Inc()
	}
}

// remove drops the element from the order list, the index, and the weight
// total. The caller holds c.mu.
func (c *cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.entries, e.hash)
	c.weight -= e.weight
	c.size.Dec()
}

// len reports the number of cached entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
