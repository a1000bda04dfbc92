package planner

import (
	"container/list"

	"sync"

	"repro/internal/core"
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

// cache is a sharded LRU over canonical instances with per-shard
// single-flight deduplication. All methods are safe for concurrent use.
type cache struct {
	shards []*cacheShard
}

type cacheShard struct {
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
}

// avgEntryWeightBudget is the assumed average retained words per entry used
// to derive a shard's weight cap from its entry capacity.
const avgEntryWeightBudget = 4096

// newCache builds a cache holding about totalEntries across nShards shards.
func newCache(totalEntries, nShards int) *cache {
	if nShards < 1 {
		nShards = 1
	}
	per := (totalEntries + nShards - 1) / nShards
	if per < 1 {
		per = 1
	}
	c := &cache{shards: make([]*cacheShard, nShards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			capacity:  per,
			weightCap: per * avgEntryWeightBudget,
			entries:   make(map[uint64]*list.Element),
			order:     list.New(),
			inflight:  make(map[uint64]*flight),
		}
	}
	return c
}

func (c *cache) shard(hash uint64) *cacheShard {
	return c.shards[hash%uint64(len(c.shards))]
}

// startFlight registers the caller as the solver for the canonical instance,
// unless an entry or another flight already exists. It returns at most one
// of: a cached plan (hit race), an existing flight for the same instance to
// wait on, or a fresh flight the caller must resolve via finishFlight. All
// three are nil when another instance with a colliding fingerprint is
// already in flight; the caller then solves on its own without caching.
func (c *cache) startFlight(cn *canonical) (plan *cachedPlan, waitFor *flight, mine *flight) {
	s := c.shard(cn.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if plan := s.lookup(cn); plan != nil {
		return plan, nil, nil
	}
	if f, ok := s.inflight[cn.hash]; ok {
		if cn.matches(f.problem, f.q, f.sizes, f.ySizes) {
			return nil, f, nil
		}
		return nil, nil, nil // colliding instance in flight: solve solo
	}
	f := &flight{problem: cn.problem, q: cn.q, sizes: cn.sizes, ySizes: cn.ySizes, done: make(chan struct{})}
	s.inflight[cn.hash] = f
	return nil, nil, f
}

// finishFlight publishes the solve outcome to the waiters and, on success,
// stores the plan, evicting the least recently used entry if the shard is
// full. Errors are not cached: the next request re-solves.
func (c *cache) finishFlight(cn *canonical, f *flight, plan *cachedPlan, err error) {
	s := c.shard(cn.hash)
	s.mu.Lock()
	delete(s.inflight, cn.hash)
	if err == nil && plan != nil {
		s.store(cn, plan)
	}
	s.mu.Unlock()
	f.plan, f.err = plan, err
	close(f.done)
}

// get returns the plan cached for the canonical instance, or nil, and marks
// it recently used.
func (c *cache) get(cn *canonical) *cachedPlan {
	s := c.shard(cn.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookup(cn)
}

// put stores a plan that did not come out of a flight (see ImportPlan).
func (c *cache) put(cn *canonical, plan *cachedPlan) {
	s := c.shard(cn.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store(cn, plan)
}

// lookup is get under the shard lock, which the caller holds.
func (s *cacheShard) lookup(cn *canonical) *cachedPlan {
	if el, ok := s.entries[cn.hash]; ok {
		e := el.Value.(*entry)
		if cn.matches(e.problem, e.q, e.sizes, e.ySizes) {
			s.order.MoveToFront(el)
			return e.plan
		}
	}
	return nil
}

// store retains the plan under the shard lock, which the caller holds. A plan
// too heavy for the whole shard budget is served but not retained; everything
// else is stored, evicting from the LRU end while either bound is exceeded
// (never the entry just inserted).
func (s *cacheShard) store(cn *canonical, plan *cachedPlan) {
	w := entryWeight(cn, plan)
	if w > s.weightCap {
		return
	}
	if el, ok := s.entries[cn.hash]; ok {
		s.remove(el)
	}
	e := &entry{hash: cn.hash, problem: cn.problem, q: cn.q, sizes: cn.sizes, ySizes: cn.ySizes,
		plan: plan, weight: w}
	s.entries[cn.hash] = s.order.PushFront(e)
	obsCacheEntries.Inc()
	s.weight += e.weight
	for s.order.Len() > 1 && (s.order.Len() > s.capacity || s.weight > s.weightCap) {
		s.remove(s.order.Back())
		obsCacheEvictions.Inc()
	}
}

// remove drops the element from the order list, the index, and the weight
// total. Callers hold the shard lock.
func (s *cacheShard) remove(el *list.Element) {
	e := el.Value.(*entry)
	s.order.Remove(el)
	delete(s.entries, e.hash)
	s.weight -= e.weight
	obsCacheEntries.Dec()
}

// len reports the number of cached entries across all shards.
func (c *cache) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
