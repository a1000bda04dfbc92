package exec

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

const (
	// maxCacheBytes bounds what one Compiler retains.
	maxCacheBytes = 64 << 20
	// admissionSlots is the size of a Compiler's table of recently missed
	// hashes.
	admissionSlots = 256
)

// Compiler compiles schemas for Run and keeps the result: runs of the same
// schema over the same shape through one Compiler share one schemaIndex (see
// "Compiled once" in the package documentation). It is safe for concurrent
// use; a nil *Compiler compiles every request from scratch.
//
// The key is a hash of the schema's content and the shape, and only ever a
// hint: an entry answers a request after a field-by-field comparison with the
// private copy of the schema it was built over, because callers own the
// schemas they pass in and may change them between runs. A schema is retained
// the second time it is seen, so traffic that never repeats pays one hash and
// leaves nothing behind; retained bytes are bounded, least recently used
// first out; an index over the bound, or whose schema fails PreCheck, is
// never retained.
type Compiler struct {
	// hash and maxBytes are hashSchema and maxCacheBytes outside tests.
	hash     func(*core.MappingSchema, shape) uint64
	maxBytes int64

	mu      sync.Mutex
	entries map[uint64]*list.Element // hash -> element of order, holding a *cacheEntry
	order   *list.List               // front = most recently used
	bytes   int64
	missed  [admissionSlots]uint64
}

// cacheEntry is one retained index. idx.schema is the entry's private copy.
type cacheEntry struct {
	hash  uint64
	idx   *schemaIndex
	bytes int64
}

// NewCompiler returns an empty Compiler.
func NewCompiler() *Compiler {
	return &Compiler{
		hash:     hashSchema,
		maxBytes: maxCacheBytes,
		entries:  make(map[uint64]*list.Element),
		order:    list.New(),
	}
}

// index returns the index of schema over sh — the retained one when the cache
// holds it, a fresh one otherwise — and the pland_exec_compile_total series
// the request counts under. The caller's schema is read during the call and
// not afterwards.
func (cp *Compiler) index(schema *core.MappingSchema, sh shape) (*schemaIndex, *obs.Counter, error) {
	if cp == nil {
		idx, err := newSchemaIndex(schema, sh)
		return idx, obsCompileUncacheable, err
	}
	h := cp.hash(schema, sh)
	cp.mu.Lock()
	idx := cp.lookup(h, schema, sh)
	slot := &cp.missed[h%admissionSlots]
	admit := *slot == h
	*slot = h
	cp.mu.Unlock()
	if idx != nil {
		return idx, obsCompileHit, nil
	}
	if !admit {
		idx, err := newSchemaIndex(schema, sh)
		return idx, obsCompileMiss, err
	}
	idx, err := newSchemaIndex(cloneSchema(schema), sh)
	if err != nil {
		return nil, nil, err
	}
	// Everything lazy is forced before the index is shared: the verdict
	// decides whether it is kept, the sweep and the elections what it weighs.
	verdict := idx.preCheck()
	idx.elect()
	size := idx.retainedBytes()
	if verdict != nil || size > cp.maxBytes {
		return idx, obsCompileUncacheable, nil
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if raced := cp.lookup(h, schema, sh); raced != nil {
		return raced, obsCompileMiss, nil // a concurrent run of the same schema got here first
	}
	if el, ok := cp.entries[h]; ok {
		cp.remove(el) // a different schema under the same hash: the newer one stays
	}
	cp.entries[h] = cp.order.PushFront(&cacheEntry{hash: h, idx: idx, bytes: size})
	cp.bytes += size
	obsCompileCacheBytes.Add(size)
	for cp.bytes > cp.maxBytes {
		cp.remove(cp.order.Back())
	}
	return idx, obsCompileMiss, nil
}

// lookup returns the retained index for the schema and marks it used, or nil.
// The hash only finds the candidate; the comparison with the entry's own copy
// of the schema decides. cp.mu is held.
func (cp *Compiler) lookup(h uint64, schema *core.MappingSchema, sh shape) *schemaIndex {
	el, ok := cp.entries[h]
	if !ok {
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.idx.shape != sh || !sameSchema(e.idx.schema, schema) {
		return nil
	}
	cp.order.MoveToFront(el)
	return e.idx
}

// remove drops one entry. cp.mu is held.
func (cp *Compiler) remove(el *list.Element) {
	e := cp.order.Remove(el).(*cacheEntry)
	delete(cp.entries, e.hash)
	cp.bytes -= e.bytes
	obsCompileCacheBytes.Add(-e.bytes)
}

// hashSchema hashes what an index depends on: the problem, the capacity, the
// shape, and every reducer's load and ID lists, each list behind its length.
// It mixes a word per step — core.MixFingerprint's byte per step is eight
// times the work, on the path of every cached run.
func hashSchema(ms *core.MappingSchema, sh shape) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		h = (h ^ v) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	mix(uint64(ms.Problem))
	mix(uint64(ms.Capacity))
	mix(uint64(sh.numA))
	mix(uint64(sh.numX))
	mix(uint64(sh.numY))
	mix(uint64(len(ms.Reducers)))
	for r := range ms.Reducers {
		red := &ms.Reducers[r]
		mix(uint64(red.Load))
		for _, ids := range [...][]int{red.Inputs, red.XInputs, red.YInputs} {
			mix(uint64(len(ids)))
			for _, id := range ids {
				mix(uint64(id))
			}
		}
	}
	return h
}

// sameSchema reports whether two schemas agree on everything hashSchema reads.
func sameSchema(a, b *core.MappingSchema) bool {
	if a.Problem != b.Problem || a.Capacity != b.Capacity || len(a.Reducers) != len(b.Reducers) {
		return false
	}
	for r := range a.Reducers {
		x, y := &a.Reducers[r], &b.Reducers[r]
		if x.Load != y.Load || !slices.Equal(x.Inputs, y.Inputs) ||
			!slices.Equal(x.XInputs, y.XInputs) || !slices.Equal(x.YInputs, y.YInputs) {
			return false
		}
	}
	return true
}

// cloneSchema returns a deep copy of everything hashSchema reads, with the ID
// lists cut from one backing array.
func cloneSchema(ms *core.MappingSchema) *core.MappingSchema {
	total := 0
	for r := range ms.Reducers {
		red := &ms.Reducers[r]
		total += len(red.Inputs) + len(red.XInputs) + len(red.YInputs)
	}
	backing := make([]int, 0, total)
	take := func(ids []int) []int {
		start := len(backing)
		backing = append(backing, ids...)
		return backing[start:len(backing):len(backing)]
	}
	cp := &core.MappingSchema{Problem: ms.Problem, Capacity: ms.Capacity, Algorithm: ms.Algorithm}
	cp.Reducers = make([]core.Reducer, len(ms.Reducers))
	for r := range ms.Reducers {
		red := &ms.Reducers[r]
		cp.Reducers[r] = core.Reducer{
			Inputs: take(red.Inputs), XInputs: take(red.XInputs), YInputs: take(red.YInputs),
			Load: red.Load,
		}
	}
	return cp
}

// retainedBytes estimates what keeping the index alive keeps alive: the
// private schema and its transpose (one word per ID reference each), a slice
// header, a CoverSet and a membership row per input, a core.Reducer, a list
// end and an election per reducer, the elections' local classes (four bytes
// per ID reference) and bitmaps, and the owned-pair list. It sweeps and
// elects for the last two.
func (idx *schemaIndex) retainedBytes() int64 {
	idx.sweep()
	idx.elect()
	refs, bitmapWords := 0, 0
	for r := range idx.schema.Reducers {
		red := &idx.schema.Reducers[r]
		refs += len(red.Inputs) + len(red.XInputs) + len(red.YInputs)
		bitmapWords += len(idx.elections[r].bits)
	}
	n := len(idx.schema.Reducers)
	perInput := 3 + 4 + (n+63)/64
	const perReducer = 10 + 1 + 16
	words := 2*refs + (idx.numA+idx.numX+idx.numY)*perInput + n*perReducer + bitmapWords
	return 8*int64(words) + 4*int64(refs) + pairEntryBytes*int64(len(idx.owned))
}
