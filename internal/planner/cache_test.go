package planner

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// hammerInstances builds a family of distinct canonical A2A instances plus a
// permutation generator so goroutines can request isomorphic variants.
func hammerInstances(t *testing.T, n int) [][]core.Size {
	t.Helper()
	out := make([][]core.Size, n)
	for i := range out {
		sizes := make([]core.Size, 12)
		for j := range sizes {
			sizes[j] = core.Size(1 + (i+j*7)%9)
		}
		sizes[0] = core.Size(10 + i) // make every instance's multiset distinct
		out[i] = sizes
	}
	return out
}

func permuted(sizes []core.Size, rng *rand.Rand) []core.Size {
	cp := append([]core.Size(nil), sizes...)
	rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
	return cp
}

// TestPlanConcurrentHammer drives Plan from many goroutines with overlapping
// isomorphic instances under -race: every distinct canonical instance must be
// solved exactly once (single-flight), everything else must be served as a
// cache hit or a shared flight, and every returned schema must be valid for
// the exact permutation that requested it.
func TestPlanConcurrentHammer(t *testing.T) {
	const (
		goroutines = 16
		iterations = 60
		instances  = 8
	)
	p := New(Config{CacheEntries: 1024})
	families := hammerInstances(t, instances)
	q := core.Size(32)

	// Reducer counts must agree across isomorphic requests; collect one
	// canonical answer per family.
	counts := make([]int, instances)
	for i := range counts {
		counts[i] = -1
	}
	var countsMu sync.Mutex

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < iterations; it++ {
				fam := rng.Intn(instances)
				set, err := core.NewInputSet(permuted(families[fam], rng))
				if err != nil {
					errs <- err
					return
				}
				res, err := p.Plan(context.Background(), Request{
					Problem: core.ProblemA2A, Set: set, Capacity: q,
				})
				if err != nil {
					errs <- err
					return
				}
				if err := res.Schema.ValidateA2A(set); err != nil {
					errs <- err
					return
				}
				countsMu.Lock()
				if counts[fam] == -1 {
					counts[fam] = res.Schema.NumReducers()
				} else if counts[fam] != res.Schema.NumReducers() {
					countsMu.Unlock()
					errs <- fmt.Errorf("isomorphic requests of family %d got %d and %d reducers",
						fam, counts[fam], res.Schema.NumReducers())
					return
				}
				countsMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := p.Stats()
	total := uint64(goroutines * iterations)
	if st.Requests != total {
		t.Errorf("requests = %d, want %d", st.Requests, total)
	}
	if st.CacheMisses != instances {
		t.Errorf("misses = %d, want exactly one fresh solve per canonical instance (%d)",
			st.CacheMisses, instances)
	}
	if st.CacheHits+st.SharedFlights != total-instances {
		t.Errorf("hits (%d) + shared flights (%d) should cover the remaining %d requests",
			st.CacheHits, st.SharedFlights, total-instances)
	}
	if st.CacheHits == 0 {
		t.Error("expected cache hits under the hammer")
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Errors)
	}
	if p.CacheLen() != instances {
		t.Errorf("cache holds %d entries, want %d", p.CacheLen(), instances)
	}
	var wins uint64
	for _, w := range st.SolverWins {
		wins += w
	}
	if wins != instances {
		t.Errorf("solver wins total %d, want %d (one per fresh solve)", wins, instances)
	}
}

// TestCacheLRUEviction fills a tiny cache past capacity and checks the
// oldest canonical instance was evicted and re-solves on the next request.
func TestCacheLRUEviction(t *testing.T) {
	p := New(Config{CacheEntries: 2})
	ctx := context.Background()
	mk := func(base core.Size) Request {
		return Request{
			Problem:  core.ProblemA2A,
			Set:      core.MustNewInputSet([]core.Size{base, base, 1, 1}),
			Capacity: 2 * base,
		}
	}
	for _, base := range []core.Size{4, 5, 6} { // third insert evicts the first
		if _, err := p.Plan(ctx, mk(base)); err != nil {
			t.Fatal(err)
		}
	}
	if p.CacheLen() != 2 {
		t.Fatalf("cache holds %d entries, want 2", p.CacheLen())
	}
	res, err := p.Plan(ctx, mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("evicted instance should re-solve, not hit")
	}
	res, err = p.Plan(ctx, mk(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("recently used instance should still be cached")
	}
}

// TestCacheCapacityIsExact plans 400 distinct instances through planners of
// several capacities: each ends holding exactly CacheEntries plans, the most
// recent ones, and the instance planned just before them was evicted.
func TestCacheCapacityIsExact(t *testing.T) {
	const planned = 400
	ctx := context.Background()
	mk := func(i int) Request {
		b := core.Size(i + 1)
		return Request{
			Problem:  core.ProblemA2A,
			Set:      core.MustNewInputSet([]core.Size{b, 1, 1}),
			Capacity: b + 1,
		}
	}
	for _, n := range []int{1, 17, 100} {
		p := New(Config{CacheEntries: n})
		for i := 0; i < planned; i++ {
			if _, err := p.Plan(ctx, mk(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := p.CacheLen(); got != n {
			t.Fatalf("CacheEntries %d: cache holds %d plans after %d distinct ones", n, got, planned)
		}
		for i := planned - n; i < planned; i++ {
			res, err := p.Plan(ctx, mk(i))
			if err != nil {
				t.Fatal(err)
			}
			if !res.CacheHit {
				t.Fatalf("CacheEntries %d: plan %d of the newest %d missed", n, i, n)
			}
		}
		res, err := p.Plan(ctx, mk(planned-n-1))
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Errorf("CacheEntries %d: plan %d, older than the newest %d, hit", n, planned-n-1, n)
		}
	}
}

// TestCacheWeightBound checks the cache's bound on summed entry weight: a
// plan heavier than the whole budget is served but not retained (and evicts
// nothing), and entries leave from the LRU end while the total exceeds it.
func TestCacheWeightBound(t *testing.T) {
	ctx := context.Background()
	small := Request{Problem: core.ProblemA2A, Set: core.MustNewInputSet([]core.Size{3, 2, 1}), Capacity: 6}
	p := New(Config{CacheEntries: 1})
	if _, err := p.Plan(ctx, small); err != nil {
		t.Fatal(err)
	}
	// 500 unit inputs at q = 10: every input sits in dozens of reducers,
	// far past one entry's budget of avgEntryWeightBudget words.
	unit := make([]core.Size, 500)
	for i := range unit {
		unit[i] = 1
	}
	heavy := Request{Problem: core.ProblemA2A, Set: core.MustNewInputSet(unit), Capacity: 10}
	for i := 0; i < 2; i++ {
		res, err := p.Plan(ctx, heavy)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schema.ValidateA2A(heavy.Set); err != nil {
			t.Fatal(err)
		}
		if res.CacheHit || p.CacheLen() != 1 {
			t.Fatalf("a plan heavier than the whole budget was retained (hit %v, %d entries)", res.CacheHit, p.CacheLen())
		}
	}
	if res, err := p.Plan(ctx, small); err != nil || !res.CacheHit {
		t.Fatalf("the small plan should stay cached past a refused heavy one (hit %v, err %v)", res != nil && res.CacheHit, err)
	}

	// Four slots, a budget of 4 × avgEntryWeightBudget words: three
	// entries of 1.5 budgets each cannot all stay.
	c := newCache(4, &obs.Gauge{}, &obs.Counter{})
	w := avgEntryWeightBudget * 3 / 2
	cns := make([]*canonical, 4)
	for i := range cns {
		b := core.Size(i + 2)
		var err error
		if cns[i], err = canonicalize(Request{Problem: core.ProblemA2A,
			Set: core.MustNewInputSet([]core.Size{b, 1}), Capacity: b + 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, cn := range cns[:2] {
		c.store(cn, &cachedPlan{}, w)
	}
	c.lookup(cns[0]) // cns[1] is now the least recently used
	c.store(cns[2], &cachedPlan{}, w)
	if c.len() != 2 || c.weight != 2*w {
		t.Fatalf("after a third entry over the budget: %d entries, weight %d; want 2, %d", c.len(), c.weight, 2*w)
	}
	if c.lookup(cns[1]) != nil || c.lookup(cns[0]) == nil || c.lookup(cns[2]) == nil {
		t.Fatal("the weight bound evicted other than the least recently used entry")
	}
	c.store(cns[3], &cachedPlan{}, c.weightCap) // the whole budget: the rest goes
	if c.len() != 1 || c.weight != c.weightCap || c.lookup(cns[3]) == nil {
		t.Fatalf("an entry over the budget with the others kept %d entries, weight %d", c.len(), c.weight)
	}
}
