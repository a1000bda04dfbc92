package assign_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pkg/assign"
)

func TestPlanA2A(t *testing.T) {
	sizes := []assign.Size{3, 3, 2, 2, 4, 1}
	res, err := assign.Plan(context.Background(),
		assign.A2A(sizes),
		assign.Capacity(10),
		assign.Deterministic(),
	)
	if err != nil {
		t.Fatal(err)
	}
	set := assign.MustNewInputSet(sizes)
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Fatalf("planned schema invalid: %v", err)
	}
	if res.Cost.Reducers != res.Schema.NumReducers() {
		t.Errorf("cost reducers %d != schema %d", res.Cost.Reducers, res.Schema.NumReducers())
	}
	if res.Schema.NumReducers() < res.LowerBoundReducers {
		t.Errorf("reducers %d below proved lower bound %d", res.Schema.NumReducers(), res.LowerBoundReducers)
	}
	if res.Gap != res.Schema.NumReducers()-res.LowerBoundReducers {
		t.Errorf("gap %d inconsistent", res.Gap)
	}
	if res.Winner == "" {
		t.Error("missing winner")
	}
}

func TestPlanX2Y(t *testing.T) {
	xs := []assign.Size{7, 2, 1}
	ys := []assign.Size{1, 2, 1, 1}
	res, err := assign.Plan(context.Background(),
		assign.X2Y(xs, ys),
		assign.Capacity(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schema.ValidateX2Y(assign.MustNewInputSet(xs), assign.MustNewInputSet(ys)); err != nil {
		t.Fatalf("planned schema invalid: %v", err)
	}
}

func TestPlanValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := assign.Plan(ctx, assign.Capacity(10)); !errors.Is(err, assign.ErrNoInstance) {
		t.Errorf("no instance: err = %v, want ErrNoInstance", err)
	}
	if _, err := assign.Plan(ctx, assign.A2A([]assign.Size{1, 2})); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("missing capacity: err = %v", err)
	}
	if _, err := assign.Plan(ctx, assign.A2A([]assign.Size{1}), assign.X2Y([]assign.Size{1}, []assign.Size{1}), assign.Capacity(5)); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("conflicting problems: err = %v", err)
	}
	// Infeasible instance: two inputs that can never share a reducer.
	if _, err := assign.Plan(ctx, assign.A2A([]assign.Size{5, 5}), assign.Capacity(2)); !errors.Is(err, assign.ErrInfeasible) {
		t.Errorf("infeasible: err = %v, want ErrInfeasible", err)
	}
}

func TestPlanCacheIsolationAndHits(t *testing.T) {
	pl := assign.NewPlanner(assign.PlannerConfig{CacheEntries: 128})
	ctx := context.Background()
	first, err := pl.Plan(ctx, assign.A2A([]assign.Size{2, 2, 2, 2}), assign.Capacity(8))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first plan cannot be a cache hit")
	}
	// An isomorphic permutation must be served from this planner's cache.
	again, err := pl.Plan(ctx, assign.A2A([]assign.Size{2, 2, 2, 2}), assign.Capacity(8))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("identical repeat was not a cache hit")
	}
	st := pl.Stats()
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 2 requests / 1 hit / 1 miss", st)
	}
}

func TestExecuteA2A(t *testing.T) {
	payloads := [][]byte{[]byte("aaa"), []byte("bbb"), []byte("cc"), []byte("d")}
	var mu sync.Mutex
	met := map[string]int{}
	ex, err := assign.Execute(context.Background(),
		assign.Inputs(payloads),
		assign.Capacity(10),
		assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
			mu.Lock()
			met[fmt.Sprintf("%d-%d", a.ID, b.ID)]++
			mu.Unlock()
			emit([]byte{byte(a.ID), byte(b.ID)})
			return nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PairsProcessed != 6 {
		t.Errorf("pairs = %d, want 6", ex.PairsProcessed)
	}
	if !ex.Audited {
		t.Error("run was not audited")
	}
	if len(ex.Output) != 6 {
		t.Errorf("output = %d records, want 6", len(ex.Output))
	}
	for pair, n := range met {
		if n != 1 {
			t.Errorf("pair %s met %d times, want exactly once", pair, n)
		}
	}
	if ex.ShuffleBytes == 0 || ex.MaxReducerLoad == 0 {
		t.Error("expected non-zero shuffle accounting")
	}
	if ex.Plan == nil || ex.Plan.Schema == nil {
		t.Fatal("execution carries no plan")
	}
}

func TestExecuteX2Y(t *testing.T) {
	x := [][]byte{[]byte("aaaaaaa"), []byte("bb"), []byte("c")}
	y := [][]byte{[]byte("d"), []byte("ee"), []byte("f"), []byte("g")}
	ex, err := assign.Execute(context.Background(),
		assign.XYInputs(x, y),
		assign.Capacity(10),
		assign.Pair(func(a, b assign.Record, emit func([]byte)) error { return nil }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PairsProcessed != 12 {
		t.Errorf("pairs = %d, want 12 (3x4 cross pairs)", ex.PairsProcessed)
	}
	if !ex.Audited {
		t.Error("run was not audited")
	}
}

// TestExecuteSingleInputIsAudited: one input requires no pair, so its schema
// has no reducer and nothing runs — but the static check passed, and Audited
// is false only under NoAudit.
func TestExecuteSingleInputIsAudited(t *testing.T) {
	pair := assign.Pair(func(a, b assign.Record, emit func([]byte)) error { return errors.New("no pair exists") })
	for _, tc := range []struct {
		extra []assign.Option
		want  bool
	}{{nil, true}, {[]assign.Option{assign.NoAudit()}, false}} {
		opts := append([]assign.Option{assign.Inputs([][]byte{[]byte("alone")}), assign.Capacity(10), pair}, tc.extra...)
		ex, err := assign.Execute(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Audited != tc.want || ex.PairsProcessed != 0 || len(ex.Output) != 0 {
			t.Errorf("audited=%v pairs=%d outputs=%d, want %v/0/0", ex.Audited, ex.PairsProcessed, len(ex.Output), tc.want)
		}
	}
}

// TestExecuteConcurrentlyThroughOnePlanner executes one plan from several
// goroutines while others execute plans of their own, all through one
// planner and therefore one compile cache: every run is audited over its own
// instance's pairs, and the shared plan's runs are served from the cache
// (each from a schema copy of its own, so each hit is a verified one). CI
// runs it with -race -count=10.
func TestExecuteConcurrentlyThroughOnePlanner(t *testing.T) {
	const sharers, loners, rounds = 4, 4, 4
	hits := obs.Default.CounterVec("pland_exec_compile_total", "", "outcome").With("hit")
	before := hits.Value()
	pl := assign.NewPlanner(assign.PlannerConfig{})
	execute := func(n int) error {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = []byte(strings.Repeat("x", 1+i%5))
		}
		var pairs atomic.Int64
		ex, err := pl.Execute(context.Background(),
			assign.Inputs(payloads),
			assign.Capacity(24),
			assign.Deterministic(),
			assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
				if len(a.Data) != 1+a.ID%5 || len(b.Data) != 1+b.ID%5 {
					return fmt.Errorf("pair (%d,%d) carries %q/%q", a.ID, b.ID, a.Data, b.Data)
				}
				pairs.Add(1)
				return nil
			}),
		)
		if err != nil {
			return err
		}
		if want := int64(n * (n - 1) / 2); !ex.Audited || ex.PairsProcessed != want || pairs.Load() != want {
			return fmt.Errorf("m=%d: audited=%v processed=%d called=%d, want %d pairs", n, ex.Audited, ex.PairsProcessed, pairs.Load(), want)
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < sharers+loners; g++ {
		n := 40
		if g >= sharers {
			n = 41 + g // a plan nobody else executes
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := execute(n); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A schema is retained on its second sight, and every sharer may reach
	// that one before the first of them has finished compiling.
	if got, want := hits.Value()-before, uint64(sharers*rounds-(sharers+1)+loners*(rounds-2)); got < want {
		t.Errorf("%d compile-cache hits, want at least %d", got, want)
	}
}

// TestExecuteEqualSizedJoinOnTheAffinePlane executes the similarity-join
// shape — 1,500 equal 16-byte records, q = 1,600, so 100 per reducer — end to
// end. The plan is the affine plane of order 16: 272 reducers, each record
// shipped 17 times (25,500 shuffled records), and every one of the
// C(1500,2) pairs processed once, audited on the fast path.
func TestExecuteEqualSizedJoinOnTheAffinePlane(t *testing.T) {
	const m = 1500
	slow := obs.Default.Counter("pland_exec_audit_slow_replays_total", "")
	before := slow.Value()
	payloads := make([][]byte, m)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("%016d", i))
	}
	var pairs atomic.Int64
	ex, err := assign.NewPlanner(assign.PlannerConfig{}).Execute(context.Background(),
		assign.Inputs(payloads),
		assign.Capacity(100*16),
		assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
			pairs.Add(1)
			return nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Plan.Schema.Algorithm; got != "a2a/affine-plane" {
		t.Errorf("planned with %q, want a2a/affine-plane", got)
	}
	if ex.Plan.Cost.Reducers != 272 || ex.Plan.Cost.ReplicationRate != 17 || ex.ShuffleRecords != 25500 {
		t.Errorf("%d reducers, replication %v, %d shuffled records; want 272, 17 and 25500",
			ex.Plan.Cost.Reducers, ex.Plan.Cost.ReplicationRate, ex.ShuffleRecords)
	}
	if want := int64(m * (m - 1) / 2); !ex.Audited || ex.PairsProcessed != want || pairs.Load() != want {
		t.Errorf("audited=%v processed=%d called=%d, want %d pairs", ex.Audited, ex.PairsProcessed, pairs.Load(), want)
	}
	if got := slow.Value() - before; got != 0 {
		t.Errorf("%d audits fell back to the pair-by-pair replay", got)
	}
}

func TestExecuteValidation(t *testing.T) {
	ctx := context.Background()
	pair := assign.Pair(func(a, b assign.Record, emit func([]byte)) error { return nil })
	if _, err := assign.Execute(ctx, assign.Inputs([][]byte{[]byte("a"), []byte("b")}), assign.Capacity(4)); !errors.Is(err, assign.ErrNoPair) {
		t.Errorf("missing Pair: err = %v, want ErrNoPair", err)
	}
	if _, err := assign.Execute(ctx, assign.A2A([]assign.Size{1, 1}), assign.Capacity(4), pair); err == nil || !strings.Contains(err.Error(), "concrete") {
		t.Errorf("abstract instance: err = %v", err)
	}
}

func TestExecuteCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := assign.Execute(ctx,
		assign.Inputs([][]byte{[]byte("a"), []byte("b")}),
		assign.Capacity(4),
		assign.NoCache(),
		assign.Pair(func(a, b assign.Record, emit func([]byte)) error { return nil }),
	)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestTimeoutOptionStillReturnsBaseline(t *testing.T) {
	// A 1ns Timeout no member could meet does not change the plan: it must
	// still arrive, be valid, and be the plan of the default options.
	sizes := make([]assign.Size, 60)
	for i := range sizes {
		sizes[i] = assign.Size(1 + i%4)
	}
	res, err := assign.Plan(context.Background(),
		assign.A2A(sizes),
		assign.Capacity(20),
		assign.Timeout(time.Nanosecond),
		assign.NoCache(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schema.ValidateA2A(assign.MustNewInputSet(sizes)); err != nil {
		t.Fatalf("schema invalid: %v", err)
	}
	plain, err := assign.Plan(context.Background(), assign.A2A(sizes), assign.Capacity(20), assign.NoCache())
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != plain.Winner || !reflect.DeepEqual(res.Schema, plain.Schema) {
		t.Errorf("Timeout(1ns) served %s's schema, the default options %s's", res.Winner, plain.Winner)
	}
}

// TestExportImportPlan: one planner's solve, exported, lets another answer
// the mirrored and shuffled instance from its cache with a schema that is
// valid for the sides as the second caller numbered them; a plan for another
// instance is refused and the options are checked like Plan's.
func TestExportImportPlan(t *testing.T) {
	ctx := context.Background()
	xs, ys := []assign.Size{7, 2, 1}, []assign.Size{1, 2, 1, 1}
	solver, other := assign.NewPlanner(assign.PlannerConfig{}), assign.NewPlanner(assign.PlannerConfig{})
	if _, err := solver.Plan(ctx, assign.X2Y(xs, ys), assign.Capacity(10), assign.Deterministic()); err != nil {
		t.Fatal(err)
	}
	key, plan, err := solver.ExportPlan(assign.X2Y(xs, ys), assign.Capacity(10))
	if err != nil || plan == nil {
		t.Fatalf("ExportPlan = %q, %s, %v", key, plan, err)
	}
	mirrored := []assign.Option{assign.X2Y([]assign.Size{1, 1, 2, 1}, []assign.Size{1, 7, 2}), assign.Capacity(10)}
	if otherKey, held, err := other.ExportPlan(mirrored...); err != nil || otherKey != key || held != nil {
		t.Fatalf("ExportPlan of the mirrored instance on a fresh planner = %q, %s, %v; want key %q alone", otherKey, held, err, key)
	}
	if err := other.ImportPlan(plan, mirrored...); err != nil {
		t.Fatalf("ImportPlan: %v", err)
	}
	res, err := other.Plan(ctx, mirrored...)
	if err != nil || !res.CacheHit {
		t.Fatalf("Plan after ImportPlan = %+v, %v; want a cache hit", res, err)
	}
	if err := res.Schema.ValidateX2Y(assign.MustNewInputSet([]assign.Size{1, 1, 2, 1}), assign.MustNewInputSet([]assign.Size{1, 7, 2})); err != nil {
		t.Fatalf("imported plan invalid for the mirrored request: %v", err)
	}
	if err := other.ImportPlan(plan, assign.X2Y(xs, ys), assign.Capacity(11)); err == nil {
		t.Error("a plan for capacity 10 was imported for capacity 11")
	}
	if _, _, err := other.ExportPlan(assign.Capacity(10)); !errors.Is(err, assign.ErrNoInstance) {
		t.Errorf("ExportPlan without an instance = %v", err)
	}
	if err := other.ImportPlan(plan, assign.A2A(xs)); err == nil {
		t.Error("ImportPlan without a capacity succeeded")
	}
}
