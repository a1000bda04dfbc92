package assign_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// TestPlanA2ARefusesWrappingTotal: three sizes of 4e18 sum past
// math.MaxInt64, and a wrapped total once took the one-reducer path with a
// negative load. Such an instance is refused.
func TestPlanA2ARefusesWrappingTotal(t *testing.T) {
	res, err := assign.Plan(context.Background(), assign.A2A([]assign.Size{4e18, 4e18, 4e18}), assign.Capacity(9e18))
	if !errors.Is(err, assign.ErrTotalTooLarge) {
		t.Fatalf("err = %v, want ErrTotalTooLarge (result %+v)", err, res)
	}
}

// TestPlanX2YSidesSummingPastTheLimit: each side's total fits an int64 but
// the two together do not, so the X2Y instance is valid, and its sum once
// wrapped into the one-reducer path. It plans within capacity instead.
func TestPlanX2YSidesSummingPastTheLimit(t *testing.T) {
	const q = assign.Size(9e18)
	xs, ys := []assign.Size{4e18, 4e18}, []assign.Size{4e18}
	res, err := assign.Plan(context.Background(), assign.X2Y(xs, ys), assign.Capacity(q))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schema.ValidateX2Y(assign.MustNewInputSet(xs), assign.MustNewInputSet(ys)); err != nil {
		t.Fatalf("planned schema invalid: %v", err)
	}
	for r, red := range res.Schema.Reducers {
		if red.Load <= 0 || red.Load > q {
			t.Errorf("reducer %d (winner %s) has load %d, outside (0, %d]", r, res.Winner, red.Load, q)
		}
	}
	if res.Schema.NumReducers() != 2 {
		t.Errorf("reducers = %d (winner %s), want 2: each X input meets the Y input alone", res.Schema.NumReducers(), res.Winner)
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

// TestExecuteEqualSizedJoinOnThePlanePlusARemainder executes 401 equal 8-byte
// records at q = 240, so 30 per reducer. The plan is AG(2,13) over the first
// 338 records, a grid of bins of 16 of the 63 left beside bins of 14 main
// ones, and EqualSized's 10 reducers over those 63: 292 reducers, against
// EqualSized's 351. A pair of remainder records in one bin of 16 meets on
// every grid reducer of that bin and on the sub-schema too, so owner election
// must still process each of the C(401,2) pairs once: the pair count, an
// order-free checksum of the emitted records against the nested loop, and the
// audit, on its fast path, say so.
func TestExecuteEqualSizedJoinOnThePlanePlusARemainder(t *testing.T) {
	const m = 401
	slow := obs.Default.Counter("pland_exec_audit_slow_replays_total", "")
	before := slow.Value()
	payloads := make([][]byte, m)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("%08d", i*7919))
	}
	// pairSum is an order-free digest of one pair: FNV-1a of the lower ID's
	// record followed by the higher's.
	pairSum := func(lo, hi []byte) uint64 {
		h := fnv.New64a()
		h.Write(lo)
		h.Write(hi)
		return h.Sum64()
	}
	ex, err := assign.NewPlanner(assign.PlannerConfig{}).Execute(context.Background(),
		assign.Inputs(payloads),
		assign.Capacity(30*8),
		assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
			if a.ID > b.ID {
				a, b = b, a
			}
			emit(binary.LittleEndian.AppendUint64(nil, pairSum(a.Data, b.Data)))
			return nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Plan.Schema.Algorithm; got != "a2a/plane-remainder" || ex.Plan.Cost.Reducers != 292 {
		t.Errorf("planned with %q on %d reducers, want a2a/plane-remainder on 292", got, ex.Plan.Cost.Reducers)
	}
	var got, want uint64
	for _, rec := range ex.Output {
		got += binary.LittleEndian.Uint64(rec)
	}
	for i := range payloads {
		for j := i + 1; j < m; j++ {
			want += pairSum(payloads[i], payloads[j])
		}
	}
	if pairs := int64(m * (m - 1) / 2); !ex.Audited || ex.PairsProcessed != pairs || int64(len(ex.Output)) != pairs {
		t.Errorf("audited=%v processed=%d emitted=%d, want %d pairs", ex.Audited, ex.PairsProcessed, len(ex.Output), pairs)
	}
	if got != want {
		t.Errorf("output checksum %x, nested-loop reference %x", got, want)
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
	// Deterministic is accepted and changes nothing: the plan must still
	// arrive, be valid, and be the plan of the default options.
	sizes := make([]assign.Size, 60)
	for i := range sizes {
		sizes[i] = assign.Size(1 + i%4)
	}
	res, err := assign.Plan(context.Background(),
		assign.A2A(sizes),
		assign.Capacity(20),
		assign.Deterministic(),
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
		t.Errorf("Deterministic served %s's schema, the default options %s's", res.Winner, plain.Winner)
	}
}

// TestKey: the key is the same for every reordering of an instance and for
// the mirrored X2Y one, differs with the capacity, is empty for what no
// planner caches, and checks the options like Plan.
func TestKey(t *testing.T) {
	key := func(opts ...assign.Option) string {
		t.Helper()
		k, err := assign.Key(opts...)
		if err != nil {
			t.Fatalf("Key: %v", err)
		}
		return k
	}
	xy := key(assign.X2Y([]assign.Size{7, 2, 1}, []assign.Size{1, 2, 1, 1}), assign.Capacity(10))
	if !strings.HasPrefix(xy, "p-") || len(xy) != 18 {
		t.Fatalf("key %q is not p- and 16 hex digits", xy)
	}
	if got := key(assign.X2Y([]assign.Size{1, 1, 2, 1}, []assign.Size{1, 7, 2}), assign.Capacity(10)); got != xy {
		t.Errorf("the mirrored, reordered instance has key %q, want %q", got, xy)
	}
	if got := key(assign.X2Y([]assign.Size{7, 2, 1}, []assign.Size{1, 2, 1, 1}), assign.Capacity(11)); got == xy {
		t.Error("capacities 10 and 11 share a key")
	}
	if a, b := key(assign.A2A([]assign.Size{3, 1, 2}), assign.Capacity(6)), key(assign.A2A([]assign.Size{2, 3, 1}), assign.Capacity(6)); a != b || a == "" {
		t.Errorf("reordered A2A keys %q and %q", a, b)
	}
	if got := key(assign.A2A([]assign.Size{3, 1, 2}), assign.Capacity(6), assign.NoCache()); got != "" {
		t.Errorf("NoCache key = %q, want none", got)
	}
	ones := make([]assign.Size, 20_001)
	for i := range ones {
		ones[i] = 1
	}
	if got := key(assign.A2A(ones), assign.Capacity(6)); got != "" {
		t.Errorf("a 20,001-input instance has key %q, want none", got)
	}
	if _, err := assign.Key(assign.Capacity(10)); !errors.Is(err, assign.ErrNoInstance) {
		t.Errorf("Key without an instance = %v", err)
	}
}

// TestPlanCostNearTheSizeLimit: communication sums of inputs near 2⁶³
// saturate instead of wrapping, and the replication rate and mean load stay
// true: the ratios are float sums, and an X2Y instance's sides are not added
// as sizes.
func TestPlanCostNearTheSizeLimit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		q     assign.Size
		sizes []assign.Size // A2A when ys is nil, else X
		ys    []assign.Size
	}{
		{name: "A2A small", q: 10, sizes: []assign.Size{3, 3, 2, 2, 4, 1}},
		{name: "A2A pairs past the limit", q: 6.5e18, sizes: []assign.Size{3e18, 3e18, 3e18}},
		{name: "A2A four inputs", q: 4.5e18, sizes: []assign.Size{2e18, 2e18, 2e18, 2e18}},
		{name: "X2Y small", q: 10, sizes: []assign.Size{7, 2, 1}, ys: []assign.Size{1, 2, 1, 1}},
		{name: "X2Y sides past the limit", q: 9.2e18, sizes: []assign.Size{5e18}, ys: []assign.Size{4e18, 4e18}},
		{name: "X2Y mirrored", q: 9.2e18, sizes: []assign.Size{4e18, 4e18}, ys: []assign.Size{5e18}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			instance := assign.A2A(tc.sizes)
			total := new(big.Float)
			for _, sz := range append(append([]assign.Size(nil), tc.sizes...), tc.ys...) {
				total.Add(total, new(big.Float).SetInt64(int64(sz)))
			}
			if tc.ys != nil {
				instance = assign.X2Y(tc.sizes, tc.ys)
			}
			res, err := assign.Plan(context.Background(), instance, assign.Capacity(tc.q), assign.NoCache())
			if err != nil {
				t.Fatal(err)
			}
			comm := new(big.Int)
			for _, r := range res.Schema.Reducers {
				comm.Add(comm, big.NewInt(int64(r.Load)))
			}
			want := assign.Size(math.MaxInt64)
			if comm.IsInt64() {
				want = assign.Size(comm.Int64())
			}
			if res.Cost.Communication < 0 || res.Cost.Communication != want {
				t.Errorf("communication = %d, want %d (the sum of loads, %s, saturated)", res.Cost.Communication, want, comm)
			}
			rate, _ := new(big.Float).Quo(new(big.Float).SetInt(comm), total).Float64()
			if math.Abs(res.Cost.ReplicationRate-rate) > 1e-9 {
				t.Errorf("replication rate = %v, want %v", res.Cost.ReplicationRate, rate)
			}
			mean, _ := new(big.Float).Quo(new(big.Float).SetInt(comm), big.NewFloat(float64(res.Cost.Reducers))).Float64()
			if math.Abs(res.Cost.MeanLoad-mean) > 1e-9*mean {
				t.Errorf("mean load = %v, want %v", res.Cost.MeanLoad, mean)
			}
			if res.LowerBoundReducers < 1 || res.LowerBoundReducers > res.Cost.Reducers {
				t.Errorf("lower bound %d, reducers %d", res.LowerBoundReducers, res.Cost.Reducers)
			}
		})
	}
}
