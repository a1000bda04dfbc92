package main

import (
	"errors"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/pkg/assign"
)

func TestRunWithHeavyHitters(t *testing.T) {
	for _, extra := range [][]string{nil, {"-membudget", "2048", "-spilldir", t.TempDir()}} {
		var b strings.Builder
		err := run(append([]string{"-tuples", "2000", "-keys", "30", "-skew", "1.4", "-q", "3000"}, extra...), &b)
		if err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range []string{"Skew join", "heavy_keys", "output_rows", "output verified against the reference hash join: OK",
			"Plain hash-join baseline", "violates_q"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v: output lacks %q:\n%s", extra, want, out)
			}
		}
	}
}

func TestRunUniformKeysWithoutBaseline(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-tuples", "500", "-keys", "20", "-skew", "0", "-q", "4000", "-baseline=false"}, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "Plain hash-join baseline") {
		t.Error("baseline section printed despite -baseline=false")
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-tuples", "0"}, &b); err == nil {
		t.Error("accepted zero tuples")
	}
	if err := run([]string{"-q", "0"}, &b); err == nil {
		t.Error("accepted zero capacity")
	}
	if err := run([]string{"-skew", "1"}, &b); err == nil {
		t.Error("accepted a skew in (0, 1]")
	}
	// A capacity below a single pair of tuples is infeasible for heavy keys.
	if err := run([]string{"-tuples", "200", "-keys", "2", "-skew", "1.5", "-q", "20", "-payload", "30"}, &b); err == nil {
		t.Error("accepted an infeasible capacity")
	}
}

// relation builds a relation from per-key tuple counts, with payloads of a
// fixed length.
func relation(payload int, keyCounts map[string]int) *workload.Relation {
	keys := make([]string, 0, len(keyCounts))
	for k := range keyCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rel := &workload.Relation{}
	for _, k := range keys {
		for i := 0; i < keyCounts[k]; i++ {
			rel.Tuples = append(rel.Tuples, workload.Tuple{Key: k, Payload: strings.Repeat(string(rune('a'+i%26)), payload)})
		}
	}
	return rel
}

// shapeRelations are the join's reference shape: 3,000 Zipf-keyed tuples
// per side over 60 keys at skew 1.4, with 12-byte payloads; at q = 4000
// some keys are heavy and some light.
func shapeRelations(t *testing.T) (x, y *workload.Relation) {
	t.Helper()
	spec := workload.RelationSpec{NumTuples: 3000, NumKeys: 60, Skew: 1.4, PayloadBytes: 12}
	x, err := workload.GenerateRelation(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	y, err = workload.GenerateRelation(spec, 22)
	if err != nil {
		t.Fatal(err)
	}
	return x, y
}

const shapeQ = 4000

// join runs skewJoin and fails t unless its rows equal the reference count.
func join(t *testing.T, x, y *workload.Relation, q assign.Size) *joinResult {
	t.Helper()
	res, err := skewJoin(x, y, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceCount(x, y); res.rows != want {
		t.Fatalf("join produced %d rows, reference %d", res.rows, want)
	}
	return res
}

// tupleSizes is the input set of one side of one key.
func tupleSizes(tuples [][]byte) *assign.InputSet {
	s := make([]assign.Size, len(tuples))
	for i, tp := range tuples {
		s[i] = assign.Size(len(tp))
	}
	return assign.MustNewInputSet(s)
}

// TestRunMatchesReferenceWithHeavyHitter checks the rows against the
// reference at the reference shape, where keys of both kinds occur, and on a
// hand-built pair of relations with one hot key among light ones.
func TestRunMatchesReferenceWithHeavyHitter(t *testing.T) {
	x, y := shapeRelations(t)
	res := join(t, x, y, shapeQ)
	if len(res.heavy) == 0 || res.lightKeys == 0 {
		t.Errorf("%d heavy and %d light keys; want both kinds at this skew and capacity", len(res.heavy), res.lightKeys)
	}
	x = relation(10, map[string]int{"hot": 40, "cold1": 2, "cold2": 3})
	y = relation(10, map[string]int{"hot": 30, "cold1": 1, "cold3": 5})
	res = join(t, x, y, 200)
	if len(res.heavy) != 1 || res.heavy[0].key != "hot" || res.lightKeys != 1 {
		t.Errorf("%d heavy and %d light keys; want hot heavy and cold1 light", len(res.heavy), res.lightKeys)
	}
}

// TestHeavySchemasValidate checks that each heavy key ran a valid X2Y
// schema over the sizes of its own tuples.
func TestHeavySchemasValidate(t *testing.T) {
	x := relation(12, map[string]int{"hot1": 30, "hot2": 25, "c": 2})
	y := relation(12, map[string]int{"hot1": 28, "hot2": 20, "c": 3})
	res := join(t, x, y, 250)
	if len(res.heavy) != 2 || res.heavy[0].key != "hot1" || res.heavy[1].key != "hot2" {
		t.Fatalf("%d heavy keys; want hot1 and hot2", len(res.heavy))
	}
	xs, ys := groupByKey(x), groupByKey(y)
	for _, h := range res.heavy {
		if err := h.ex.Plan.Schema.ValidateX2Y(tupleSizes(xs[h.key].tuples), tupleSizes(ys[h.key].tuples)); err != nil {
			t.Errorf("key %q: %v", h.key, err)
		}
	}
}

// TestHeavyReducerLoadsWithinCapacity checks that every heavy key's schema
// loads each reducer with at most q bytes of tuples, and that the join's
// max load, light keys included, stays within q.
func TestHeavyReducerLoadsWithinCapacity(t *testing.T) {
	x := relation(12, map[string]int{"hot": 50, "c1": 4, "c2": 3, "c3": 2})
	y := relation(12, map[string]int{"hot": 40, "c1": 2, "c2": 5, "c4": 1})
	const q = 300
	res := join(t, x, y, q)
	if len(res.heavy) != 1 {
		t.Fatalf("%d heavy keys; want hot alone", len(res.heavy))
	}
	xs, ys := groupByKey(x), groupByKey(y)
	for _, h := range res.heavy {
		for r, red := range h.ex.Plan.Schema.Reducers {
			load := 0
			for _, i := range red.XInputs {
				load += len(xs[h.key].tuples[i])
			}
			for _, i := range red.YInputs {
				load += len(ys[h.key].tuples[i])
			}
			if load > q {
				t.Errorf("key %q: reducer %d holds %d bytes of tuples, over q = %d", h.key, r, load, q)
			}
		}
		if h.ex.Plan.Cost.MaxLoad > q {
			t.Errorf("key %q: max load %d exceeds q", h.key, h.ex.Plan.Cost.MaxLoad)
		}
	}
	if res.maxLoad > q {
		t.Errorf("the join's max load %d exceeds q = %d", res.maxLoad, q)
	}
}

// TestRunNoDuplicateOutputs checks that each heavy key's run processed each
// of its X-Y tuple pairs exactly once, as the audit attests, so the rows
// hold neither duplicates nor misses.
func TestRunNoDuplicateOutputs(t *testing.T) {
	x := relation(8, map[string]int{"hot": 25, "warm": 6})
	y := relation(8, map[string]int{"hot": 20, "warm": 5})
	res := join(t, x, y, 150)
	if len(res.heavy) == 0 {
		t.Fatal("no key is heavy; the test proves nothing")
	}
	xs, ys := groupByKey(x), groupByKey(y)
	for _, h := range res.heavy {
		want := int64(len(xs[h.key].tuples) * len(ys[h.key].tuples))
		if !h.ex.Audited || h.ex.PairsProcessed != want {
			t.Errorf("key %q: audited=%v, %d pairs processed of %d", h.key, h.ex.Audited, h.ex.PairsProcessed, want)
		}
	}
}

// TestRunCountsEveryKeyPair checks that the join counts rather than
// materialises: each key contributes nₓ·n_y rows, a light key by
// arithmetic and a heavy one by the pairs its run processed.
func TestRunCountsEveryKeyPair(t *testing.T) {
	x := relation(6, map[string]int{"hot": 30, "cold": 3})
	y := relation(6, map[string]int{"hot": 25, "cold": 2})
	res := join(t, x, y, 120)
	if len(res.heavy) != 1 || res.lightKeys != 1 || res.rows != 30*25+3*2 {
		t.Errorf("%d heavy and %d light keys, %d rows; want 1, 1 and %d", len(res.heavy), res.lightKeys, res.rows, 30*25+3*2)
	}
	if len(res.heavy) == 1 && res.heavy[0].ex.Output != nil {
		t.Errorf("the heavy run kept %d output records; the join only counts", len(res.heavy[0].ex.Output))
	}
}

// TestGeneratedSkewedWorkloadEndToEnd joins generated Zipf-keyed relations
// at a capacity that makes some key heavy.
func TestGeneratedSkewedWorkloadEndToEnd(t *testing.T) {
	x, err := workload.GenerateRelation(workload.RelationSpec{Name: "X", NumTuples: 800, NumKeys: 40, Skew: 1.4, PayloadBytes: 10}, 101)
	if err != nil {
		t.Fatal(err)
	}
	y, err := workload.GenerateRelation(workload.RelationSpec{Name: "Y", NumTuples: 800, NumKeys: 40, Skew: 1.4, PayloadBytes: 10}, 202)
	if err != nil {
		t.Fatal(err)
	}
	if res := join(t, x, y, 1500); len(res.heavy) == 0 {
		t.Error("expected at least one heavy hitter with this skew and capacity")
	}
}

// TestHashJoinBaseline checks the plain hash join's arithmetic: its max load
// is the largest key's X plus Y bytes, which exceeds q, while the skew-aware
// join stays within q.
func TestHashJoinBaseline(t *testing.T) {
	x := relation(10, map[string]int{"hot": 40, "cold": 2})
	y := relation(10, map[string]int{"hot": 30, "cold": 2})
	const q = 200
	res := join(t, x, y, q)
	if want := assign.Size((40 + 30) * len("hot0123456789")); res.largestKey != want {
		t.Errorf("the hash join's largest key is %d bytes, want hot's %d", res.largestKey, want)
	}
	if res.largestKey <= q || res.maxLoad > q || res.maxLoad == 0 {
		t.Errorf("hash join max load %d, skew-aware max load %d, q %d", res.largestKey, res.maxLoad, q)
	}
}

// TestSkewJoinRejectsNonPositiveCapacity calls the join directly with zero
// and negative q.
func TestSkewJoinRejectsNonPositiveCapacity(t *testing.T) {
	x := relation(4, map[string]int{"a": 1})
	y := relation(4, map[string]int{"a": 1})
	for _, q := range []assign.Size{0, -1} {
		if _, err := skewJoin(x, y, q); err == nil {
			t.Errorf("accepted capacity %d", q)
		}
	}
}

// TestSkewJoinErrors calls the join directly: a key whose single X-Y tuple
// pair exceeds q is infeasible, while an empty relation joins to nothing.
func TestSkewJoinErrors(t *testing.T) {
	bigX := relation(50, map[string]int{"a": 1})
	bigY := relation(50, map[string]int{"a": 1})
	if _, err := skewJoin(bigX, bigY, 60); !errors.Is(err, assign.ErrInfeasible) {
		t.Errorf("infeasible capacity: err = %v", err)
	}
	full, empty := relation(4, map[string]int{"a": 1}), &workload.Relation{}
	for _, sides := range [][2]*workload.Relation{{full, empty}, {empty, full}} {
		res, err := skewJoin(sides[0], sides[1], 10)
		if err != nil || res.rows != 0 || len(res.heavy) != 0 || res.lightKeys != 0 {
			t.Errorf("a join with an empty side: %v, %+v", err, res)
		}
	}
}

// TestPipelineX2YSkewJoin checks the load at the reference shape: every
// heavy key's run is audited, processes each of its X-Y pairs once and
// keeps its max load within q, while the plain hash join's largest key
// alone exceeds q; the command run at the same shape reports the violation.
func TestPipelineX2YSkewJoin(t *testing.T) {
	x, y := shapeRelations(t)
	res := join(t, x, y, shapeQ)
	xs, ys := groupByKey(x), groupByKey(y)
	for _, h := range res.heavy {
		xk, yk := xs[h.key], ys[h.key]
		if xk.bytes+yk.bytes <= shapeQ {
			t.Errorf("key %q of %d bytes ran as heavy", h.key, xk.bytes+yk.bytes)
		}
		if !h.ex.Audited || h.ex.PairsProcessed != int64(len(xk.tuples)*len(yk.tuples)) {
			t.Errorf("key %q: audited=%v, %d pairs processed of %d", h.key, h.ex.Audited, h.ex.PairsProcessed, len(xk.tuples)*len(yk.tuples))
		}
		if err := h.ex.Plan.Schema.ValidateX2Y(tupleSizes(xk.tuples), tupleSizes(yk.tuples)); err != nil {
			t.Errorf("key %q: %v", h.key, err)
		}
		if h.ex.Plan.Cost.MaxLoad > shapeQ {
			t.Errorf("key %q: max load %d exceeds q", h.key, h.ex.Plan.Cost.MaxLoad)
		}
	}
	if res.maxLoad > shapeQ || res.largestKey <= shapeQ {
		t.Errorf("skew-aware max load %d, hash join's largest key %d, q %d", res.maxLoad, res.largestKey, shapeQ)
	}
	var b strings.Builder
	if err := run([]string{"-tuples", "3000", "-keys", "60", "-skew", "1.4", "-payload", "12", "-q", "4000", "-seed", "21"}, &b); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^\s+\d+\s+true\s`).MatchString(b.String()) {
		t.Errorf("the command does not report the hash join violating q:\n%s", b.String())
	}
}

// TestRunMatchesReferenceLightKeysOnly sets q to the largest key's bytes: a
// key that fits q exactly is light.
func TestRunMatchesReferenceLightKeysOnly(t *testing.T) {
	x := relation(4, map[string]int{"k1": 3, "k2": 2, "k3": 1})
	y := relation(4, map[string]int{"k1": 2, "k2": 4, "k4": 3})
	res, err := skewJoin(x, y, 6*(2+4))
	if err != nil {
		t.Fatal(err)
	}
	if res.rows != 3*2+2*4 || res.rows != referenceCount(x, y) {
		t.Errorf("joined %d rows, reference %d", res.rows, referenceCount(x, y))
	}
	if len(res.heavy) != 0 || res.lightKeys != 2 {
		t.Errorf("%d heavy and %d light keys, want 0 and 2 (k1, k2)", len(res.heavy), res.lightKeys)
	}
	if res.maxLoad != 6*(2+4) || res.largestKey != res.maxLoad {
		t.Errorf("max load %d, largest key %d; want k2's 36 bytes for both", res.maxLoad, res.largestKey)
	}
}

func TestRunDisjointRelations(t *testing.T) {
	x := relation(4, map[string]int{"a": 300})
	y := relation(4, map[string]int{"b": 3})
	res, err := skewJoin(x, y, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.rows != 0 || len(res.heavy) != 0 || res.lightKeys != 0 || res.maxLoad != 0 {
		t.Errorf("disjoint join: %d rows, %d heavy, %d light keys, max load %d", res.rows, len(res.heavy), res.lightKeys, res.maxLoad)
	}
	if res.largestKey != 300*5 {
		t.Errorf("the hash join's largest key is %d bytes, want a's 1500", res.largestKey)
	}
}

// TestRunOneSidedKeysAreNotShipped gives each side a key far over q that the
// other side lacks: neither runs, and only the shared key joins.
func TestRunOneSidedKeysAreNotShipped(t *testing.T) {
	x := relation(4, map[string]int{"only-x": 50, "shared": 2})
	y := relation(4, map[string]int{"only-y": 50, "shared": 2})
	res, err := skewJoin(x, y, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.rows != 4 || len(res.heavy) != 0 || res.lightKeys != 1 {
		t.Errorf("%d rows, %d heavy and %d light keys; want 4, 0 and 1", res.rows, len(res.heavy), res.lightKeys)
	}
}

// BenchmarkSkewJoin times the join of the command's default run (10,000
// tuples per side over 100 keys at skew 1.3, 10-byte payloads, q = 16,000,
// seed 42): its heavy keys run one audited assign.Execute each. Two joins run
// before the timer starts, so every timed join plans from the planner's
// cache and runs the executor's retained compiled schemas. Generating the
// relations and the reference count stay outside the timer.
func BenchmarkSkewJoin(b *testing.B) {
	spec := workload.RelationSpec{NumTuples: 10000, NumKeys: 100, Skew: 1.3, PayloadBytes: 10}
	spec.Name = "X"
	x, err := workload.GenerateRelation(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	spec.Name = "Y"
	y, err := workload.GenerateRelation(spec, 43)
	if err != nil {
		b.Fatal(err)
	}
	want := referenceCount(x, y)
	// The exec compiler retains a schema at its second sighting.
	for i := 0; i < 2; i++ {
		if _, err := skewJoin(x, y, 16000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := skewJoin(x, y, 16000)
		if err != nil {
			b.Fatal(err)
		}
		if res.rows != want {
			b.Fatalf("join produced %d rows, reference %d", res.rows, want)
		}
	}
}
