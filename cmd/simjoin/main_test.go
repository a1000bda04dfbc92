package main

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/pkg/assign"
)

func TestRunSmallCorpus(t *testing.T) {
	for _, extra := range [][]string{nil, {"-membudget", "2048", "-spilldir", t.TempDir()}} {
		var b strings.Builder
		err := run(append([]string{"-docs", "40", "-vocab", "60", "-q", "800", "-threshold", "0.4", "-show", "2"}, extra...), &b)
		if err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range []string{"Similarity join", "lb_reducers", "shuffle_bytes", "similar_pairs", "verified against the nested-loop reference: OK"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v: output lacks %q:\n%s", extra, want, out)
			}
		}
	}
}

// TestDefaultRunServesTheDesign pins the paper's application at the
// command's defaults, 300 documents at q = 4000: the join verifies against
// the nested-loop reference, finds its 56 similar pairs, and runs on at most
// 75 reducers. Every document is far below q/3, so the planner lays bins of
// documents on a design; pairs of q/2 bins took 112 reducers.
func TestDefaultRunServesTheDesign(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-show", "0"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(out, "\n")
	if len(lines) < 4 || lines[3] != "verified against the nested-loop reference: OK" {
		t.Fatalf("the default run did not verify:\n%s", out)
	}
	row := strings.Fields(lines[2]) // reducers … similar_pairs
	reducers, err := strconv.Atoi(row[0])
	if err != nil || len(row) != 7 {
		t.Fatalf("unreadable cost row %q", lines[2])
	}
	if reducers > 75 || row[6] != "56" {
		t.Fatalf("the default run served %d reducers and found %s pairs, want at most 75 and 56:\n%s", reducers, row[6], out)
	}
}

func TestRunCosine(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-docs", "25", "-q", "600", "-similarity", "cosine", "-threshold", "0.6"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cosine") {
		t.Errorf("output does not mention the similarity function:\n%s", b.String())
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-similarity", "hamming"}, &b); err == nil {
		t.Error("accepted an unknown similarity function")
	}
	if err := run([]string{"-docs", "0"}, &b); err == nil {
		t.Error("accepted zero documents")
	}
	if err := run([]string{"-docs", "5", "-q", "0"}, &b); err == nil {
		t.Error("accepted zero capacity")
	}
	// Capacity far below two documents -> infeasible schema.
	if err := run([]string{"-docs", "10", "-q", "4"}, &b); !errors.Is(err, assign.ErrInfeasible) {
		t.Errorf("infeasible capacity: err = %v", err)
	}
}

// TestSimJoinErrors calls the join directly: no documents, zero capacity
// and a capacity below the two largest documents are all refused.
func TestSimJoinErrors(t *testing.T) {
	if _, _, err := simJoin(nil, 100, 0.5, jaccard); err == nil {
		t.Error("joined an empty corpus")
	}
	docs := corpus(t, workload.CorpusSpec{NumDocs: 5, VocabularySize: 40, MinTerms: 4, MaxTerms: 12, TermSkew: 1.3}, 99)
	if _, _, err := simJoin(docs, 0, 0.5, jaccard); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, _, err := simJoin(docs, 3, 0.5, jaccard); !errors.Is(err, assign.ErrInfeasible) {
		t.Errorf("infeasible capacity: err = %v", err)
	}
}

// TestSimilarityString checks the -similarity names: each selects its
// function, matched without regard to case, and is printed in the heading.
func TestSimilarityString(t *testing.T) {
	a, b := []string{"a", "a", "b"}, []string{"a", "b", "b"}
	if similarities["jaccard"](a, b) != jaccard(a, b) || similarities["cosine"](a, b) != cosine(a, b) || len(similarities) != 2 {
		t.Fatal("the similarity names do not select jaccard and cosine")
	}
	for _, name := range []string{"jaccard", "COSINE"} {
		var out strings.Builder
		if err := run([]string{"-docs", "10", "-q", "600", "-similarity", name}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := strings.ToLower(name) + " >="; !strings.Contains(out.String(), want) {
			t.Errorf("%s: heading lacks %q:\n%s", name, want, out.String())
		}
	}
}

func corpus(t *testing.T, spec workload.CorpusSpec, seed int64) []workload.Document {
	t.Helper()
	docs, err := workload.Documents(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// The join's reference shape: 120 documents at q = 2500 and t = 0.4.
const (
	shapeQ         = 2500
	shapeThreshold = 0.4
)

func shapeCorpus(t *testing.T) []workload.Document {
	return corpus(t, workload.CorpusSpec{NumDocs: 120, VocabularySize: 150, MinTerms: 4, MaxTerms: 18, TermSkew: 1.2}, 11)
}

// payloadSizes are the bytes the engine ships per document: its
// space-joined terms.
func payloadSizes(docs []workload.Document) []assign.Size {
	sizes := make([]assign.Size, len(docs))
	for i, d := range docs {
		sizes[i] = assign.Size(len(strings.Join(d.Terms, " ")))
	}
	return sizes
}

// matchesReference fails t unless the join of docs at q and threshold finds
// exactly the nested-loop reference's pairs, IDs and scores.
func matchesReference(t *testing.T, docs []workload.Document, q assign.Size, threshold float64, name string) *assign.Execution {
	t.Helper()
	sim := similarities[name]
	pairs, ex, err := simJoin(docs, q, threshold, sim)
	if err != nil {
		t.Fatalf("%s, q=%d: %v", name, q, err)
	}
	want := nestedLoop(docs, threshold, sim)
	if len(want) == 0 {
		t.Fatalf("%s, q=%d: the reference finds no pairs; the test proves nothing", name, q)
	}
	if !slices.Equal(pairs, want) {
		t.Fatalf("%s, q=%d: %d pairs differ from the reference's %d", name, q, len(pairs), len(want))
	}
	return ex
}

// TestRunMatchesNestedLoopReference checks the Jaccard join pair for pair
// against the nested-loop reference at the reference shape, and on a
// smaller corpus at several capacities: the schema changes with q, the
// similar pairs must not.
func TestRunMatchesNestedLoopReference(t *testing.T) {
	matchesReference(t, shapeCorpus(t), shapeQ, shapeThreshold, "jaccard")
	docs := corpus(t, workload.CorpusSpec{NumDocs: 40, VocabularySize: 40, MinTerms: 4, MaxTerms: 12, TermSkew: 1.3}, 99)
	reducers := map[int]bool{}
	for _, q := range []assign.Size{300, 600, 1200, 2400} {
		reducers[matchesReference(t, docs, q, 0.3, "jaccard").Plan.Cost.Reducers] = true
	}
	if len(reducers) < 2 {
		t.Errorf("four capacities gave one reducer count; the sweep proves nothing")
	}
}

func TestRunCosineMatchesReference(t *testing.T) {
	matchesReference(t, shapeCorpus(t), shapeQ, shapeThreshold, "cosine")
}

// TestRunIsAudited checks that the conformance harness verified both joins:
// every document pair compared exactly once, at its owning reducer.
func TestRunIsAudited(t *testing.T) {
	docs := shapeCorpus(t)
	for name, sim := range similarities {
		_, ex, err := simJoin(docs, shapeQ, shapeThreshold, sim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ex.Audited || ex.PairsProcessed != int64(len(docs)*(len(docs)-1)/2) {
			t.Errorf("%s: audited=%v, %d pairs processed", name, ex.Audited, ex.PairsProcessed)
		}
	}
}

// TestRunSchemaRespectsCapacity checks that the schema the join ran is a
// valid A2A schema over the bytes the engine shipped, within q, and uses no
// fewer reducers than the lower bound.
func TestRunSchemaRespectsCapacity(t *testing.T) {
	docs := shapeCorpus(t)
	_, ex, err := simJoin(docs, shapeQ, shapeThreshold, jaccard)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Plan.Schema.ValidateA2A(assign.MustNewInputSet(payloadSizes(docs))); err != nil {
		t.Errorf("schema invalid over the payload sizes: %v", err)
	}
	cost := ex.Plan.Cost
	if cost.MaxLoad > shapeQ {
		t.Errorf("max load %d exceeds q = %d", cost.MaxLoad, shapeQ)
	}
	if cost.Reducers < ex.Plan.LowerBoundReducers {
		t.Errorf("%d reducers, below the bound %d", cost.Reducers, ex.Plan.LowerBoundReducers)
	}
}

// TestPipelineA2ASimilarityJoin checks the join's communication at the
// reference shape: the engine shuffled exactly the schema's communication,
// which is at least the paper's lower bound, over one partition per
// reducer; and the command run at the same shape verifies its answer.
func TestPipelineA2ASimilarityJoin(t *testing.T) {
	docs := shapeCorpus(t)
	sizes := payloadSizes(docs)
	var total assign.Size
	for _, w := range sizes {
		total += w
	}
	// sum_i w_i * ceil((W - w_i) / (q - w_i)): input i meets W - w_i bytes,
	// at most q - w_i of them at each reducer it is sent to.
	var bound assign.Size
	for _, w := range sizes {
		bound += w * ((total - w + shapeQ - w - 1) / (shapeQ - w))
	}
	for name, sim := range similarities {
		_, ex, err := simJoin(docs, shapeQ, shapeThreshold, sim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cost := ex.Plan.Cost
		if ex.ShuffleBytes != int64(cost.Communication) || cost.Communication < bound {
			t.Errorf("%s: shuffled %d bytes, schema communication %d, bound %d", name, ex.ShuffleBytes, cost.Communication, bound)
		}
		if len(ex.ReducerLoads) != cost.Reducers {
			t.Errorf("%s: the engine used %d partitions, the schema has %d reducers", name, len(ex.ReducerLoads), cost.Reducers)
		}
	}
	var b strings.Builder
	err := run([]string{"-docs", "120", "-vocab", "150", "-minterms", "4", "-maxterms", "18", "-termskew", "1.2", "-seed", "11",
		"-q", "2500", "-threshold", "0.4"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "verified against the nested-loop reference: OK") {
		t.Errorf("the command did not verify its answer:\n%s", b.String())
	}
}

// TestRunNoDuplicatePairs sets t = 0, so every pair is similar: each must be
// reported exactly once, in order.
func TestRunNoDuplicatePairs(t *testing.T) {
	docs := corpus(t, workload.CorpusSpec{NumDocs: 60, VocabularySize: 40, MinTerms: 4, MaxTerms: 12, TermSkew: 1.3}, 99)
	pairs, _, err := simJoin(docs, 500, 0, jaccard)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(docs)*(len(docs)-1)/2 {
		t.Fatalf("got %d pairs, want every one of %d once", len(pairs), len(docs)*(len(docs)-1)/2)
	}
	for k, p := range pairs {
		if p.i >= p.j || k > 0 && (pairs[k-1].i > p.i || pairs[k-1].i == p.i && pairs[k-1].j >= p.j) {
			t.Fatalf("pair %d (%d,%d) is out of order or repeated", k, p.i, p.j)
		}
	}
}

func TestRunSingleDocument(t *testing.T) {
	docs := []workload.Document{{ID: 0, Terms: []string{"only"}}}
	pairs, ex, err := simJoin(docs, 100, 0, jaccard)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 || !ex.Audited {
		t.Errorf("a single document: %d pairs, audited=%v", len(pairs), ex.Audited)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b", "c"}, []string{"a", "b", "c"}, 1},
		{[]string{"a", "b"}, []string{"c", "d"}, 0},
		{[]string{"a", "b", "c"}, []string{"b", "c", "d"}, 0.5},
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "a", "b"}, []string{"a", "b", "b"}, 1}, // duplicates collapse
	}
	for _, c := range cases {
		if got := jaccard(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCosine(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a"}, []string{"b"}, 0},
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "a", "b"}, []string{"a", "b", "b"}, 4.0 / 5.0}, // (2·1 + 1·2) / (√5·√5)
	}
	for _, c := range cases {
		if got := cosine(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("cosine(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// BenchmarkSimJoin times the join of the command's default run (300
// documents over a 300-term vocabulary, 5 to 25 terms at skew 1.2, q = 4000,
// Jaccard at t = 0.5, seed 42): one audited assign.Execute. Two joins run
// before the timer starts, so every timed join plans from the planner's
// cache and runs the executor's retained compiled schema. Generating the
// corpus and the nested-loop reference stay outside the timer.
func BenchmarkSimJoin(b *testing.B) {
	docs, err := workload.Documents(workload.CorpusSpec{NumDocs: 300, VocabularySize: 300, MinTerms: 5, MaxTerms: 25, TermSkew: 1.2}, 42)
	if err != nil {
		b.Fatal(err)
	}
	want := nestedLoop(docs, 0.5, jaccard)
	// The exec compiler retains a schema at its second sighting.
	for i := 0; i < 2; i++ {
		if _, _, err := simJoin(docs, 4000, 0.5, jaccard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, _, err := simJoin(docs, 4000, 0.5, jaccard)
		if err != nil {
			b.Fatal(err)
		}
		if !slices.Equal(pairs, want) {
			b.Fatalf("engine found %d pairs, the nested-loop reference %d", len(pairs), len(want))
		}
	}
}
