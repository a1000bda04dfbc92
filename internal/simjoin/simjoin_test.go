package simjoin

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

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
		if got := Jaccard.Score(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine.Score([]string{"a", "b"}, []string{"a", "b"}); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical cosine = %v, want 1", got)
	}
	if got := Cosine.Score([]string{"a"}, []string{"b"}); got != 0 {
		t.Errorf("disjoint cosine = %v, want 0", got)
	}
	if got := Cosine.Score(nil, nil); got != 1 {
		t.Errorf("empty cosine = %v, want 1", got)
	}
	if got := Cosine.Score([]string{"a"}, nil); got != 0 {
		t.Errorf("half-empty cosine = %v, want 0", got)
	}
	// Orthogonality check with overlapping vocab: ("a","a","b") vs ("a","b","b").
	got := Cosine.Score([]string{"a", "a", "b"}, []string{"a", "b", "b"})
	want := 4.0 / 5.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("cosine = %v, want %v", got, want)
	}
}

func TestSimilarityString(t *testing.T) {
	if Jaccard.String() != "jaccard" || Cosine.String() != "cosine" {
		t.Error("similarity names wrong")
	}
	if Similarity(9).String() == "" {
		t.Error("unknown similarity has empty name")
	}
}

func smallCorpus(t *testing.T, n int) []workload.Document {
	t.Helper()
	docs, err := workload.Documents(workload.CorpusSpec{
		NumDocs:        n,
		VocabularySize: 40,
		MinTerms:       4,
		MaxTerms:       12,
		TermSkew:       1.3,
	}, 99)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// TestRunMatchesNestedLoopReference checks the join against the reference at
// several capacities: the schema changes with q (73 reducers down to one), the
// similar pairs must not.
func TestRunMatchesNestedLoopReference(t *testing.T) {
	docs := smallCorpus(t, 40)
	want := NestedLoopReference(docs, Config{Threshold: 0.3, Similarity: Jaccard})
	for _, q := range []core.Size{300, 600, 1200, 2400} {
		cfg := Config{Capacity: q, Threshold: 0.3, Similarity: Jaccard}
		res, err := Run(docs, cfg)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if len(res.Pairs) != len(want) {
			t.Fatalf("q=%d: got %d pairs, reference has %d", q, len(res.Pairs), len(want))
		}
		for i := range want {
			if res.Pairs[i].I != want[i].I || res.Pairs[i].J != want[i].J {
				t.Fatalf("q=%d: pair %d = (%d,%d), want (%d,%d)", q, i, res.Pairs[i].I, res.Pairs[i].J, want[i].I, want[i].J)
			}
			if math.Abs(res.Pairs[i].Score-want[i].Score) > 1e-6 {
				t.Fatalf("q=%d: pair %d score %v, want %v", q, i, res.Pairs[i].Score, want[i].Score)
			}
		}
		if res.Schema == nil || res.Schema.NumReducers() == 0 {
			t.Errorf("q=%d: expected a non-trivial schema", q)
		}
		if res.Counters.ShuffleBytes == 0 {
			t.Errorf("q=%d: expected non-zero communication", q)
		}
		if res.SchemaCost.Reducers != res.Schema.NumReducers() {
			t.Errorf("q=%d: schema cost reducer count mismatch", q)
		}
	}
}

func TestRunCosineMatchesReference(t *testing.T) {
	docs := smallCorpus(t, 25)
	cfg := Config{Capacity: 500, Threshold: 0.5, Similarity: Cosine}
	res, err := Run(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := NestedLoopReference(docs, cfg)
	if len(res.Pairs) != len(want) {
		t.Fatalf("got %d pairs, reference has %d", len(res.Pairs), len(want))
	}
}

func TestRunNoDuplicatePairs(t *testing.T) {
	docs := smallCorpus(t, 60)
	cfg := Config{Capacity: 400, Threshold: 0.0, Similarity: Jaccard}
	res, err := Run(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 0 reports every pair exactly once.
	wantPairs := len(docs) * (len(docs) - 1) / 2
	if len(res.Pairs) != wantPairs {
		t.Fatalf("got %d pairs, want %d (each pair exactly once)", len(res.Pairs), wantPairs)
	}
	seen := map[[2]int]bool{}
	for _, p := range res.Pairs {
		if p.I >= p.J {
			t.Fatalf("pair (%d,%d) not ordered", p.I, p.J)
		}
		k := [2]int{p.I, p.J}
		if seen[k] {
			t.Fatalf("pair (%d,%d) reported twice", p.I, p.J)
		}
		seen[k] = true
	}
}

func TestRunSchemaRespectsCapacity(t *testing.T) {
	docs := smallCorpus(t, 50)
	cfg := Config{Capacity: 500, Threshold: 0.9, Similarity: Jaccard}
	res, err := Run(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]core.Size, len(docs))
	for i, d := range docs {
		sizes[i] = core.Size(d.SizeBytes())
	}
	set := core.MustNewInputSet(sizes)
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Errorf("schema invalid: %v", err)
	}
	if res.SchemaCost.Reducers < res.Bounds.Reducers {
		t.Errorf("schema uses %d reducers, below bound %d", res.SchemaCost.Reducers, res.Bounds.Reducers)
	}
}

func TestRunSingleDocument(t *testing.T) {
	docs := []workload.Document{{ID: 0, Terms: []string{"only"}}}
	res, err := Run(docs, Config{Capacity: 100, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Errorf("single document produced %d pairs", len(res.Pairs))
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, Config{Capacity: 100}); !errors.Is(err, ErrNoDocuments) {
		t.Errorf("empty corpus error = %v", err)
	}
	docs := smallCorpus(t, 5)
	if _, err := Run(docs, Config{Capacity: 0}); err == nil {
		t.Error("accepted zero capacity")
	}
	// Capacity too small for the two largest documents -> infeasible.
	if _, err := Run(docs, Config{Capacity: 3}); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("infeasible error = %v", err)
	}
}

func TestDocumentEncodingRoundTrip(t *testing.T) {
	d := workload.Document{ID: 7, Terms: []string{"alpha", "beta"}}
	got, err := decodeDocument(encodeDocument(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || len(got.Terms) != 2 || got.Terms[0] != "alpha" {
		t.Errorf("round trip = %+v", got)
	}
	empty := workload.Document{ID: 3}
	got, err = decodeDocument(encodeDocument(empty))
	if err != nil || got.ID != 3 || len(got.Terms) != 0 {
		t.Errorf("empty round trip = %+v, %v", got, err)
	}
	if _, err := decodeDocument([]byte("garbage")); err == nil {
		t.Error("decoded garbage document")
	}
	if _, err := decodeDocument([]byte("x|terms")); err == nil {
		t.Error("decoded non-numeric document ID")
	}
}

func TestPairEncodingRoundTrip(t *testing.T) {
	p := Pair{I: 3, J: 9, Score: 0.625}
	got, err := decodePair(encodePair(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 3 || got.J != 9 || math.Abs(got.Score-0.625) > 1e-9 {
		t.Errorf("round trip = %+v", got)
	}
	for _, bad := range []string{"1,2", "a,2,0.5", "1,b,0.5", "1,2,zz"} {
		if _, err := decodePair([]byte(bad)); err == nil {
			t.Errorf("decoded malformed pair %q", bad)
		}
	}
}

func TestRunIsAudited(t *testing.T) {
	docs := smallCorpus(t, 20)
	res, err := Run(docs, Config{Capacity: 400, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// The executor's conformance harness must have verified the run: every
	// document pair compared exactly once at its owning reducer, reducer
	// loads exactly as the schema routed.
	if !res.Audited {
		t.Error("run was not audited")
	}
}
