package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// distributions lists every distribution, in a stable order, for sweeps.
var distributions = []Distribution{Constant, Uniform, Zipf, Exponential, Bimodal}

func TestSizesConstant(t *testing.T) {
	sizes, err := Sizes(SizeSpec{Dist: Constant, Min: 5, Max: 5}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sizes {
		if s != 5 {
			t.Fatalf("constant sizes not constant: %v", sizes)
		}
	}
}

func TestSizesBoundsRespected(t *testing.T) {
	for _, dist := range distributions {
		spec := SizeSpec{Dist: dist, Min: 3, Max: 40, Skew: 1.5, Mean: 10, BigFraction: 0.1}
		sizes, err := Sizes(spec, 500, 42)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if len(sizes) != 500 {
			t.Fatalf("%v: got %d sizes", dist, len(sizes))
		}
		for _, s := range sizes {
			if s < 3 || s > 40 {
				t.Fatalf("%v produced out-of-range size %d", dist, s)
			}
		}
	}
}

func TestSizesDeterministic(t *testing.T) {
	spec := SizeSpec{Dist: Zipf, Min: 1, Max: 100, Skew: 1.3}
	a, err := Sizes(spec, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sizes(spec, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different sizes")
	}
	c, _ := Sizes(spec, 200, 8)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical sizes (suspicious)")
	}
}

func TestSizesValidation(t *testing.T) {
	if _, err := Sizes(SizeSpec{Dist: Uniform, Min: 0, Max: 5}, 10, 1); err == nil {
		t.Error("accepted Min=0")
	}
	if _, err := Sizes(SizeSpec{Dist: Uniform, Min: 5, Max: 2}, 10, 1); err == nil {
		t.Error("accepted Max < Min")
	}
	if _, err := Sizes(SizeSpec{Dist: Uniform, Min: 1, Max: 2, BigFraction: 2}, 10, 1); err == nil {
		t.Error("accepted BigFraction > 1")
	}
	if _, err := Sizes(SizeSpec{Dist: Uniform, Min: 1, Max: 2}, 0, 1); err == nil {
		t.Error("accepted m=0")
	}
	if _, err := Sizes(SizeSpec{Dist: Distribution(99), Min: 1, Max: 2}, 3, 1); err == nil {
		t.Error("accepted unknown distribution")
	}
}

func TestDistributionString(t *testing.T) {
	for _, d := range distributions {
		if strings.HasPrefix(d.String(), "Distribution(") {
			t.Errorf("distribution %d has no name", int(d))
		}
	}
	if !strings.Contains(Distribution(42).String(), "42") {
		t.Error("unknown distribution String()")
	}
}

func TestInputSetHelper(t *testing.T) {
	set, err := InputSet(SizeSpec{Dist: Uniform, Min: 1, Max: 9}, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 50 {
		t.Errorf("Len = %d, want 50", set.Len())
	}
	if set.MinSize() < 1 || set.MaxSize() > 9 {
		t.Errorf("sizes out of range: min=%d max=%d", set.MinSize(), set.MaxSize())
	}
	if _, err := InputSet(SizeSpec{Dist: Uniform, Min: 0, Max: 9}, 5, 3); err == nil {
		t.Error("InputSet accepted an invalid spec")
	}
}

func TestBimodalProducesBothModes(t *testing.T) {
	sizes, err := Sizes(SizeSpec{Dist: Bimodal, Min: 1, Max: 100, BigFraction: 0.2}, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	small, big := 0, 0
	for _, s := range sizes {
		switch s {
		case 1:
			small++
		case 100:
			big++
		default:
			t.Fatalf("bimodal produced a middle size %d", s)
		}
	}
	if small == 0 || big == 0 {
		t.Errorf("bimodal produced %d small and %d big", small, big)
	}
	if big > small {
		t.Errorf("bimodal with 20%% big fraction produced more big (%d) than small (%d)", big, small)
	}
}

func TestZipfSkewsSmall(t *testing.T) {
	sizes, err := Sizes(SizeSpec{Dist: Zipf, Min: 1, Max: 1000, Skew: 2.0}, 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	var sum core.Size
	atMin := 0
	for _, s := range sizes {
		sum += s
		if s == 1 {
			atMin++
		}
	}
	mean := float64(sum) / float64(len(sizes))
	if mean > 100 {
		t.Errorf("zipf mean %v looks uniform, expected concentration near Min", mean)
	}
	if atMin < len(sizes)/4 {
		t.Errorf("only %d of %d sizes at the minimum; zipf should concentrate there", atMin, len(sizes))
	}
}

func TestDocuments(t *testing.T) {
	spec := CorpusSpec{NumDocs: 100, VocabularySize: 500, MinTerms: 5, MaxTerms: 20}
	docs, err := Documents(spec, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 100 {
		t.Fatalf("got %d docs", len(docs))
	}
	for i, d := range docs {
		if d.ID != i {
			t.Errorf("doc %d has ID %d", i, d.ID)
		}
		if len(d.Terms) < 5 || len(d.Terms) > 20 {
			t.Errorf("doc %d has %d terms", i, len(d.Terms))
		}
	}
	again, _ := Documents(spec, 13)
	if !reflect.DeepEqual(docs, again) {
		t.Error("same seed produced different corpora")
	}
}

func TestDocumentsValidation(t *testing.T) {
	bad := []CorpusSpec{
		{NumDocs: 0, VocabularySize: 10, MinTerms: 1, MaxTerms: 2},
		{NumDocs: 5, VocabularySize: 0, MinTerms: 1, MaxTerms: 2},
		{NumDocs: 5, VocabularySize: 10, MinTerms: 0, MaxTerms: 2},
		{NumDocs: 5, VocabularySize: 10, MinTerms: 3, MaxTerms: 2},
	}
	for i, spec := range bad {
		if _, err := Documents(spec, 1); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestGenerateRelation(t *testing.T) {
	spec := RelationSpec{Name: "X", NumTuples: 1000, NumKeys: 50, Skew: 1.2, PayloadBytes: 16}
	rel, err := GenerateRelation(spec, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 1000 {
		t.Fatalf("got %d tuples", len(rel.Tuples))
	}
	if rel.Name != "X" {
		t.Errorf("Name = %q", rel.Name)
	}
	counts := keyCounts(rel)
	if len(counts) > 50 {
		t.Errorf("more distinct keys (%d) than NumKeys", len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Errorf("key counts sum to %d", total)
	}
	for _, tp := range rel.Tuples[:10] {
		if len(tp.Payload) != 16 {
			t.Errorf("payload of %d bytes, want 16", len(tp.Payload))
		}
	}
}

func keyCounts(r *Relation) map[string]int {
	counts := make(map[string]int)
	for _, t := range r.Tuples {
		counts[t.Key]++
	}
	return counts
}

func TestGenerateRelationSkewConcentratesTuples(t *testing.T) {
	uniform, err := GenerateRelation(RelationSpec{Name: "U", NumTuples: 5000, NumKeys: 100, Skew: 0}, 19)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := GenerateRelation(RelationSpec{Name: "S", NumTuples: 5000, NumKeys: 100, Skew: 1.5}, 19)
	if err != nil {
		t.Fatal(err)
	}
	maxCount := func(r *Relation) int {
		max := 0
		for _, c := range keyCounts(r) {
			if c > max {
				max = c
			}
		}
		return max
	}
	if maxCount(skewed) <= maxCount(uniform) {
		t.Errorf("skewed max key count %d not larger than uniform %d", maxCount(skewed), maxCount(uniform))
	}
}

func TestGenerateRelationDeterministic(t *testing.T) {
	spec := RelationSpec{Name: "X", NumTuples: 200, NumKeys: 10, Skew: 1.5}
	a, _ := GenerateRelation(spec, 23)
	b, _ := GenerateRelation(spec, 23)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different relations")
	}
}

func TestGenerateRelationValidation(t *testing.T) {
	bad := []RelationSpec{
		{NumTuples: 0, NumKeys: 5},
		{NumTuples: 5, NumKeys: 0},
		{NumTuples: 5, NumKeys: 5, Skew: -1},
		{NumTuples: 5, NumKeys: 5, Skew: 0.5},
		{NumTuples: 5, NumKeys: 5, Skew: 1},
	}
	for i, spec := range bad {
		if _, err := GenerateRelation(spec, 1); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestChurnTrace(t *testing.T) {
	spec := ChurnSpec{
		Initial: 10, Steps: 200,
		Sizes: SizeSpec{Dist: Uniform, Min: 1, Max: 16},
	}
	a, err := Churn(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 200 {
		t.Fatalf("got %d events, want 200", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace not deterministic at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Replay: IDs must always address live inputs, adds must take the next
	// sequential ID, and all three ops must occur.
	live := map[int]bool{}
	for i := 0; i < spec.Initial; i++ {
		live[i] = true
	}
	next := spec.Initial
	var adds, removes, resizes int
	for i, ev := range a {
		switch ev.Op {
		case OpAdd:
			if ev.ID != next {
				t.Fatalf("event %d: add got ID %d, want %d", i, ev.ID, next)
			}
			if ev.Size <= 0 {
				t.Fatalf("event %d: add size %d", i, ev.Size)
			}
			live[ev.ID] = true
			next++
			adds++
		case OpRemove:
			if !live[ev.ID] {
				t.Fatalf("event %d: remove of dead input %d", i, ev.ID)
			}
			delete(live, ev.ID)
			removes++
		case OpResize:
			if !live[ev.ID] || ev.Size <= 0 {
				t.Fatalf("event %d: bad resize %+v", i, ev)
			}
			resizes++
		}
		if len(live) == 0 {
			t.Fatalf("event %d emptied the live set", i)
		}
	}
	if adds == 0 || removes == 0 || resizes == 0 {
		t.Fatalf("trace missed an op kind: add=%d remove=%d resize=%d", adds, removes, resizes)
	}
	if _, err := Churn(ChurnSpec{Initial: 1, Steps: 5, Sizes: spec.Sizes}, 1); err == nil {
		t.Error("Initial < 2 accepted")
	}
	if _, err := Churn(ChurnSpec{Initial: 5, Steps: 0, Sizes: spec.Sizes}, 1); err == nil {
		t.Error("Steps = 0 accepted")
	}
}
