package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refMarshalSchema is the encoder MarshalJSON replaced: copy into schemaJSON
// and let encoding/json reflect over it. It defines the bytes MarshalJSON must
// write. (The decoder's reference is unmarshalReflect, which json.go keeps as
// its fallback.)
func refMarshalSchema(ms *MappingSchema) ([]byte, error) {
	out := schemaJSON{
		Problem:   ms.Problem.String(),
		Capacity:  ms.Capacity,
		Algorithm: ms.Algorithm,
		Reducers:  make([]reducerJSON, len(ms.Reducers)),
	}
	for i, r := range ms.Reducers {
		out.Reducers[i] = reducerJSON{Inputs: r.Inputs, XInputs: r.XInputs, YInputs: r.YInputs, Load: r.Load}
	}
	return json.Marshal(out)
}

// codecAlgorithms holds one name for every way encoding/json treats a string:
// copied, omitted, quote and backslash escapes, HTML escapes, control bytes,
// DEL, multi-byte UTF-8, the two separators it always escapes, and invalid
// UTF-8 (replaced by U+FFFD). The first four are plain ASCII.
var codecAlgorithms = []string{
	"a2a/solve", "", "x2y/grid-split (bfd) #3", "~ {[:,]} ~",
	`say "q"`, `back\slash`, "<b>&amp;</b>", "tab\there", "nul\x00", "bell\a\n\r", "del\x7f",
	"größe", "日本語", "line\u2028sep\u2029", "bad\xffutf8", "\xc0\xaf", "trunc\xe2\x82",
}

func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// randomSchema draws a schema that need not be valid for any instance: nil
// and empty lists, negative and unsorted IDs, loads beyond the capacity, the
// odd unknown problem. wide adds integers of 19 digits, which parseWire
// declines.
func randomSchema(rng *rand.Rand, wide bool) *MappingSchema {
	integer := func() int64 {
		switch rng.Intn(12) {
		case 0:
			return -int64(rng.Intn(1000))
		case 1:
			return rng.Int63n(1e18) // up to 18 digits
		case 2:
			return -rng.Int63n(1e18)
		case 3:
			if wide {
				return [...]int64{math.MaxInt64, math.MinInt64, 1e18, -1e18}[rng.Intn(4)]
			}
		}
		return int64(rng.Intn(5000))
	}
	list := func() []int {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		ids := make([]int, 1+rng.Intn(12))
		for i := range ids {
			ids[i] = int(integer())
		}
		return ids
	}
	ms := &MappingSchema{
		Problem:   Problem(rng.Intn(2)),
		Capacity:  Size(integer()),
		Algorithm: codecAlgorithms[rng.Intn(len(codecAlgorithms))],
	}
	if rng.Intn(50) == 0 {
		ms.Problem = Problem(2 + rng.Intn(100))
	}
	switch n := rng.Intn(10); n {
	case 0: // nil Reducers
	case 1:
		ms.Reducers = []Reducer{}
	default:
		for ; n > 0; n-- {
			r := Reducer{Load: Size(integer())}
			if ms.Problem == ProblemA2A || rng.Intn(10) == 0 {
				r.Inputs = list()
			}
			if ms.Problem == ProblemX2Y || rng.Intn(10) == 0 {
				r.XInputs, r.YInputs = list(), list()
			}
			ms.Reducers = append(ms.Reducers, r)
		}
	}
	return ms
}

// TestSchemaJSONBytesMatchReference: the hand-written encoder writes the
// reflective encoder's bytes, the hand-written parser reads all of them it
// promises to and decodes them to the reflective decoder's value.
func TestSchemaJSONBytesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	promised, accepted := 0, 0
	for i := 0; i < 12000; i++ {
		wide := i%4 == 0
		ms := randomSchema(rng, wide)
		got, err := ms.MarshalJSON()
		if err != nil {
			t.Fatalf("schema %d: MarshalJSON: %v", i, err)
		}
		want, err := refMarshalSchema(ms)
		if err != nil {
			t.Fatalf("schema %d: reference encoder: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("schema %d (%+v):\n got %s\nwant %s", i, ms, got, want)
		}
		// And through json.Marshal, which compacts and re-escapes a
		// Marshaler's output.
		if outer, err := json.Marshal(ms); err != nil || !bytes.Equal(outer, want) {
			t.Fatalf("schema %d: json.Marshal = %s, %v; want %s", i, outer, err, want)
		}

		var fast, ref MappingSchema
		fastOK := fast.parseWire(got)
		refErr := ref.unmarshalReflect(got)
		if fastOK {
			accepted++
			if refErr != nil || !reflect.DeepEqual(&fast, &ref) {
				t.Fatalf("schema %d: %s\nparseWire %+v\nreflective %+v, %v", i, got, fast, ref, refErr)
			}
		}
		if !wide && ms.Problem <= ProblemX2Y && plainASCII(ms.Algorithm) {
			promised++
			if !fastOK {
				t.Fatalf("schema %d: parseWire declined the encoder's own output: %s", i, got)
			}
		}
	}
	if promised < 2000 || accepted < promised {
		t.Fatalf("parseWire accepted %d encodings, %d of them promised: the generator draws too few", accepted, promised)
	}
}

// TestDecodedListsDoNotAlias: parseWire cuts every list from one array, so it
// must cap each: an append to one list may not reach the IDs of the next.
func TestDecodedListsDoNotAlias(t *testing.T) {
	const doc = `{"problem":"X2Y","capacity":50,"reducers":[` +
		`{"inputs":[1,2],"x_inputs":[3,4],"y_inputs":[5,6],"load":7},` +
		`{"x_inputs":[],"y_inputs":[8],"load":9},{"x_inputs":[10,11],"y_inputs":[12],"load":13}]}`
	var ms MappingSchema
	if !ms.parseWire([]byte(doc)) {
		t.Fatal("parseWire declined the document")
	}
	want := [][]int{{1, 2}, {3, 4}, {5, 6}, {}, {8}, {10, 11}, {12}}
	lists := func() (out []*[]int) {
		for i := range ms.Reducers {
			r := &ms.Reducers[i]
			for _, l := range []*[]int{&r.Inputs, &r.XInputs, &r.YInputs} {
				if *l != nil {
					out = append(out, l)
				}
			}
		}
		return out
	}()
	if len(lists) != len(want) {
		t.Fatalf("decoded %d lists, want %d", len(lists), len(want))
	}
	for i, l := range lists {
		if cap(*l) != len(*l) {
			t.Errorf("list %d: cap %d > len %d", i, cap(*l), len(*l))
		}
		*l = append(*l, -1, -2, -3)
	}
	for i, l := range lists {
		if got := (*l)[:len(*l)-3]; !reflect.DeepEqual(got, want[i]) {
			t.Errorf("list %d = %v after its neighbours grew, want %v", i, got, want[i])
		}
	}
}

// schemaJSONSeeds are the shapes FuzzSchemaJSON starts from (and, as its seed
// corpus, checks on every `go test`).
func schemaJSONSeeds() [][]byte {
	xs, ys := MustNewInputSet([]Size{2, 4}), MustNewInputSet([]Size{3, 1, 1})
	set := MustNewInputSet([]Size{2, 3, 4, 1})
	a2a := &MappingSchema{Problem: ProblemA2A, Capacity: 9, Algorithm: "a2a/solve"}
	a2a.AddReducerA2A(set, []int{0, 1, 2})
	a2a.AddReducerA2A(set, []int{0, 3})
	x2y := &MappingSchema{Problem: ProblemX2Y, Capacity: 10, Algorithm: `x2y <"grid">`}
	x2y.AddReducerX2Y(xs, ys, []int{0, 1}, []int{0})
	x2y.AddReducerX2Y(xs, ys, []int{1}, []int{1, 2})
	schemas := []*MappingSchema{
		a2a, x2y,
		{Problem: ProblemA2A, Capacity: 5},
		{Problem: ProblemX2Y, Capacity: 5, Reducers: []Reducer{}},
		{Problem: ProblemA2A, Capacity: 7, Reducers: []Reducer{{Inputs: []int{4}, Load: 7}}},
		{Problem: ProblemA2A, Capacity: 7, Reducers: []Reducer{{Inputs: nil}, {Inputs: []int{}}, {Inputs: []int{-3, 2}, Load: -1}}},
		{Problem: ProblemX2Y, Capacity: 7, Reducers: []Reducer{{XInputs: []int{}, YInputs: nil, Load: 1}}},
		{Problem: Problem(9), Capacity: 1, Algorithm: "line\u2028sep\xff"},
	}
	var seeds [][]byte
	for _, ms := range schemas {
		data, err := ms.MarshalJSON()
		if err != nil {
			panic(err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "\t", "  "); err != nil {
			panic(err)
		}
		seeds = append(seeds, data, indented.Bytes())
	}
	for _, s := range []string{
		// Key order, white space.
		`{"reducers":[{"load":5,"inputs":[0,1]}],"algorithm":"z","capacity":9,"problem":"A2A"}`,
		" \t\r\n{ \"problem\" : \"X2Y\" , \"capacity\" : 3 , \"reducers\" : [ { \"y_inputs\" : [ 1 , 2 ] , \"load\" : 2 } , { } ] } \n",
		`{"problem":"A2A"}`,
		`{"problem":"A2A","capacity":-0,"reducers":[{"inputs":[-0,0,-7],"load":-0}]}`,
		`{"problem":"A2A","capacity":999999999999999999,"reducers":[{"inputs":[-999999999999999999],"load":1}]}`,
		// Everything below is the reflective decoder's to judge.
		`{"Problem":"A2A","capacity":3,"reducers":[]}`,
		`{"problem":"A2A","CAPACITY":3,"reducers":[{"Inputs":[1],"load":1}]}`,
		`{"problem":"A2A","capacity":3,"extra":{"a":[1,2]},"reducers":[]}`,
		`{"problem":"A2A","capacity":3,"reducers":[{"inputs":null,"load":1}]}`,
		`{"problem":"A2A","capacity":3,"reducers":null}`,
		`{"problem":null,"capacity":3}`,
		`null`,
		`{"problem":"A2A","capacity":1.0,"reducers":[]}`,
		`{"problem":"A2A","capacity":1e2,"reducers":[]}`,
		`{"problem":"A2A","capacity":3,"reducers":[{"inputs":[1.5],"load":1}]}`,
		`{"problem":"A2A","capacity":01,"reducers":[]}`,
		`{"problem":"A2A","capacity":-,"reducers":[]}`,
		`{"problem":"A2A","capacity":9223372036854775808,"reducers":[]}`,
		`{"problem":"A2A","capacity":9223372036854775807,"reducers":[{"inputs":[-9223372036854775808],"load":1}]}`,
		`{"problem":"A2A","capacity":3,"reducers":[{"inputs":[1000000000000000000000],"load":1}]}`,
		`{"problem":"A2A","problem":"X2Y","capacity":3,"reducers":[]}`,
		`{"problem":"A2A","capacity":3,"reducers":[{"inputs":[1,2],"inputs":[3],"load":1,"load":2}]}`,
		`{"problem":"A2A","capacity":3,"reducers":[{"inputs":[1,2]}],"reducers":[{"load":4}]}`,
		`{"problem":"A2A","capacity":3,"reducers":[]} x`,
		`{"problem":"A2A","capacity":3,"reducers":[]}{"problem":"X2Y"}`,
		`{"problem":"A2A","capacity":3,"reducers":[]}]`,
		`{"problem":"A2A","capacity":3,"reducers":[{"inputs":[1,],"load":1}]}`,
		`{"problem":"A2A","capacity":3,"reducers":[{"inputs":[1 2],"load":1}]}`,
		`{"problem":"A2A","capacity":3,"reducers":[],}`,
		`{"problem":"A2A","capacity":3,"algorithm":"a\u0062c\n","reducers":[]}`,
		"{\"problem\":\"A2A\",\"capacity\":3,\"algorithm\":\"caf\xc3\xa9 \xff\",\"reducers\":[]}",
		"{\"problem\":\"A2A\",\"capacity\":3,\"algorithm\":\"raw\ttab\",\"reducers\":[]}",
		`{"pro\u0062lem":"A2A","capacity":3,"reducers":[]}`,
		`{"problem":"WAT","capacity":3,"reducers":[]}`,
		`{"problem":"a2a","capacity":3,"reducers":[]}`,
		`{"capacity":3,"reducers":[]}`,
		`{}`, `{`, ``, `[]`, `"A2A"`, `{"problem":"A2A","capacity":"3"}`, `{"problem":"A2A","reducers":[[]]}`,
		"{\"problem\":\"A2A\",\"capacity\":3,\"reducers\":[]}\x00",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// checkAgainstReflective runs data through UnmarshalJSON and through the
// reflective decoder, both over a receiver that already holds a schema, and
// requires the same error text or the same value — nil against empty lists
// and an untouched receiver on error included.
func checkAgainstReflective(t *testing.T, data []byte) {
	t.Helper()
	prior := MappingSchema{Problem: ProblemX2Y, Capacity: 77, Algorithm: "prior",
		Reducers: []Reducer{{XInputs: []int{1}, YInputs: []int{2}, Load: 3}}}
	got, want := prior, prior
	gotErr, wantErr := got.UnmarshalJSON(data), want.unmarshalReflect(data)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%q: UnmarshalJSON error %v, reflective error %v", data, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%q: UnmarshalJSON error %q, reflective error %q", data, gotErr, wantErr)
	case !reflect.DeepEqual(&got, &want):
		t.Fatalf("%q:\nUnmarshalJSON %#v\nreflective    %#v", data, got, want)
	}
}

// FuzzSchemaJSON: on arbitrary bytes UnmarshalJSON and the reflective decoder
// agree, so parseWire accepts nothing encoding/json would refuse or read
// differently.
func FuzzSchemaJSON(f *testing.F) {
	for _, data := range schemaJSONSeeds() {
		f.Add(data)
	}
	f.Fuzz(checkAgainstReflective)
}

// TestSchemaJSONAllocations pins what the hand-written codec is for: the
// encoder allocates its buffer, the parser the algorithm name, the reducers
// and the one array behind every list — whatever the number of reducers.
func TestSchemaJSONAllocations(t *testing.T) {
	ms := &MappingSchema{Problem: ProblemX2Y, Capacity: 1000, Algorithm: "x2y/solve"}
	for r := 0; r < 300; r++ {
		ms.Reducers = append(ms.Reducers, Reducer{XInputs: []int{r, r + 1, r + 2}, YInputs: []int{3 * r, 3*r + 1}, Load: 77})
	}
	data, err := ms.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = ms.MarshalJSON() }); n > 1 {
		t.Errorf("MarshalJSON allocates %v times, want 1", n)
	}
	var back MappingSchema
	if n := testing.AllocsPerRun(20, func() { back.parseWire(data) }); n > 3 {
		t.Errorf("parseWire allocates %v times, want at most 3", n)
	}
	if !reflect.DeepEqual(&back, ms) {
		t.Error("parseWire did not read back the schema")
	}
}

// TestSchemaPrefixMatchesParseWire: the prefix form reads what parseWire
// reads, whatever follows it. Where it accepts, the bytes up to its end are a
// document parseWire accepts, to the same value; where parseWire accepts a
// whole document, the prefix form accepts it followed by anything.
func TestSchemaPrefixMatchesParseWire(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	docs := schemaJSONSeeds()
	for i := 0; i < 2000; i++ {
		data, err := randomSchema(rng, i%4 == 0).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	for _, doc := range docs {
		var whole MappingSchema
		wholeOK := whole.parseWire(doc)
		for _, suffix := range []string{"", " \n", `,"ids":[1,2],"sizes":[3]}`, "]", "x", `{"problem":"X2Y"}`} {
			data := append(doc[:len(doc):len(doc)], suffix...)
			ms, end, ok := ParseSchemaPrefix(data)
			if wholeOK && (!ok || !reflect.DeepEqual(ms, &whole) || len(bytes.TrimSpace(data[end:])) != len(bytes.TrimSpace([]byte(suffix)))) {
				t.Fatalf("%q: prefix form = %+v, end %d, %v; parseWire of %q read %+v", data, ms, end, ok, doc, whole)
			}
			if !ok {
				continue
			}
			var back MappingSchema
			if !back.parseWire(data[:end]) || !reflect.DeepEqual(&back, ms) {
				t.Fatalf("%q: prefix form read %+v up to %d, parseWire of that prefix %+v", data, ms, end, back)
			}
		}
	}
}
