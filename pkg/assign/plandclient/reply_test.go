package plandclient

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/pkg/assign"
)

// goldenReplies are the reply bodies pland's golden wire test records, by
// section name.
func goldenReplies(tb testing.TB) map[string][]byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "pland", "testdata", "golden_wire.txt"))
	if err != nil {
		tb.Fatal(err)
	}
	replies := map[string][]byte{}
	for _, section := range strings.Split(string(raw), "### ")[1:] {
		head, body, _ := strings.Cut(section, "\n")
		name, _, _ := strings.Cut(head, " ")
		replies[name] = []byte(body)
	}
	return replies
}

// decodeReplySeeds are the bodies FuzzDecodeReply starts from: every golden
// reply, and the cases a walk over the top-level keys could get wrong.
func decodeReplySeeds(tb testing.TB) [][]byte {
	tb.Helper()
	const schema = `{"problem":"A2A","capacity":10,"algorithm":"a2a/solve","reducers":[{"inputs":[0,1],"load":6}]}`
	other := strings.Replace(schema, `"A2A"`, `"X2Y"`, 1)
	var seeds [][]byte
	for _, body := range goldenReplies(tb) {
		var indented bytes.Buffer
		if json.Indent(&indented, body, "", "\t") == nil {
			seeds = append(seeds, indented.Bytes())
		}
		seeds = append(seeds, body, body[:len(body)/2], append(body[:len(body):len(body)], `{"schema":null}`...))
	}
	for _, s := range []string{
		// A duplicate key, and the other keys encoding/json matches to Schema.
		`{"schema":` + schema + `,"reducers":3,"schema":` + other + `}`,
		`{"schema":` + schema + `,"schema":null}`,
		`{"schema":` + schema + `,"Schema":` + other + `}`,
		`{"SCHEMA":` + other + `,"schema":` + schema + `}`,
		`{"sch\u0065ma":` + other + `,"schema":` + schema + `}`,
		`{"ſchema":` + other + `,"schema":` + schema + `}`,
		`{"Schema":` + schema + `}`,
		// "schema" inside keys, strings and nested objects before the real one.
		`{"x\"schema":` + other + `,"schema":` + schema + `}`,
		`{"winner":"\"schema\":` + strings.ReplaceAll(other, `"`, `\"`) + `","schema":` + schema + `}`,
		`{"winner":"a\\","schema":` + schema + `}`,
		`{"stats":{"schema":` + other + `,"x":[{"schema":1}]},"schema":` + schema + `}`,
		`{"ids":[[],{},"]",{"a":"}"}],"schema":` + schema + `,"sizes":[1,2]}`,
		// White space, a null or odd schema, and no schema.
		" \r\n\t{ \"reducers\" : 3 ,\n\"schema\" :\t" + schema + " , \"cache_hit\" : true } \n",
		`{"schema":null,"reducers":3}`,
		`{"schema":{"problem":"A2A","capacity":1234567890123456789,"reducers":[]},"winner":"w"}`,
		`{"schema":{"problem":"A2A","capacity":3,"reducers":[{"inputs":[1,],"load":1}]}}`,
		`{"schema":[],"reducers":1}`,
		`{"reducers":3,"winner":"w"}`,
		`{}`, `null`, `[]`, ``, ` `, `"schema"`, `{"schema"}`, `{"schema":`, `{"schema":` + schema,
		// Malformed elsewhere, and type errors beside a good schema.
		`{"schema":` + schema + `,"reducers":"three"}`,
		`{"schema":` + schema + `,"winner":1,"reducers":"three"}`,
		`{"schema":` + schema + `,"reducers":3,}`,
		`{"schema":` + schema + `,"reducers":3 "winner":"w"}`,
		`{"schema":` + schema + `,"reducers":[1}`,
		`{"schema":` + schema + `,"winner":"tab	"}`,
		`{"schema":` + schema + `,"stats":{"inputs":1]}`,
		`{"schema":` + schema + `,"reducers":tru}`,
		`{"a":1:2,"schema":` + schema + `}`,
		// Trailing bytes after the reply, which the decoder never reads.
		`{"schema":` + schema + `}x`,
		`{"schema":` + schema + `}{"schema":` + other + `}`,
		`{"schema":` + schema + `}]]]`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// checkDecodeReply decodes body into each type with a schema field, through
// decodeReply and through the decoder it replaced, and requires the same
// error text or the same value.
func checkDecodeReply(t *testing.T, body []byte) {
	t.Helper()
	for _, newOut := range []func() any{
		func() any { return new(PlanResult) },
		func() any { return new(ExecuteResult) },
		func() any { return new(Session) },
	} {
		got, want := newOut(), newOut()
		gotErr := decodeReply(body, got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%q into %T: decodeReply error %v, Decode error %v", body, got, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("%q into %T: decodeReply error %q, Decode error %q", body, got, gotErr, wantErr)
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%q:\ndecodeReply %#v\nDecode      %#v", body, got, want)
		}
	}
}

// FuzzDecodeReply: on arbitrary bodies decodeReply gives the value and the
// error json.Decoder gives, so the fast path reads nothing the decoder would
// refuse or read differently.
func FuzzDecodeReply(f *testing.F) {
	for _, body := range decodeReplySeeds(f) {
		f.Add(body)
	}
	f.Fuzz(checkDecodeReply)
}

// TestDecodeReplySplitsEverySchemaReply: the fast path is taken, not
// declined, on every reply pland writes with a schema in it.
func TestDecodeReplySplitsEverySchemaReply(t *testing.T) {
	replies := goldenReplies(t)
	for _, name := range []string{
		"plan_a2a", "plan_a2a_permuted_hit", "plan_x2y", "plan_x2y_mirrored_hit",
		"execute_a2a", "execute_x2y", "execute_pairs_spilled",
		"session_create", "session_get", "session_get_patched", "session_create_empty", "handoff_session_get",
	} {
		body, ok := replies[name]
		if !ok {
			t.Fatalf("golden file has no %s reply", name)
		}
		envelope, ms, ok := splitReply(body)
		if !ok {
			t.Errorf("%s: splitReply declined %s", name, body)
			continue
		}
		if !bytes.Contains(envelope, []byte(`"schema":null`)) || ms == nil {
			t.Errorf("%s: envelope %s, schema %v", name, envelope, ms)
		}
	}
	// Escaped quotes and backslashes in the values around the schema are
	// skipped, not declined.
	const schema = `{"problem":"A2A","capacity":10,"reducers":[{"inputs":[0,1],"load":6}]}`
	body := []byte(`{"winner":"say \"}\" \\","stats":{"k":["\"]\\"]},"schema":` + schema + `,"pair_ids":["\\\",\""]}`)
	envelope, ms, ok := splitReply(body)
	if want := bytes.Replace(body, []byte(schema), []byte("null"), 1); !ok || !bytes.Equal(envelope, want) || ms == nil {
		t.Errorf("splitReply(%s) = %s, %v, %v; want %s", body, envelope, ms, ok, want)
	}
}

// planReply is the reply BenchmarkSchemaJSON's schema travels in: the plan of
// about 400 Zipf-sized inputs packed into 20 half-capacity bins (190
// reducers, some 6,000 IDs, 33 KB), as pland encodes it.
func planReply(b *testing.B) []byte {
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, 403, 64)
	if err != nil {
		b.Fatal(err)
	}
	var total assign.Size
	for _, s := range sizes {
		total += s
	}
	res, err := assign.NewPlanner(assign.PlannerConfig{}).Plan(context.Background(),
		assign.A2A(sizes), assign.Capacity(2*((total+19)/20)))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(PlanResult{Schema: res.Schema, Reducers: res.Cost.Reducers,
		Communication: res.Cost.Communication, ReplicationRate: res.Cost.ReplicationRate,
		MaxLoad: res.Cost.MaxLoad, Winner: res.Winner, LowerBoundReducers: res.LowerBoundReducers,
		Gap: res.Gap, Candidates: res.Candidates, ElapsedMicros: 1234})
	if err != nil {
		b.Fatal(err)
	}
	return append(body, '\n')
}

// BenchmarkPlanReplyDecode measures the client's decode of a /v1/plan reply
// body: the schema through its own parser, the rest through encoding/json.
func BenchmarkPlanReplyDecode(b *testing.B) {
	body := planReply(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		var out PlanResult
		if err := decodeReply(body, &out); err != nil || out.Schema == nil || len(out.Schema.Reducers) != out.Reducers {
			b.Fatalf("decoded %+v: %v", out, err)
		}
	}
}
