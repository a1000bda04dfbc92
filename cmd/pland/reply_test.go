package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// encodeReference is what writeJSON writes for v: encoding/json over the
// whole reply, schema included.
func encodeReference(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// schemaReplyCase is a reply and a pointer to its schema field.
type schemaReplyCase struct {
	v      any
	schema **assign.MappingSchema
}

// TestSchemaRepliesMatchEncoder: for every reply that carries a schema,
// writeSchemaJSON writes the bytes encoding/json writes, sets the same
// status and Content-Type, and leaves the reply's schema field as it was.
func TestSchemaRepliesMatchEncoder(t *testing.T) {
	ctx := context.Background()
	pl := assign.NewPlanner(assign.PlannerConfig{})
	a2a, err := pl.Plan(ctx, assign.A2A([]assign.Size{3, 3, 2, 2, 4, 1, 7, 5}), assign.Capacity(12))
	if err != nil {
		t.Fatal(err)
	}
	x2y, err := pl.Plan(ctx, assign.X2Y([]assign.Size{7, 2, 1}, []assign.Size{1, 2, 1, 1}), assign.Capacity(10))
	if err != nil {
		t.Fatal(err)
	}
	escaped := *a2a.Schema
	escaped.Algorithm = "a2a <b>&</b> \"q\" line\u2028sep"
	schemas := map[string]*assign.MappingSchema{
		"a2a": a2a.Schema, "x2y": x2y.Schema, "escaped": &escaped,
		"empty": {}, "nil": nil,
	}
	stats := assign.SessionStats{Inputs: 8, Reducers: 3, DriftRatio: 0.25}
	for name, ms := range schemas {
		replies := map[string]schemaReplyCase{}
		plan := &plandclient.PlanResult{Schema: ms, Reducers: 3, ReplicationRate: 2.5, Winner: "a2a/<solve>&",
			LowerBoundReducers: 2, Gap: 1, Candidates: 3, CacheHit: true, FleetCacheHit: true, ElapsedMicros: 17}
		replies["plan"] = schemaReplyCase{plan, &plan.Schema}
		exec := &plandclient.ExecuteResult{Schema: ms, Reducers: 3, Winner: "x2y & <grid>", Pairs: 12,
			PairIDs: []string{"0,1", "<2>,&3"}, ShuffleBytes: 40, SpillRuns: 2, Audited: true}
		replies["execute"] = schemaReplyCase{exec, &exec.Schema}
		full := &plandclient.Session{ID: "s-<id>&\"schema\":", Stats: stats, Schema: ms, IDs: []int{0, 4},
			Sizes: []assign.Size{3, 9}, RebuildJobID: "j", Node: "http://n", Fingerprint: "00ff"}
		replies["session_full"] = schemaReplyCase{full, &full.Schema}
		bare := &plandclient.Session{ID: "s-1", Stats: stats, Schema: ms}
		replies["session_bare"] = schemaReplyCase{bare, &bare.Schema}

		for kind, r := range replies {
			want := encodeReference(t, r.v)
			rec := httptest.NewRecorder()
			writeSchemaJSON(rec, httptest.NewRequest("GET", "/", nil), http.StatusCreated, r.v, r.schema)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s %s:\n got %s\nwant %s", name, kind, got, want)
			}
			if rec.Code != http.StatusCreated || rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s %s: status %d, Content-Type %q", name, kind, rec.Code, rec.Header().Get("Content-Type"))
			}
			if *r.schema != ms {
				t.Errorf("%s %s: the reply's schema field was not restored", name, kind)
			}
		}
	}
}

// TestSchemaReplyEncodeStage: a schema reply's request span has an "encode"
// stage, on every route that writes one.
func TestSchemaReplyEncodeStage(t *testing.T) {
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{TraceSampleRate: 1})
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	c := plandclient.New(srv.URL)
	ctx := context.Background()
	plan, err := c.Plan(ctx, plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := c.Execute(ctx, plandclient.ExecuteRequest{Problem: "A2A", Capacity: 10, Inputs: []string{"aaa", "bbb", "cc", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	created, err := c.CreateSession(ctx, plandclient.SessionCreateRequest{Capacity: 20, Sizes: []assign.Size{5, 3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GetSession(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	for route, traceID := range map[string]string{
		"/v1/plan": plan.TraceID, "/v1/execute": exec.TraceID,
		"/v2/sessions": created.TraceID, "/v2/sessions/{id}": got.TraceID,
	} {
		recs := traceRecords(t, s, traceID)
		if recs[0].Route != route {
			t.Fatalf("trace %s is route %q, want %q", traceID, recs[0].Route, route)
		}
		if findSpan(recs[0].Root, "encode") == nil {
			t.Errorf("%s trace has no encode stage: %+v", route, recs[0].Root)
		}
	}
}

// BenchmarkPlanReplyEncode measures writing a /v1/plan reply as pland does,
// at BenchmarkSchemaJSON's shape: the plan of about 400 Zipf-sized inputs
// packed into 20 half-capacity bins (190 reducers, some 6,000 IDs, 33 KB).
func BenchmarkPlanReplyEncode(b *testing.B) {
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
	resp := &plandclient.PlanResult{Schema: res.Schema, Reducers: res.Cost.Reducers,
		Communication: res.Cost.Communication, ReplicationRate: res.Cost.ReplicationRate,
		MaxLoad: res.Cost.MaxLoad, Winner: res.Winner, LowerBoundReducers: res.LowerBoundReducers,
		Gap: res.Gap, Candidates: res.Candidates, ElapsedMicros: 1234}
	want := len(encodeReference(b, resp))
	req := httptest.NewRequest("POST", "/v1/plan", nil)
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.SetBytes(int64(want))
	for i := 0; i < b.N; i++ {
		w.n = 0
		writeSchemaJSON(w, req, http.StatusOK, resp, &resp.Schema)
		if w.n != want {
			b.Fatalf("wrote %d bytes, want %d", w.n, want)
		}
	}
}

// discardWriter is a ResponseWriter that counts the body and keeps nothing.
type discardWriter struct {
	header http.Header
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
