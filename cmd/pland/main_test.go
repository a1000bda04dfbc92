package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// newTestServerCfg spins a full server (planner, job manager, mux) behind
// httptest and tears both down with the test.
func newTestServerCfg(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return srv
}

func newTestServer(t *testing.T) *httptest.Server {
	return newTestServerCfg(t, serverConfig{})
}

func postPlan(t *testing.T, srv *httptest.Server, body string) (*http.Response, plandclient.PlanResult) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out plandclient.PlanResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, out
}

// decodeErrorEnvelope asserts the unified {"error":{"code","message"}} shape
// and returns the code.
func decodeErrorEnvelope(t *testing.T, resp *http.Response) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error response is not the envelope shape: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %+v", env)
	}
	return env.Error.Code
}

// TestPlanEndToEndA2A drives POST /v1/plan through a real HTTP round trip:
// the answer must be a valid schema for the instance, and the isomorphic
// repeat must be served from the cache.
func TestPlanEndToEndA2A(t *testing.T) {
	srv := newTestServer(t)
	resp, out := postPlan(t, srv, `{"problem":"A2A","capacity":10,"sizes":[3,3,2,2,4,1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Schema == nil {
		t.Fatal("no schema in response")
	}
	set := assign.MustNewInputSet([]assign.Size{3, 3, 2, 2, 4, 1})
	if err := out.Schema.ValidateA2A(set); err != nil {
		t.Fatalf("served schema invalid: %v", err)
	}
	if out.Reducers != out.Schema.NumReducers() {
		t.Errorf("reducers field %d != schema %d", out.Reducers, out.Schema.NumReducers())
	}
	if out.Reducers < out.LowerBoundReducers {
		t.Errorf("reducers %d below lower bound %d", out.Reducers, out.LowerBoundReducers)
	}
	if out.Winner == "" {
		t.Error("missing winner")
	}
	if out.CacheHit {
		t.Error("first request cannot hit the cache")
	}

	// An isomorphic permutation of the same instance must be a cache hit
	// with the same reducer count.
	resp2, out2 := postPlan(t, srv, `{"problem":"A2A","capacity":10,"sizes":[1,4,2,3,2,3]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
	if !out2.CacheHit {
		t.Error("isomorphic repeat was not served from cache")
	}
	if out2.Reducers != out.Reducers {
		t.Errorf("cache served %d reducers, fresh solve %d", out2.Reducers, out.Reducers)
	}
	permuted := assign.MustNewInputSet([]assign.Size{1, 4, 2, 3, 2, 3})
	if err := out2.Schema.ValidateA2A(permuted); err != nil {
		t.Fatalf("cached schema invalid for permuted instance: %v", err)
	}
}

func TestPlanEndToEndX2Y(t *testing.T) {
	srv := newTestServer(t)
	resp, out := postPlan(t, srv, `{"problem":"X2Y","capacity":10,"x_sizes":[7,2,1],"y_sizes":[1,2,1,1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	xs := assign.MustNewInputSet([]assign.Size{7, 2, 1})
	ys := assign.MustNewInputSet([]assign.Size{1, 2, 1, 1})
	if err := out.Schema.ValidateX2Y(xs, ys); err != nil {
		t.Fatalf("served schema invalid: %v", err)
	}
}

func TestPlanRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		body     string
		want     int
		wantCode string
	}{
		{`{"problem":"A2A","capacity":10}`, http.StatusBadRequest, "bad_request"}, // no sizes
		{`{"problem":"A2A","capacity":0,"sizes":[1]}`, http.StatusBadRequest, "bad_request"},
		{`{"problem":"nope","capacity":10,"sizes":[1]}`, http.StatusBadRequest, "bad_request"},
		{`{"problem":"A2A","capacity":10,"sizes":[1],"bogus":1}`, http.StatusBadRequest, "bad_request"},
		{`not json`, http.StatusBadRequest, "bad_request"},
		{`{"problem":"A2A","capacity":2,"sizes":[5,5]}`, http.StatusUnprocessableEntity, "unprocessable"}, // infeasible
	}
	for _, tc := range cases {
		resp, _ := postPlan(t, srv, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status = %d, want %d", tc.body, resp.StatusCode, tc.want)
			continue
		}
		if code := decodeErrorEnvelope(t, resp); code != tc.wantCode {
			t.Errorf("body %q: error code = %q, want %q", tc.body, code, tc.wantCode)
		}
	}

	get, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan status = %d, want 405", get.StatusCode)
	}
	if code := decodeErrorEnvelope(t, get); code != "method_not_allowed" {
		t.Errorf("GET /v1/plan error code = %q", code)
	}
}

func TestPlanRejectsOversizedInstance(t *testing.T) {
	capped := newTestServerCfg(t, serverConfig{MaxInputs: 4})
	resp, err := http.Post(capped.URL+"/v1/plan", "application/json",
		bytes.NewBufferString(`{"problem":"A2A","capacity":10,"sizes":[1,1,1,1,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized instance status = %d, want 400", resp.StatusCode)
	}
}

func TestPlanRejectsOversizedBody(t *testing.T) {
	capped := newTestServerCfg(t, serverConfig{MaxBodyBytes: 64})
	// A syntactically valid request whose body is longer than the cap.
	body := `{"problem":"A2A","capacity":10,"sizes":[` + strings.Repeat("1,", 100) + `1]}`
	for _, path := range []string{"/v1/plan", "/v1/execute"} {
		resp, err := http.Post(capped.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s oversized body status = %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestPlanBudgetExhaustionMapsToGatewayTimeout(t *testing.T) {
	// A server whose whole request budget is one nanosecond: the context is
	// done before the first solver starts, so the planner surfaces the
	// context error and the handler maps it to 504. NoCache keeps the request
	// on the context-bounded solve path.
	srv := newTestServerCfg(t, serverConfig{MaxTimeout: time.Nanosecond})
	var sizes []string
	for i := 0; i < 5000; i++ {
		sizes = append(sizes, "1")
	}
	body := `{"problem":"A2A","capacity":10,"no_cache":true,"sizes":[` + strings.Join(sizes, ",") + `]}`
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("budget exhaustion status = %d, want 504", resp.StatusCode)
	}
	if code := decodeErrorEnvelope(t, resp); code != "plan_timeout" {
		t.Errorf("error code = %q, want plan_timeout", code)
	}
}

func postExecute(t *testing.T, srv *httptest.Server, body string) (*http.Response, plandclient.ExecuteResult) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/execute", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out plandclient.ExecuteResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding execute response: %v", err)
		}
	}
	return resp, out
}

// TestExecuteEndToEndA2A drives the plan-and-run endpoint: the service plans
// a schema for the payloads, executes it on the engine, and returns the
// audited run.
func TestExecuteEndToEndA2A(t *testing.T) {
	srv := newTestServer(t)
	resp, out := postExecute(t, srv, `{"problem":"A2A","capacity":10,"inputs":["aaa","bbb","cc","d"],"return_pairs":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Pairs != 6 {
		t.Errorf("pairs = %d, want 6 (all pairs of 4 inputs)", out.Pairs)
	}
	if !out.Audited {
		t.Error("execution was not audited")
	}
	if out.Schema == nil || out.Reducers != out.Schema.NumReducers() || out.Reducers == 0 {
		t.Errorf("schema/reducers inconsistent: %d", out.Reducers)
	}
	if len(out.PairIDs) != 6 {
		t.Errorf("pair_ids = %v, want 6 entries", out.PairIDs)
	}
	seen := map[string]bool{}
	for _, p := range out.PairIDs {
		if seen[p] {
			t.Errorf("pair %q returned twice", p)
		}
		seen[p] = true
	}
	if out.ShuffleBytes == 0 || out.MaxReducerLoad == 0 {
		t.Error("expected non-zero shuffle accounting")
	}
	// Engine loads are the payload bytes (bounded by q per the schema) plus
	// per-record key and framing overhead.
	perRecordOverhead := int64(len("r9") + len("a|9|"))
	if out.MaxReducerLoad > 10+out.ShuffleRecords*perRecordOverhead {
		t.Errorf("max reducer load %d far exceeds q plus framing", out.MaxReducerLoad)
	}
}

func TestExecuteEndToEndX2Y(t *testing.T) {
	srv := newTestServer(t)
	resp, out := postExecute(t, srv, `{"problem":"X2Y","capacity":10,"x_inputs":["aaaaaaa","bb","c"],"y_inputs":["d","ee","f","g"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Pairs != 12 {
		t.Errorf("pairs = %d, want 12 (3x4 cross pairs)", out.Pairs)
	}
	if !out.Audited {
		t.Error("execution was not audited")
	}
}

// TestExecuteOfOneInputIsAudited: a single input requires no pair, so the
// planned schema has no reducer and nothing runs; the schema's static check
// still passed, and the reply says audited.
func TestExecuteOfOneInputIsAudited(t *testing.T) {
	srv := newTestServer(t)
	resp, out := postExecute(t, srv, `{"problem":"A2A","capacity":10,"inputs":["alone"],"return_pairs":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !out.Audited || out.Pairs != 0 || out.Reducers != 0 || len(out.PairIDs) != 0 {
		t.Errorf("audited=%v pairs=%d reducers=%d pair_ids=%v, want true/0/0/none", out.Audited, out.Pairs, out.Reducers, out.PairIDs)
	}
}

func TestExecuteRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"problem":"A2A","capacity":10}`, http.StatusBadRequest},                          // no inputs
		{`{"problem":"A2A","capacity":0,"inputs":["a"]}`, http.StatusBadRequest},            // bad capacity
		{`{"problem":"A2A","capacity":10,"inputs":["a",""]}`, http.StatusBadRequest},        // empty payload
		{`{"problem":"nope","capacity":10,"inputs":["a"]}`, http.StatusBadRequest},          // bad problem
		{`{"problem":"A2A","capacity":10,"inputs":["a"],"bogus":1}`, http.StatusBadRequest}, // unknown field
		{`not json`, http.StatusBadRequest},
		{`{"problem":"A2A","capacity":2,"inputs":["aaa","bbb"]}`, http.StatusUnprocessableEntity}, // infeasible
	}
	for _, tc := range cases {
		resp, _ := postExecute(t, srv, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status = %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	get, err := http.Get(srv.URL + "/v1/execute")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/execute status = %d, want 405", get.StatusCode)
	}
}

func TestExecuteRejectsOversizedInstance(t *testing.T) {
	capped := newTestServerCfg(t, serverConfig{MaxExecInputs: 3})
	resp, err := http.Post(capped.URL+"/v1/execute", "application/json",
		bytes.NewBufferString(`{"problem":"A2A","capacity":10,"inputs":["a","b","c","d"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized execute instance status = %d, want 400", resp.StatusCode)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	srv := newTestServer(t)
	for i := 0; i < 2; i++ { // second call is a cache hit
		resp, _ := postPlan(t, srv, `{"problem":"A2A","capacity":8,"sizes":[2,2,2,2]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan status = %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 2 requests, 1 hit, 1 miss", st.Stats)
	}
	if len(st.SolverWins) == 0 {
		t.Error("expected a solver win recorded")
	}
	if st.Jobs.QueueCapacity == 0 || st.Jobs.Workers == 0 {
		t.Errorf("job stats missing: %+v", st.Jobs)
	}

	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(health.Body); err != nil {
		t.Fatal(err)
	}
	if health.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "ok") {
		t.Errorf("healthz = %d %q", health.StatusCode, buf.String())
	}
}

func TestUnknownEndpointGetsEnvelope(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if code := decodeErrorEnvelope(t, resp); code != "not_found" {
		t.Errorf("error code = %q, want not_found", code)
	}
}

// TestTrailingDataAfterBodyRejected: a request body is one JSON value. Bytes
// after it used to be ignored — a second object, or plain garbage, answered
// 200 — on every route that reads a body; white space may still follow.
func TestTrailingDataAfterBodyRejected(t *testing.T) {
	srv := newTestServer(t)
	send := func(method, path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	// PATCH needs a session to address; creating one with a clean body is the
	// route's own positive control.
	var sess struct {
		ID string `json:"id"`
	}
	const createBody = `{"capacity":20,"sizes":[5,3,7,2,6]}`
	if resp := send(http.MethodPost, "/v2/sessions", createBody); resp.StatusCode != http.StatusCreated {
		t.Fatalf("creating the session: status %d", resp.StatusCode)
	} else if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil || sess.ID == "" {
		t.Fatalf("creating the session: id %q, %v", sess.ID, err)
	}

	const planBody = `{"problem":"A2A","capacity":10,"sizes":[1,2,3]}`
	routes := []struct {
		method, path, body string
		ok                 int
	}{
		{http.MethodPost, "/v1/plan", planBody, http.StatusOK},
		{http.MethodPost, "/v1/execute", `{"problem":"A2A","capacity":10,"inputs":["aaa","bb","c"]}`, http.StatusOK},
		{http.MethodPost, "/v2/sessions", createBody, http.StatusCreated},
		{http.MethodPatch, "/v2/sessions/" + sess.ID, `{"deltas":[{"op":"add","size":4}]}`, http.StatusOK},
		{http.MethodPost, "/v2/jobs", `{"type":"plan","plan":` + planBody + `}`, http.StatusAccepted},
	}
	for _, rt := range routes {
		for _, tail := range []string{` {"capacity":0}`, `]]]garbage`, "\n{}", `0`, `,`} {
			resp := send(rt.method, rt.path, rt.body+tail)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s with %q after the body: status %d, want 400", rt.method, rt.path, tail, resp.StatusCode)
				continue
			}
			if code := decodeErrorEnvelope(t, resp); code != "bad_request" {
				t.Errorf("%s %s with %q after the body: code %q, want bad_request", rt.method, rt.path, tail, code)
			}
		}
		if resp := send(rt.method, rt.path, rt.body+" \t\r\n\n"); resp.StatusCode != rt.ok {
			t.Errorf("%s %s with white space after the body: status %d, want %d", rt.method, rt.path, resp.StatusCode, rt.ok)
		}
	}
}
