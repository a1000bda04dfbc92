package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/pkg/assign/plandclient"
)

// updateGolden rewrites testdata/golden_wire.txt from this build's replies.
// The file is only evidence when it was written by the commit a change is
// compared against: run `go test ./cmd/pland -run TestGoldenWireBytes
// -update-golden` at the parent commit, then the plain test at the change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_wire.txt from this build's replies")

// What differs from run to run in a reply is masked before it is compared:
// the planning time, the lifecycle stamps of a job, and the random session
// and job IDs.
var goldenMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"elapsed_us":\d+`), `"elapsed_us":0`},
	{regexp.MustCompile(`"(created_at|started_at|finished_at|expires_at)":"[^"]+"`), `"$1":"T"`},
	{regexp.MustCompile(`"(id|rebuild_job_id)":"(s-[0-9a-f]{16}|[0-9a-f]{32})"`), `"$1":"ID"`},
}

// goldenRun plays requests against one server and collects the masked
// replies, one "### name status" section each.
type goldenRun struct {
	t   *testing.T
	srv *httptest.Server
	out *bytes.Buffer
}

// call performs one request, records its reply under name, and returns the
// reply's "id" field (empty when it has none).
func (g *goldenRun) call(name, method, path, body string) string {
	g.t.Helper()
	req, err := http.NewRequest(method, g.srv.URL+path, strings.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		g.t.Fatalf("%s: %v", name, err)
	}
	var view struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(raw, &view) // not every reply is an object with an id
	for _, m := range goldenMasks {
		raw = m.re.ReplaceAll(raw, []byte(m.with))
	}
	fmt.Fprintf(g.out, "### %s %d\n%s", name, resp.StatusCode, raw)
	if !bytes.HasSuffix(raw, []byte("\n")) {
		g.out.WriteByte('\n')
	}
	return view.ID
}

// TestGoldenWireBytes holds every JSON body the service writes — plan,
// execute, the session and job views, the handoff acknowledgement and the
// error envelopes — to the bytes the parent commit wrote for the same
// requests. The server encodes the client's own wire types; sharing them may
// not move a byte.
func TestGoldenWireBytes(t *testing.T) {
	var out bytes.Buffer
	g := &goldenRun{t: t, srv: newTestServerCfg(t, serverConfig{MaxSessions: 2}), out: &out}

	const (
		planA2A = `{"problem":"A2A","capacity":10,"sizes":[3,3,2,2,4,1],"timeout_ms":-1}`
		planX2Y = `{"problem":"X2Y","capacity":10,"x_sizes":[7,2,1],"y_sizes":[1,2,1,1],"timeout_ms":-1}`
	)
	g.call("plan_a2a", "POST", "/v1/plan", planA2A)
	g.call("plan_a2a_permuted_hit", "POST", "/v1/plan", `{"problem":"A2A","capacity":10,"sizes":[1,4,2,3,2,3],"timeout_ms":-1}`)
	g.call("plan_x2y", "POST", "/v1/plan", planX2Y)
	g.call("plan_x2y_mirrored_hit", "POST", "/v1/plan", `{"problem":"X2Y","capacity":10,"x_sizes":[1,1,2,1],"y_sizes":[1,7,2],"timeout_ms":-1}`)
	g.call("execute_a2a", "POST", "/v1/execute", `{"problem":"A2A","capacity":10,"inputs":["aaa","bbb","cc","d"],"timeout_ms":-1}`)
	g.call("execute_x2y", "POST", "/v1/execute", `{"problem":"X2Y","capacity":12,"x_inputs":["aaaa","bb"],"y_inputs":["c","dd","eee"],"timeout_ms":-1}`)
	g.call("execute_pairs_spilled", "POST", "/v1/execute", `{"problem":"A2A","capacity":10,"inputs":["aaa","bbb","cc","d"],"timeout_ms":-1,"return_pairs":true,"memory_budget":16}`)

	sid := g.call("session_create", "POST", "/v2/sessions", `{"capacity":20,"sizes":[5,3,7,2,6],"timeout_ms":-1}`)
	g.call("session_get", "GET", "/v2/sessions/"+sid, "")
	g.call("session_patch", "PATCH", "/v2/sessions/"+sid,
		`{"deltas":[{"op":"add","size":4},{"op":"remove","id":1},{"op":"resize","id":0,"size":9},{"op":"remove","id":99},{"op":"add","size":1}]}`)
	g.call("session_get_patched", "GET", "/v2/sessions/"+sid, "")
	g.call("session_list", "GET", "/v2/sessions", "")
	g.call("session_patch_empty", "PATCH", "/v2/sessions/"+sid, `{"deltas":[]}`)
	g.call("session_method", "PUT", "/v2/sessions/"+sid, "")
	g.call("sessions_method", "PUT", "/v2/sessions", "")
	g.call("session_create_empty", "POST", "/v2/sessions", `{"capacity":20}`)
	g.call("session_limit", "POST", "/v2/sessions", `{"capacity":20}`)
	g.call("session_delete", "DELETE", "/v2/sessions/"+sid, "")
	g.call("session_unknown", "GET", "/v2/sessions/s-0000000000000000", "")
	g.call("session_bad_capacity", "POST", "/v2/sessions", `{"capacity":0}`)
	g.call("session_infeasible", "POST", "/v2/sessions", `{"capacity":4,"sizes":[3,3]}`)

	jid := g.call("job_submit_plan", "POST", "/v2/jobs", `{"type":"plan","plan":`+planX2Y+`}`)
	g.waitJob(jid)
	g.call("job_poll_plan", "GET", "/v2/jobs/"+jid, "")
	g.call("job_delete_finished", "DELETE", "/v2/jobs/"+jid, "")
	g.call("job_method", "PATCH", "/v2/jobs/"+jid, "")
	jid = g.call("job_submit_execute", "POST", "/v2/jobs", `{"type":"execute","execute":{"problem":"A2A","capacity":10,"inputs":["aaa","bbb","cc","d"],"timeout_ms":-1}}`)
	g.waitJob(jid)
	g.call("job_poll_execute", "GET", "/v2/jobs/"+jid, "")
	jid = g.call("job_submit_infeasible", "POST", "/v2/jobs", `{"type":"plan","plan":{"problem":"A2A","capacity":2,"sizes":[5,5]}}`)
	g.waitJob(jid)
	g.call("job_poll_failed", "GET", "/v2/jobs/"+jid, "")
	g.call("job_unknown", "GET", "/v2/jobs/00000000000000000000000000000000", "")
	g.call("job_bad_type", "POST", "/v2/jobs", `{"type":"nope"}`)
	g.call("job_no_payload", "POST", "/v2/jobs", `{"type":"plan"}`)
	g.call("jobs_method", "GET", "/v2/jobs", "")

	g.call("plan_method", "GET", "/v1/plan", "")
	g.call("plan_malformed", "POST", "/v1/plan", `not json`)
	g.call("plan_unknown_field", "POST", "/v1/plan", `{"problem":"A2A","capacity":10,"sizes":[1],"bogus":1}`)
	g.call("plan_trailing_data", "POST", "/v1/plan", planA2A+`{"capacity":0}`)
	g.call("plan_no_sizes", "POST", "/v1/plan", `{"problem":"A2A","capacity":10}`)
	g.call("plan_bad_problem", "POST", "/v1/plan", `{"problem":"nope","capacity":10,"sizes":[1]}`)
	g.call("plan_infeasible", "POST", "/v1/plan", `{"problem":"A2A","capacity":2,"sizes":[5,5]}`)
	g.call("execute_method", "DELETE", "/v1/execute", "")
	g.call("execute_empty_payload", "POST", "/v1/execute", `{"problem":"A2A","capacity":10,"inputs":["a",""]}`)
	g.call("stats_method", "POST", "/v1/stats", "")
	g.call("unknown_endpoint", "GET", "/no/such/endpoint", "")
	g.call("cache_unclustered", "GET", "/internal/cache/k", "")

	// The handoff body was captured from the parent commit's drain path, so
	// this is also the cross-version check of the handoff contract: a session
	// shipped by the old build installs under the new one with the fingerprint
	// the sender stamped.
	handoff, err := os.ReadFile(filepath.Join("testdata", "handoff_parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	g.call("handoff", "POST", "/internal/handoff", string(handoff))
	g.call("handoff_session_get", "GET", "/v2/sessions/s-handoff-golden", "")
	g.call("handoff_duplicate", "POST", "/internal/handoff", string(handoff))
	g.call("handoff_wrong_fingerprint", "POST", "/internal/handoff",
		regexp.MustCompile(`"fingerprint":"[0-9a-f]{16}"`).ReplaceAllString(string(handoff), `"fingerprint":"0000000000000001"`))
	g.call("handoff_bad_fingerprint", "POST", "/internal/handoff", `{"id":"s-x","state":{"capacity":1},"fingerprint":"xyz"}`)
	g.call("handoff_no_state", "POST", "/internal/handoff", `{"id":"s-x","fingerprint":"00"}`)
	g.call("handoff_method", "GET", "/internal/handoff", "")

	// A request context of one nanosecond is done before any solver starts.
	g.srv = newTestServerCfg(t, serverConfig{MaxTimeout: time.Nanosecond})
	g.call("plan_timeout", "POST", "/v1/plan",
		`{"problem":"A2A","capacity":10,"no_cache":true,"sizes":[1`+strings.Repeat(",1", 4999)+`]}`)

	path := filepath.Join("testdata", "golden_wire.txt")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantSections, gotSections := bytes.SplitAfter(want, []byte("\n### ")), bytes.SplitAfter(out.Bytes(), []byte("\n### "))
	for i := 0; i < len(wantSections) && i < len(gotSections); i++ {
		if !bytes.Equal(wantSections[i], gotSections[i]) {
			t.Fatalf("reply %d differs from the parent's bytes\n got: %s\nwant: %s", i, gotSections[i], wantSections[i])
		}
	}
	if len(wantSections) != len(gotSections) {
		t.Fatalf("%d replies recorded, golden file has %d", len(gotSections), len(wantSections))
	}
}

// waitJob polls until the job is terminal, so the poll that is recorded next
// sees its final view.
func (g *goldenRun) waitJob(id string) {
	g.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := plandclient.New(g.srv.URL).WaitJob(ctx, id, 10*time.Millisecond); err != nil {
		g.t.Fatalf("job %s never finished: %v", id, err)
	}
}
