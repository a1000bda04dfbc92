package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// TestIDFormats pins the shape of every ID the service draws, all of them
// minted by one helper in obs: 16 hex for request and span IDs, 32 hex for
// trace IDs and for job IDs (the job manager's own and the ones pland draws
// before it enqueues), and "s-" plus 16 hex for sessions.
func TestIDFormats(t *testing.T) {
	m := jobs.New(jobs.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()
	job, err := m.Submit("noop", func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	hex16, hex32 := `^[0-9a-f]{16}$`, `^[0-9a-f]{32}$`
	for _, c := range []struct{ name, id, pattern string }{
		{"request", obs.NewRequestID(), hex16},
		{"span", obs.NewSpanID(), hex16},
		{"trace", obs.NewTraceID(), hex32},
		{"job (manager)", job.ID, hex32},
		{"job (pland)", newJobID(), hex32},
		{"session", newSessionID(), `^s-[0-9a-f]{16}$`},
	} {
		if !regexp.MustCompile(c.pattern).MatchString(c.id) {
			t.Errorf("%s ID %q does not match %s", c.name, c.id, c.pattern)
		}
	}
}

func TestRequestIDHeader(t *testing.T) {
	srv := newTestServer(t)

	// No inbound ID: the server generates a 16-hex one.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex chars", id)
	}

	// A sane inbound ID is echoed back unchanged.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-42" {
		t.Fatalf("echoed X-Request-ID = %q, want trace-42", got)
	}

	// A hostile inbound ID (too long) is replaced, not echoed.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", strings.Repeat("x", 200))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Fatalf("oversized inbound ID echoed back as %q, want a generated one", got)
	}
}

// TestMetricsEndpoint drives real traffic through the server and checks the
// scrape reflects it in valid exposition format. obs.Default is process-wide,
// so its series are checked for presence only; the planner and the job
// manager count in their own series, so this server's counts are exact.
func TestMetricsEndpoint(t *testing.T) {
	s, c := newTestServerWithJobs(t, serverConfig{})
	ctx := context.Background()
	req := plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}}
	for i := 0; i < 2; i++ {
		if _, err := c.Plan(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	job, err := c.SubmitPlan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, job.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`pland_http_requests_total{route="/v1/plan",status="200"}`,
		`pland_http_request_seconds_bucket{route="/v1/plan",le="+Inf"}`,
		"# TYPE pland_http_requests_total counter",
		"# TYPE pland_http_request_seconds histogram",
		"# TYPE pland_stream_sessions gauge",
		"# TYPE pland_exec_runs_total counter",
		"pland_http_in_flight",
		// The first plan solves, the second and the job's hit the cache.
		"pland_planner_requests_total{outcome=\"miss\"} 1\n",
		"pland_planner_requests_total{outcome=\"hit\"} 2\n",
		"pland_planner_requests_total{outcome=\"error\"} 0\n",
		"pland_planner_plan_seconds_count 3\n",
		"pland_planner_race_seconds_count 1\n",
		"pland_planner_cache_entries 1\n",
		"pland_jobs_submitted_total 1\n",
		"pland_jobs_finished_total{state=\"succeeded\"} 1\n",
		"pland_jobs_queue_depth 0\n",
		"pland_jobs_in_flight 0\n",
		"pland_jobs_run_seconds_count 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
	if !strings.HasSuffix(body, "\n") {
		t.Error("scrape does not end with a newline")
	}
	st := s.planner.Stats()
	if st.Requests != 3 || st.CacheMisses != 1 || st.CacheHits != 2 || len(st.SolverWins) != 1 {
		t.Errorf("planner stats = %+v, want the scrape's 3 requests: 1 miss, 2 hits, 1 win", st)
	}
	if js := s.jobs.Stats(); js.Submitted != 1 || js.Succeeded != 1 {
		t.Errorf("job stats = %+v, want the scrape's 1 submitted, 1 succeeded", js)
	}
}

// TestMetricsMovesToDebugAddr checks that configuring a debug listener takes
// /metrics and pprof off the API mux.
func TestMetricsMovesToDebugAddr(t *testing.T) {
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{DebugAddr: "127.0.0.1:0"})
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics on API mux = %d, want 404 when -debug-addr is set", resp.StatusCode)
	}

	dbg := httptest.NewServer(s.debugMux())
	defer dbg.Close()
	resp, err = http.Get(dbg.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics on debug mux = %d", resp.StatusCode)
	}
	resp, err = http.Get(dbg.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline on debug mux = %d", resp.StatusCode)
	}
}

// TestStatsReportsQueueAndSessions checks the /v1/stats view over the queue
// and session managers (satellite of the observability spine).
func TestStatsReportsQueueAndSessions(t *testing.T) {
	srv := newTestServer(t)

	body := `{"capacity":20,"sizes":[5,3,7]}`
	resp, err := http.Post(srv.URL+"/v2/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session status = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Jobs struct {
			QueueDepth    int `json:"queue_depth"`
			QueueCapacity int `json:"queue_capacity"`
			Workers       int `json:"workers"`
			Running       int `json:"running"`
		} `json:"jobs"`
		Sessions struct {
			Live  int `json:"live"`
			Limit int `json:"limit"`
		} `json:"sessions"`
		HTTP struct {
			InFlight int64 `json:"in_flight"`
		} `json:"http"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions.Live != 1 {
		t.Errorf("sessions.live = %d, want 1", stats.Sessions.Live)
	}
	if stats.Sessions.Limit <= 0 {
		t.Errorf("sessions.limit = %d, want positive", stats.Sessions.Limit)
	}
	if stats.Jobs.QueueCapacity <= 0 || stats.Jobs.Workers <= 0 {
		t.Errorf("jobs block not populated: %+v", stats.Jobs)
	}
	if stats.HTTP.InFlight < 1 {
		t.Errorf("http.in_flight = %d, want >= 1 (this very request)", stats.HTTP.InFlight)
	}
}
