package plandclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/pkg/assign"
)

// stubPland fakes the pland wire contract: /v1/plan answers directly, v2
// jobs advance queued → running → succeeded one state per poll.
type stubPland struct {
	mu    sync.Mutex
	polls map[string]int
	fail  map[string]bool
}

func newStub() *stubPland {
	return &stubPland{polls: map[string]int{}, fail: map[string]bool{}}
}

func (s *stubPland) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", func(w http.ResponseWriter, r *http.Request) {
		var req PlanRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Capacity <= 0 {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprint(w, `{"error":{"code":"bad_request","message":"capacity must be positive"}}`)
			return
		}
		json.NewEncoder(w).Encode(PlanResult{Reducers: 3, Winner: "stub", Candidates: 1})
	})
	mux.HandleFunc("/v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Type string       `json:"type"`
			Plan *PlanRequest `json:"plan"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprint(w, `{"error":{"code":"bad_request","message":"bad body"}}`)
			return
		}
		s.mu.Lock()
		id := fmt.Sprintf("job-%d", len(s.polls))
		s.polls[id] = 0
		if req.Plan != nil && req.Plan.NoCache {
			s.fail[id] = true // stub convention: no_cache jobs fail
		}
		s.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(Job{ID: id, Type: req.Type, State: StateQueued, CreatedAt: time.Now()})
	})
	mux.HandleFunc("/v2/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Path[len("/v2/jobs/"):]
		s.mu.Lock()
		polls, ok := s.polls[id]
		failing := s.fail[id]
		if ok {
			s.polls[id]++
		}
		s.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such job"}}`)
			return
		}
		if r.Method == http.MethodDelete {
			json.NewEncoder(w).Encode(Job{ID: id, State: StateCanceled,
				Error: &ErrorBody{Code: CodeCanceled, Message: "job canceled"}})
			return
		}
		job := Job{ID: id, Type: "plan"}
		switch {
		case polls == 0:
			job.State = StateQueued
		case polls == 1:
			job.State = StateRunning
		case failing:
			job.State = StateFailed
			job.Error = &ErrorBody{Code: CodePlanTimeout, Message: "budget exhausted"}
		default:
			job.State = StateSucceeded
			job.Result = json.RawMessage(`{"reducers":4,"winner":"stub-async"}`)
		}
		json.NewEncoder(w).Encode(job)
	})
	return mux
}

func newStubClient(t *testing.T) (*Client, *stubPland) {
	t.Helper()
	stub := newStub()
	srv := httptest.NewServer(stub.handler())
	t.Cleanup(srv.Close)
	return New(srv.URL), stub
}

func TestPlanSync(t *testing.T) {
	c, _ := newStubClient(t)
	res, err := c.Plan(context.Background(), PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reducers != 3 || res.Winner != "stub" {
		t.Errorf("result = %+v", res)
	}
}

func TestPlanSyncAPIError(t *testing.T) {
	c, _ := newStubClient(t)
	_, err := c.Plan(context.Background(), PlanRequest{Problem: "A2A"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.StatusCode != http.StatusBadRequest || ae.Code != CodeBadRequest {
		t.Errorf("APIError = %+v", ae)
	}
	if !IsCode(err, CodeBadRequest) {
		t.Error("IsCode(bad_request) = false")
	}
}

func TestWaitJobPollsToSuccess(t *testing.T) {
	c, _ := newStubClient(t)
	job, err := c.SubmitPlan(context.Background(), PlanRequest{Problem: "A2A", Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued || job.Terminal() {
		t.Fatalf("submit state = %s", job.State)
	}
	final, err := c.WaitJob(context.Background(), job.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded {
		t.Fatalf("final state = %s", final.State)
	}
	res, err := final.PlanResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reducers != 4 || res.Winner != "stub-async" {
		t.Errorf("decoded result = %+v", res)
	}
}

// TestPlanResultSurfacesJobFailure: submit, wait, decode — a failed job's
// PlanResult is the job's own error, and a job that ended without one still
// refuses to decode.
func TestPlanResultSurfacesJobFailure(t *testing.T) {
	c, _ := newStubClient(t)
	ctx := context.Background()
	// Stub convention: no_cache jobs fail with plan_timeout.
	job, err := c.SubmitPlan(ctx, PlanRequest{Problem: "A2A", Capacity: 8, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = c.WaitJob(ctx, job.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := job.PlanResult(); !IsCode(err, CodePlanTimeout) {
		t.Fatalf("err = %v, want plan_timeout APIError", err)
	}
	bare := &Job{ID: "job-x", State: StateCanceled}
	if _, err := bare.ExecuteResult(); err == nil || IsCode(err, CodeCanceled) {
		t.Fatalf("err = %v, want the generic not-succeeded error", err)
	}
}

func TestGetJobNotFound(t *testing.T) {
	c, _ := newStubClient(t)
	_, err := c.GetJob(context.Background(), "missing")
	if !IsCode(err, CodeNotFound) {
		t.Fatalf("err = %v, want not_found", err)
	}
}

func TestCancelJob(t *testing.T) {
	c, _ := newStubClient(t)
	job, err := c.SubmitPlan(context.Background(), PlanRequest{Problem: "A2A", Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.CancelJob(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Errorf("state = %s, want canceled", got.State)
	}
	if !IsCode(got.Err(), CodeCanceled) {
		t.Errorf("job err = %v", got.Err())
	}
}

func TestWaitJobHonorsContext(t *testing.T) {
	c, _ := newStubClient(t)
	job, err := c.SubmitPlan(context.Background(), PlanRequest{Problem: "A2A", Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Refetch resets: the stub advances one state per poll, so an immediate
	// deadline must abort between polls with the last-seen job.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	last, err := c.WaitJob(ctx, job.ID, time.Hour)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if last == nil || last.Terminal() {
		t.Errorf("last-seen job = %+v", last)
	}
}

func TestNonEnvelopeErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", http.StatusBadGateway)
	}))
	defer srv.Close()
	c := New(srv.URL)
	_, err := c.Plan(context.Background(), PlanRequest{Problem: "A2A", Capacity: 1})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.StatusCode != http.StatusBadGateway || ae.Message != "plain text failure" {
		t.Errorf("APIError = %+v", ae)
	}
}

// TestConnectionReusedAfterEveryReply: whatever doOnce does with a reply —
// decode it, decode an error envelope, ignore it — must leave the
// connection reusable. json.Decoder stops at the value's closing brace; once a
// body is large enough to be chunked its EOF has not been read by then, and
// closing it there made net/http dial again for the next call: one dial per
// schema-carrying reply.
func TestConnectionReusedAfterEveryReply(t *testing.T) {
	big := &assign.MappingSchema{Problem: assign.ProblemA2A, Capacity: 1000}
	for r := 0; r < 190; r++ {
		ids := make([]int, 30)
		for i := range ids {
			ids[i] = 1000 + 31*r + i
		}
		big.Reducers = append(big.Reducers, assign.Reducer{Inputs: ids, Load: 900})
	}
	// The bodies end in the newline json.Encoder adds in cmd/pland; with no
	// Content-Length the server chunks what does not fit its 2 KB buffer.
	bigBody, _ := json.Marshal(PlanResult{Schema: big, Reducers: len(big.Reducers), Winner: "stub"})
	smallBody, _ := json.Marshal(PlanResult{Reducers: 3, Winner: "stub"})
	if len(bigBody) <= 4<<10 || len(smallBody) >= 1<<10 {
		t.Fatalf("stub replies are %d and %d bytes; want one over 4 KB and one under 1 KB", len(bigBody), len(smallBody))
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req PlanRequest // capacity picks the reply; execute bodies decode into it too
		if r.Method != http.MethodGet {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("stub: decoding %s %s: %v", r.Method, r.URL.Path, err)
			}
		}
		switch {
		case r.URL.Path == "/readyz":
			fmt.Fprintln(w, `{"status":"ok"}`)
		case r.Method == http.MethodPost && req.Capacity == 0:
			w.WriteHeader(http.StatusUnprocessableEntity)
			fmt.Fprintln(w, `{"error":{"code":"unprocessable","message":"no capacity"}}`)
		case r.Method == http.MethodPost && req.Capacity <= 100:
			w.Write(append(smallBody[:len(smallBody):len(smallBody)], '\n'))
		default:
			w.Write(append(bigBody[:len(bigBody):len(bigBody)], '\n'))
			// The chunk that ends the body goes out when the handler returns.
			// Hold it back a moment, so the client has decoded the value
			// before it arrives, as it has when the value is 33 KB.
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		}
	}))
	defer srv.Close()

	dials := 0 // one client goroutine, so dials happen on it
	var dialer net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials++
		return dialer.DialContext(ctx, network, addr)
	}}
	defer tr.CloseIdleConnections()
	c := New(srv.URL, WithHTTPClient(&http.Client{Transport: tr}))
	ctx := context.Background()
	plan := func(capacity assign.Size) (*PlanResult, error) {
		return c.Plan(ctx, PlanRequest{Problem: "A2A", Capacity: capacity, Sizes: []assign.Size{1, 2}})
	}
	wantBig := func(ms *assign.MappingSchema) error {
		if !reflect.DeepEqual(ms, big) {
			return fmt.Errorf("decoded a schema of %d reducers, not the stub's", ms.NumReducers())
		}
		return nil
	}
	calls := []func() error{
		func() error {
			res, err := plan(1000)
			if err != nil {
				return err
			}
			return wantBig(res.Schema)
		},
		func() error { _, err := plan(10); return err },
		func() error {
			if _, err := plan(0); !IsCode(err, CodeUnprocessable) {
				return fmt.Errorf("err = %v, want the stub's unprocessable", err)
			}
			return nil
		},
		func() error {
			res, err := c.Execute(ctx, ExecuteRequest{Problem: "A2A", Capacity: 1000, Inputs: []string{"a", "bb"}})
			if err != nil {
				return err
			}
			return wantBig(res.Schema)
		},
		func() error { return c.Ready(ctx) },
	}
	for i := 0; i < 200; i++ {
		if err := calls[i%len(calls)](); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if dials != 1 {
		t.Errorf("200 calls dialed %d times, want 1: replies are leaving their connections unusable", dials)
	}
}
