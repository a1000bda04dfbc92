package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubPland serves just enough of the pland API for the generator: v1 plan
// and execute, and the v2 session CRUD cycle churn exercises.
type stubPland struct {
	mu       sync.Mutex
	sessions map[string]bool
	nextID   atomic.Uint64

	plans    atomic.Uint64
	executes atomic.Uint64
	creates  atomic.Uint64

	// dropSessions makes every session GET answer 404, simulating a node
	// that lost acknowledged state.
	dropSessions bool
	// failAll makes every call answer 500.
	failAll bool
}

func (s *stubPland) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.failAll {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{"code": "internal", "message": "stub down"}})
			return
		}
		switch {
		case r.URL.Path == "/v1/plan":
			s.plans.Add(1)
			json.NewEncoder(w).Encode(map[string]any{"reducers": 2, "winner": "stub"})
		case r.URL.Path == "/v1/execute":
			s.executes.Add(1)
			json.NewEncoder(w).Encode(map[string]any{"reducers": 2, "pairs": 1})
		case r.URL.Path == "/v2/sessions" && r.Method == http.MethodPost:
			s.creates.Add(1)
			id := "s-" + strconv.FormatUint(s.nextID.Add(1), 10)
			s.mu.Lock()
			if s.sessions == nil {
				s.sessions = map[string]bool{}
			}
			s.sessions[id] = true
			s.mu.Unlock()
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(map[string]any{"id": id, "inputs": 3})
		case strings.HasPrefix(r.URL.Path, "/v2/sessions/"):
			id := strings.TrimPrefix(r.URL.Path, "/v2/sessions/")
			s.mu.Lock()
			live := s.sessions[id]
			if r.Method == http.MethodDelete {
				delete(s.sessions, id)
			}
			s.mu.Unlock()
			if !live || (s.dropSessions && r.Method == http.MethodGet) {
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{"code": "not_found", "message": "no such session"}})
				return
			}
			switch r.Method {
			case http.MethodGet, http.MethodDelete:
				json.NewEncoder(w).Encode(map[string]any{"id": id, "inputs": 3})
			case http.MethodPatch:
				json.NewEncoder(w).Encode(map[string]any{"id": id, "applied": 1})
			}
		default:
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{"code": "not_found", "message": "no route"}})
		}
	})
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("plan=6, execute=2,churn=0")
	if err != nil {
		t.Fatal(err)
	}
	if mix[opPlan] != 6 || mix[opExecute] != 2 || mix[opChurn] != 0 {
		t.Fatalf("mix = %v", mix)
	}
	for _, bad := range []string{"plan", "plan=x", "warmup=3", "plan=-1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestOpenLoopAllOps(t *testing.T) {
	stub := &stubPland{}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	report, err := runLoad(context.Background(), loadConfig{
		Targets:      []string{srv.URL},
		Mix:          map[string]int{opPlan: 2, opExecute: 1, opChurn: 1},
		Rate:         200,
		Duration:     300 * time.Millisecond,
		Inputs:       4,
		Capacity:     16,
		Seed:         7,
		MaxErrorRate: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("no requests ran")
	}
	if report.Errors != 0 || len(report.Violations) != 0 {
		t.Fatalf("clean stub produced errors: %+v", report)
	}
	if stub.plans.Load() == 0 || stub.executes.Load() == 0 || stub.creates.Load() == 0 {
		t.Fatalf("mix did not reach all ops: plans=%d executes=%d creates=%d",
			stub.plans.Load(), stub.executes.Load(), stub.creates.Load())
	}
	if report.Throughput <= 0 || report.P99MS <= 0 {
		t.Fatalf("degenerate stats: %+v", report)
	}
}

func TestOpenLoopRate(t *testing.T) {
	stub := &stubPland{}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	report, err := runLoad(context.Background(), loadConfig{
		Targets:  []string{srv.URL},
		Mix:      map[string]int{opPlan: 1},
		Rate:     200,
		Duration: 500 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~100 ticks expected; allow wide slack for CI scheduling.
	if report.Requests < 20 {
		t.Fatalf("open loop ran only %d ops at 200/s over 500ms", report.Requests)
	}
}

func TestRotatesAwayFromDeadTarget(t *testing.T) {
	stub := &stubPland{}
	live := httptest.NewServer(stub.handler())
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	report, err := runLoad(context.Background(), loadConfig{
		Targets:  []string{deadURL, live.URL},
		Mix:      map[string]int{opPlan: 1},
		Rate:     100,
		Duration: 250 * time.Millisecond,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("no requests ran")
	}
	if report.Errors != 0 {
		t.Fatalf("dead target leaked %d errors through rotation (of %d)", report.Errors, report.Requests)
	}
}

func TestChurnCountsLostSessions(t *testing.T) {
	stub := &stubPland{dropSessions: true}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	report, err := runLoad(context.Background(), loadConfig{
		Targets:         []string{srv.URL},
		Mix:             map[string]int{opChurn: 1},
		Rate:            20,
		Duration:        300 * time.Millisecond,
		LostTimeout:     50 * time.Millisecond,
		Seed:            5,
		RequireZeroLost: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Lost == 0 {
		t.Fatal("vanished sessions were not counted as lost")
	}
	if len(report.Violations) == 0 {
		t.Fatal("require-zero-lost did not trip")
	}
}

func TestErrorRateGate(t *testing.T) {
	stub := &stubPland{failAll: true}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	report, err := runLoad(context.Background(), loadConfig{
		Targets:      []string{srv.URL},
		Mix:          map[string]int{opPlan: 1},
		Rate:         100,
		Duration:     200 * time.Millisecond,
		Seed:         9,
		MaxErrorRate: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors == 0 {
		t.Fatal("all-500 stub produced no errors")
	}
	violated := false
	for _, v := range report.Violations {
		if strings.Contains(v, "error rate") {
			violated = true
		}
	}
	if !violated {
		t.Fatalf("error-rate gate did not trip: %+v", report.Violations)
	}
}

// TestDeadlineCutOpsAreNotTimed: an op the end of the run cuts short is not
// counted, so it must not be timed either. A fleet that answers nothing before
// the run ends leaves zero requests, a zero p99, and no p99 violation.
func TestDeadlineCutOpsAreNotTimed(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)

	report, err := runLoad(context.Background(), loadConfig{
		Targets:  []string{srv.URL},
		Mix:      map[string]int{opPlan: 1},
		Rate:     100,
		Duration: 200 * time.Millisecond,
		Seed:     11,
		MaxP99:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 0 || report.P99MS != 0 || len(report.Violations) != 0 {
		t.Fatalf("requests=%d p99=%.1fms violations=%v, want 0, 0 and none",
			report.Requests, report.P99MS, report.Violations)
	}
}

func TestRateMustBePositive(t *testing.T) {
	if _, err := runLoad(context.Background(), loadConfig{
		Targets:  []string{"http://127.0.0.1:1"},
		Mix:      map[string]int{opPlan: 1},
		Duration: time.Second,
	}); err == nil {
		t.Fatal("a run without a rate was accepted")
	}
}
