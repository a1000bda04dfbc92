package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if snap.State == want {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	snap, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (last: %s)", id, want, snap.State)
	return Snapshot{}
}

func TestLifecycleSucceeds(t *testing.T) {
	m := New(Config{Workers: 2})
	defer m.Shutdown(context.Background())
	snap, err := m.Submit("test", func(ctx context.Context) (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued || snap.ID == "" || snap.Created.IsZero() {
		t.Errorf("submit snapshot = %+v", snap)
	}
	final := waitState(t, m, snap.ID, StateSucceeded)
	if final.Result != 42 {
		t.Errorf("result = %v, want 42", final.Result)
	}
	if final.Err != nil || final.Started.IsZero() || final.Finished.IsZero() || final.ExpiresAt.IsZero() {
		t.Errorf("final snapshot = %+v", final)
	}
}

func TestLifecycleFails(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Shutdown(context.Background())
	boom := errors.New("boom")
	snap, err := m.Submit("test", func(ctx context.Context) (any, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, snap.ID, StateFailed)
	if !errors.Is(final.Err, boom) {
		t.Errorf("err = %v, want boom", final.Err)
	}
}

func TestCancelRunning(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Shutdown(context.Background())
	started := make(chan struct{})
	snap, err := m.Submit("slow", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final := waitState(t, m, snap.ID, StateCanceled)
	if !errors.Is(final.Err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", final.Err)
	}
	// A second cancel of the now-terminal job reports ErrFinished.
	if _, err := m.Cancel(snap.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel err = %v, want ErrFinished", err)
	}
}

func TestCancelQueued(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	if _, err := m.Submit("blocker", func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit("victim", func(ctx context.Context) (any, error) { return "ran", nil })
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Errorf("state after queued cancel = %s, want canceled immediately", got.State)
	}
	close(block)
	// The worker must skip the canceled job: its result stays nil.
	time.Sleep(20 * time.Millisecond)
	final, err := m.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled || final.Result != nil {
		t.Errorf("canceled job was still run: %+v", final)
	}
}

// TestCancelQueuedFreesQueueSlot: a canceled queued job must release its
// queue capacity immediately, not hold a 429 until a worker skips it.
func TestCancelQueuedFreesQueueSlot(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer m.Shutdown(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := m.Submit("blocker", func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	victim, err := m.Submit("victim", func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("overflow", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("pre-cancel overflow err = %v, want ErrQueueFull", err)
	}
	if _, err := m.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue depth after queued cancel = %d, want 0", st.QueueDepth)
	}
	replacement, err := m.Submit("replacement", func(ctx context.Context) (any, error) { return "ran", nil })
	if err != nil {
		t.Fatalf("submit after queued cancel err = %v, want slot freed", err)
	}
	close(release)
	if final := waitState(t, m, replacement.ID, StateSucceeded); final.Result != "ran" {
		t.Errorf("replacement result = %v", final.Result)
	}
}

func TestBackpressure(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer m.Shutdown(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := m.Submit("blocker", func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds the blocker; the queue itself is empty
	if _, err := m.Submit("fills-queue", func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("overflow", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit err = %v, want ErrQueueFull", err)
	}
	st := m.Stats()
	if st.QueueDepth != 1 || st.QueueCapacity != 1 || st.Running != 1 {
		t.Errorf("stats = %+v", st)
	}
	close(release)
}

// TestStatsReadTheSeries: a manager counts each submit and finish once, in
// its own series, so its scrape and its Stats agree exactly, and a second
// manager in the process counts none of it.
func TestStatsReadTheSeries(t *testing.T) {
	m, other := New(Config{Workers: 1}), New(Config{Workers: 1})
	defer m.Shutdown(context.Background())
	defer other.Shutdown(context.Background())
	ok, err := m.Submit("ok", func(ctx context.Context) (any, error) { return "done", nil })
	if err != nil {
		t.Fatal(err)
	}
	bad, err := m.Submit("bad", func(ctx context.Context) (any, error) { return nil, errors.New("boom") })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, ok.ID, StateSucceeded)
	waitState(t, m, bad.ID, StateFailed)
	st := m.Stats()
	if st.Submitted != 2 || st.Succeeded != 1 || st.Failed != 1 || st.Canceled != 0 {
		t.Fatalf("stats = %+v, want 2 submitted, 1 succeeded, 1 failed", st)
	}
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pland_jobs_submitted_total 2",
		`pland_jobs_finished_total{state="succeeded"} 1`,
		`pland_jobs_finished_total{state="failed"} 1`,
		`pland_jobs_finished_total{state="canceled"} 0`,
		"pland_jobs_queue_depth 0",
		"pland_jobs_wait_seconds_count 2",
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("scrape lacks %q:\n%s", want, b.String())
		}
	}
	if st := other.Stats(); st.Submitted != 0 || st.Succeeded != 0 || st.Failed != 0 {
		t.Errorf("an idle manager counted another's jobs: %+v", st)
	}
}

func TestTTLEviction(t *testing.T) {
	m := New(Config{Workers: 1, ResultTTL: 40 * time.Millisecond})
	defer m.Shutdown(context.Background())
	snap, err := m.Submit("ephemeral", func(ctx context.Context) (any, error) { return "x", nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateSucceeded)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := m.Get(snap.ID); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := m.Stats(); st.Retained != 0 {
		t.Errorf("retained = %d after expiry, want 0", st.Retained)
	}
}

func TestShutdownFailsInFlightWithReason(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{})
	// The running job ignores cancellation long enough to outlive the drain
	// deadline; the queued job never starts. Both must be failed with the
	// shutdown reason, not dropped.
	release := make(chan struct{})
	running, err := m.Submit("stubborn", func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return "late", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit("never-starts", func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown err = %v, want deadline exceeded (stubborn job outlives drain)", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("job %s dropped by shutdown: %v", id, err)
		}
		if snap.State != StateFailed || !errors.Is(snap.Err, ErrShutdown) {
			t.Errorf("job %s after shutdown = %s (err %v), want failed with ErrShutdown", id, snap.State, snap.Err)
		}
	}
	if _, err := m.Submit("late", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after shutdown err = %v, want ErrShutdown", err)
	}
	close(release)
}

// TestConcurrentHammer exercises submits, polls, and cancels from many
// goroutines at once; run with -race.
func TestConcurrentHammer(t *testing.T) {
	m := New(Config{Workers: 4, QueueDepth: 1024, ResultTTL: time.Minute})
	defer m.Shutdown(context.Background())
	const (
		submitters = 8
		perWorker  = 40
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				kind := fmt.Sprintf("hammer-%d-%d", g, i)
				snap, err := m.Submit(kind, func(ctx context.Context) (any, error) {
					select {
					case <-time.After(time.Duration(i%3) * time.Millisecond):
						return kind, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%4 == 0 {
					m.Cancel(snap.ID)
				}
				m.Get(snap.ID)
				m.Stats()
			}
		}(g)
	}
	wg.Wait()
	// Every submitted job must reach a terminal state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.Stats()
		if st.Succeeded+st.Failed+st.Canceled == st.Submitted {
			if st.Failed != 0 {
				t.Errorf("hammer produced %d failed jobs", st.Failed)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never drained: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
