package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitTerminal polls Get until the job reports a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if snap.State.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (state %s)", id, snap.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsSweepsExpired is the regression test for the Stats/Get
// disagreement: Stats used to count expired-but-unswept finished jobs in
// Retained while Get already reported ErrNotFound for them. Stats must sweep
// under the same lock so the census and the API agree.
func TestStatsSweepsExpired(t *testing.T) {
	// A 1h TTL keeps real expiry out of the window; the test forces it by
	// hand so only Stats itself can sweep.
	m := New(Config{Workers: 1, QueueDepth: 4, ResultTTL: time.Hour})
	defer m.Shutdown(context.Background())

	snap, err := m.Submit("t", func(context.Context) (any, error) { return 1, nil })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, m, snap.ID)

	m.mu.Lock()
	m.jobs[snap.ID].expiresAt = time.Now().Add(-time.Second)
	m.mu.Unlock()

	if st := m.Stats(); st.Retained != 0 {
		t.Fatalf("Stats().Retained = %d for an expired job Get would refuse, want 0", st.Retained)
	}
	if _, err := m.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after expiry = %v, want ErrNotFound", err)
	}
}

// TestSubmitSweepsExpired checks an expired finished job leaves the table on
// the next Submit, with no Get or Stats call and no background sweeper: the
// table only grows through Submit and Restore, so their sweep bounds it.
func TestSubmitSweepsExpired(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4, ResultTTL: time.Hour})
	defer m.Shutdown(context.Background())

	var expired []string
	for i := 0; i < 2; i++ {
		snap, err := m.Submit("t", func(context.Context) (any, error) { return i, nil })
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitTerminal(t, m, snap.ID)
		expired = append(expired, snap.ID)
	}
	m.mu.Lock()
	for _, id := range expired {
		m.jobs[id].expiresAt = time.Now().Add(-time.Second)
	}
	m.mu.Unlock()

	// The third job cannot finish before the checks, so every job still
	// queued as finished would be one of the expired two.
	release := make(chan struct{})
	defer close(release)
	if _, err := m.Submit("t", func(context.Context) (any, error) { <-release; return 2, nil }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range expired {
		if _, kept := m.jobs[id]; kept {
			t.Errorf("expired job %s is still in the table after the next Submit", id)
		}
	}
	if len(m.finished) != 0 {
		t.Errorf("%d expired jobs still queued after the next Submit", len(m.finished))
	}
}

// settledGoroutines waits until the goroutine count holds still for a few
// reads (goroutines earlier tests ended may still be exiting) and returns it.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for still < 5 {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestManagerGoroutines checks New starts exactly one goroutine per worker
// and nothing else, and that Shutdown leaves none behind.
func TestManagerGoroutines(t *testing.T) {
	const workers = 3
	base := settledGoroutines()
	m := New(Config{Workers: workers, ResultTTL: time.Hour})
	if got := runtime.NumGoroutine() - base; got != workers {
		t.Errorf("New(Workers: %d) started %d goroutines", workers, got)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got != base {
		t.Errorf("%d goroutines after Shutdown, %d before New", got, base)
	}
}

// TestOnFinishHook pins the OnFinish contract: it fires exactly once per
// finished job, with the terminal snapshot, including jobs the shutdown
// drain fails (those carry ErrShutdown so WAL owners can skip them).
func TestOnFinishHook(t *testing.T) {
	var mu sync.Mutex
	finished := make(map[string]Snapshot)
	m := New(Config{Workers: 1, QueueDepth: 4, ResultTTL: time.Hour,
		OnFinish: func(s Snapshot) {
			mu.Lock()
			finished[s.ID] = s
			mu.Unlock()
		}})

	snap, err := m.Submit("ok", func(context.Context) (any, error) { return "done", nil })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, m, snap.ID)
	mu.Lock()
	got, ok := finished[snap.ID]
	mu.Unlock()
	if !ok || got.State != StateSucceeded {
		t.Fatalf("OnFinish for succeeded job: got %+v, fired=%v", got, ok)
	}

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestOnEnqueueHookPrecedesTheRun pins the OnEnqueue contract: it fires
// once per enqueued job, with its queued snapshot and payload, and before the
// job can run, so before OnFinish.
func TestOnEnqueueHookPrecedesTheRun(t *testing.T) {
	var mu sync.Mutex
	var events []string
	record := func(event string, s Snapshot) {
		mu.Lock()
		events = append(events, fmt.Sprintf("%s %s %s %s", event, s.ID, s.State, s.Payload))
		mu.Unlock()
	}
	m := New(Config{Workers: 2, QueueDepth: 4, ResultTTL: time.Hour,
		OnEnqueue: func(s Snapshot) { record("enqueue", s) },
		OnFinish:  func(s Snapshot) { record("finish", s) }})
	defer m.Shutdown(context.Background())

	for _, id := range []string{"a", "b"} {
		if _, err := m.Restore(id, "plan", func(context.Context) (any, error) { return nil, nil }, []byte(id)); err != nil {
			t.Fatalf("Restore(%s): %v", id, err)
		}
		waitTerminal(t, m, id)
	}
	want := []string{"enqueue a queued a", "finish a succeeded a", "enqueue b queued b", "finish b succeeded b"}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("hook events %q, want %q", events, want)
	}
}

// TestRestore re-enqueues a job under a caller-chosen ID, as boot-time WAL
// recovery does, and refuses duplicates.
func TestRestore(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4, ResultTTL: time.Hour})
	defer m.Shutdown(context.Background())

	snap, err := m.Restore("job-recovered-1", "plan", func(context.Context) (any, error) { return 7, nil }, nil)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if snap.ID != "job-recovered-1" || snap.Kind != "plan" {
		t.Fatalf("restored snapshot = %+v", snap)
	}
	fin := waitTerminal(t, m, "job-recovered-1")
	if fin.State != StateSucceeded || fin.Result != 7 {
		t.Fatalf("restored job finished as %+v", fin)
	}

	if _, err := m.Restore("job-recovered-1", "plan", func(context.Context) (any, error) { return nil, nil }, nil); err == nil {
		t.Fatal("duplicate Restore succeeded, want error")
	}
	if _, err := m.Restore("", "plan", func(context.Context) (any, error) { return nil, nil }, nil); err == nil {
		t.Fatal("empty-ID Restore succeeded, want error")
	}
	if _, err := m.Restore("job-x", "plan", nil, nil); err == nil {
		t.Fatal("nil-fn Restore succeeded, want error")
	}
}

// TestPayloadLastsUntilOnFinish: a job's journal payload is on every
// snapshot while it is queued or running and on the one OnFinish sees, and
// on none after that.
func TestPayloadLastsUntilOnFinish(t *testing.T) {
	seen := make(chan Snapshot, 1)
	m := New(Config{Workers: 1, QueueDepth: 4, ResultTTL: time.Hour,
		OnFinish: func(s Snapshot) { seen <- s }})
	defer m.Shutdown(context.Background())

	release := make(chan struct{})
	snap, err := m.Restore("j", "plan", func(context.Context) (any, error) {
		<-release
		return nil, nil
	}, []byte(`{"type":"plan"}`))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if string(snap.Payload) != `{"type":"plan"}` {
		t.Fatalf("queued snapshot payload %q", snap.Payload)
	}
	if run := waitState(t, m, "j", StateRunning); run.Payload == nil {
		t.Fatal("running job's snapshot lost its payload")
	}
	close(release)
	if fin := <-seen; fin.Payload == nil {
		t.Fatal("OnFinish saw no payload")
	}
	if fin := waitTerminal(t, m, "j"); fin.Payload != nil {
		t.Fatalf("finished job's snapshot carries payload %q", fin.Payload)
	}
}

// TestUnfinishedListsLiveJobsInCreationOrder: Unfinished reports the running
// and the queued jobs, oldest first, and drops a job once it finished.
func TestUnfinishedListsLiveJobsInCreationOrder(t *testing.T) {
	m := New(Config{Workers: 2, QueueDepth: 16, ResultTTL: time.Hour})
	defer m.Shutdown(context.Background())

	release := make(chan struct{})
	block := func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	done, err := m.Submit("quick", func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, m, done.ID)
	var want []string
	for i := range 6 {
		snap, err := m.Restore(fmt.Sprintf("j%d", 5-i), "plan", block, nil)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		want = append(want, snap.ID)
	}
	waitState(t, m, want[0], StateRunning)
	waitState(t, m, want[1], StateRunning)

	var got []string
	for _, s := range m.Unfinished() {
		got = append(got, s.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Unfinished() = %v, want %v (creation order)", got, want)
	}
	close(release)
	for _, id := range want {
		waitTerminal(t, m, id)
	}
	if live := m.Unfinished(); len(live) != 0 {
		t.Fatalf("Unfinished() = %v after every job finished", live)
	}
}
