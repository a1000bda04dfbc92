package stream_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stream"
	"repro/internal/workload"
)

// errOnce records the first failure seen by any goroutine.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// auditSnap machine-checks a snapshot's invariants, recording any violation.
func auditSnap(snap *stream.Snapshot, fail *errOnce) {
	if len(snap.IDs) == 0 {
		return
	}
	set, err := core.NewInputSet(snap.Sizes)
	if err != nil {
		fail.set(err)
		return
	}
	if err := snap.Schema.ValidateA2A(set); err != nil {
		fail.set(err)
		return
	}
	aud, err := exec.NewAuditor(snap.Schema, len(snap.IDs))
	if err != nil {
		fail.set(err)
		return
	}
	if err := aud.PreCheck(); err != nil {
		fail.set(err)
	}
}

// TestConcurrentHammer drives a shared session from several goroutines with
// mixed Add/Remove/Resize while a dedicated goroutine keeps forcing full
// rebuilds, and audits the invariants (exec.Auditor PreCheck plus core
// validation) after every successful swap and at the end. Run with -race.
func TestConcurrentHammer(t *testing.T) {
	s := newSession(t, stream.Config{
		Capacity:         64,
		RebuildThreshold: 0.05, // rebuild eagerly so swaps actually race deltas
		Initial:          []core.Size{8, 8, 8, 8, 8, 8, 8, 8},
	})

	const (
		workers      = 4
		opsPerWorker = 150
	)
	var fail errOnce

	stopRebuilds := make(chan struct{})
	var rebuilds sync.WaitGroup
	rebuilds.Add(1)
	go func() {
		defer rebuilds.Done()
		for {
			select {
			case <-stopRebuilds:
				return
			default:
			}
			_, err := s.Rebuild(context.Background())
			switch {
			case err == nil:
				// Audit the invariants after every swap, on a consistent
				// snapshot taken while deltas keep flowing.
				auditSnap(s.Snapshot(), &fail)
			case errors.Is(err, stream.ErrRebuildInFlight) || errors.Is(err, stream.ErrClosed):
			default:
				fail.set(err)
				return
			}
		}
	}()

	var workersWG sync.WaitGroup
	for g := 0; g < workers; g++ {
		workersWG.Add(1)
		go func(g int) {
			defer workersWG.Done()
			// Each goroutine churns the inputs it added itself, so Remove and
			// Resize always address live IDs without cross-goroutine
			// coordination.
			var mine []int
			for i := 0; i < opsPerWorker; i++ {
				switch {
				case len(mine) < 4 || i%3 == 0:
					w := core.Size(1 + (g*7+i*5)%16)
					id, _, err := s.Add(w)
					if err != nil {
						fail.set(err)
						return
					}
					mine = append(mine, id)
				case i%3 == 1:
					id := mine[0]
					mine = mine[1:]
					if _, err := s.Remove(id); err != nil {
						fail.set(err)
						return
					}
				default:
					id := mine[len(mine)-1]
					w := core.Size(1 + (g*3+i*11)%16)
					if _, err := s.Resize(id, w); err != nil {
						fail.set(err)
						return
					}
				}
			}
		}(g)
	}
	workersWG.Wait()
	close(stopRebuilds)
	rebuilds.Wait()

	if err := fail.get(); err != nil {
		t.Fatalf("hammer: %v", err)
	}
	audit(t, s)
	st := s.Stats()
	if st.Rebuilds == 0 {
		t.Fatalf("hammer never completed a rebuild: %+v", st)
	}
	if st.Adds == 0 || st.Removes == 0 || st.Resizes == 0 {
		t.Fatalf("hammer missed a delta kind: %+v", st)
	}
}

// TestSnapshotFingerprintMatchesItsVersion checks that a snapshot's
// fingerprint describes the state its schema came from: one goroutine applies
// deltas and rebuilds and records every version's fingerprint, while another
// takes snapshots, each of which must carry the fingerprint recorded for its
// Stats.Version.
func TestSnapshotFingerprintMatchesItsVersion(t *testing.T) {
	initial := []core.Size{5, 3, 7, 2, 6, 4, 1, 8}
	s := newSession(t, stream.Config{Capacity: 64, Initial: initial, RebuildThreshold: 0.5})
	events, err := workload.Churn(workload.ChurnSpec{
		Initial: len(initial), Steps: 2000,
		AddWeight: 3, RemoveWeight: 3, ResizeWeight: 2,
		Sizes: workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 8},
	}, 3)
	if err != nil {
		t.Fatalf("churn: %v", err)
	}
	want := map[uint64]uint64{}
	record := func() {
		st := s.State()
		want[st.Version] = st.Fingerprint()
	}
	record()

	started, done := make(chan struct{}), make(chan struct{})
	var got []*stream.Snapshot
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if got = append(got, s.Snapshot()); len(got) == 1 {
				close(started)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	<-started
	rebuilds := 0
	for step, ev := range events {
		if err = applyChurn(s, ev); err != nil {
			err = fmt.Errorf("step %d (%s %d): %w", step, ev.Op, ev.ID, err)
			break
		}
		record()
		if s.NeedsRebuild() {
			if _, err = s.Rebuild(context.Background()); err != nil {
				break
			}
			rebuilds++
			record()
		}
	}
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range got {
		fp, ok := want[snap.Stats.Version]
		if !ok {
			t.Fatalf("snapshot at version %d: no state of that version was recorded", snap.Stats.Version)
		}
		if snap.Fingerprint != fp {
			t.Fatalf("snapshot at version %d carries fingerprint %016x, the state of that version has %016x",
				snap.Stats.Version, snap.Fingerprint, fp)
		}
	}
	if rebuilds == 0 {
		t.Fatal("no rebuild ran: the test exercised no swap")
	}
}
