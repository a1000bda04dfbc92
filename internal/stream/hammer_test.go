package stream_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stream"
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
