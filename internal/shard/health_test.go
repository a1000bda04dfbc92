package shard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// flippableProbe fails for peers in its down set.
type flippableProbe struct {
	mu   sync.Mutex
	down map[string]bool
}

func (p *flippableProbe) probe(_ context.Context, peer string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down[peer] {
		return errors.New("refused")
	}
	return nil
}

func (p *flippableProbe) set(peer string, down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down[peer] = down
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHealthProbeTransitions(t *testing.T) {
	p := &flippableProbe{down: map[string]bool{}}
	h := NewHealth(HealthConfig{
		Self:      "self",
		Peers:     []string{"self", "a", "b"},
		Probe:     p.probe,
		Interval:  10 * time.Millisecond,
		FailAfter: 2,
	})
	h.Start()
	defer h.Stop()

	// Everyone starts alive; self is always alive and never probed.
	for _, n := range []string{"self", "a", "b"} {
		if !h.Alive(n) {
			t.Fatalf("%s not alive at start", n)
		}
	}
	if snap := h.Snapshot(); len(snap) != 2 {
		t.Fatalf("snapshot has %d peers, want 2 (self excluded): %v", len(snap), snap)
	}

	// One failure is not enough (FailAfter=2); sustained failure flips it.
	p.set("a", true)
	waitFor(t, "a marked down", func() bool { return !h.Alive("a") })
	if !h.Alive("b") {
		t.Fatal("b went down though only a failed")
	}

	// One success flips it right back.
	p.set("a", false)
	waitFor(t, "a marked up", func() bool { return h.Alive("a") })
}

func TestHealthMarkDownIsImmediate(t *testing.T) {
	p := &flippableProbe{down: map[string]bool{"a": true}}
	h := NewHealth(HealthConfig{
		Self:     "self",
		Peers:    []string{"a"},
		Probe:    p.probe,
		Interval: time.Hour, // probes effectively never fire
	})
	h.Start()
	defer h.Stop()
	if !h.Alive("a") {
		t.Fatal("a not alive before MarkDown")
	}
	h.MarkDown("a")
	if h.Alive("a") {
		t.Fatal("MarkDown did not take effect immediately")
	}
	// Unknown nodes (and self) always read alive.
	if !h.Alive("self") || !h.Alive("never-heard-of-it") {
		t.Fatal("self or unknown node reported dead")
	}
}
