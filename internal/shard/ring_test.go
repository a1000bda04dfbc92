package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func mustRing(t testing.TB, nodes []string) *Ring {
	t.Helper()
	r, err := New(nodes)
	if err != nil {
		t.Fatalf("New(%v): %v", nodes, err)
	}
	return r
}

// owner is the key's owner with every node alive.
func owner(r *Ring, key string) string {
	n, _ := r.Owner(key, nil)
	return n
}

func fleet(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return nodes
}

func TestRingRejectsBadInput(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) succeeded")
	}
	if _, err := New([]string{"a", ""}); err == nil {
		t.Fatal("New with empty node name succeeded")
	}
}

// TestRingDeterminism: the ring is a pure function of the node set — order
// must not matter, and two independently built rings must agree on every key.
// This is the property the fleet's coordination-free routing rests on.
func TestRingDeterminism(t *testing.T) {
	nodes := fleet(5)
	shuffled := append([]string(nil), nodes...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a := mustRing(t, nodes)
	b := mustRing(t, shuffled)
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("s-%016x", i)
		if owner(a, key) != owner(b, key) {
			t.Fatalf("key %q: order-dependent owner (%s vs %s)", key, owner(a, key), owner(b, key))
		}
	}
}

// TestRingRemovalMovesOnlyOwnedKeys is the bounded-rebalance property: when
// one of N nodes leaves, (a) every key that moves was owned by the removed
// node — untouched nodes keep every key they had — and (b) the removed node
// owned roughly 1/N of the keys, so at most ~1/N of the keyspace moves.
func TestRingRemovalMovesOnlyOwnedKeys(t *testing.T) {
	const keys = 20_000
	for _, n := range []int{2, 3, 5, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			nodes := fleet(n)
			before := mustRing(t, nodes)
			removed := nodes[n/2]
			after := mustRing(t, append(nodes[:n/2:n/2], nodes[n/2+1:]...))
			owned, moved := 0, 0
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key-%d-%d", n, i)
				was, is := owner(before, key), owner(after, key)
				if was == removed {
					owned++
					// The orphaned key must land on its ring successor: the
					// node the old ring reports next after the removed one.
					succ, ok := before.Successor(key, removed, nil)
					if !ok || is != succ {
						t.Fatalf("key %q: landed on %s, ring successor is %s (ok=%v)", key, is, succ, ok)
					}
					moved++
					continue
				}
				if was != is {
					t.Fatalf("key %q moved %s -> %s though %s was not removed", key, was, is, was)
				}
			}
			if moved != owned {
				t.Fatalf("moved %d keys, removed node owned %d", moved, owned)
			}
			// The removed node's share should be near 1/N. Virtual nodes keep
			// the variance modest; a factor-2 band is far tighter than the
			// "all keys rehash" failure mode this test exists to rule out.
			share := float64(owned) / keys
			if ideal := 1.0 / float64(n); share > 2*ideal || share < ideal/2 {
				t.Fatalf("removed node owned %.1f%% of keys, ideal %.1f%%", share*100, ideal*100)
			}
		})
	}
}

// TestRingBalance: with DefaultReplicas virtual nodes no member's share may
// stray wildly from 1/N.
func TestRingBalance(t *testing.T) {
	const keys = 30_000
	nodes := fleet(6)
	r := mustRing(t, nodes)
	counts := make(map[string]int, len(nodes))
	for i := 0; i < keys; i++ {
		counts[owner(r, fmt.Sprintf("bal-%d", i))]++
	}
	ideal := float64(keys) / float64(len(nodes))
	for _, n := range nodes {
		if c := float64(counts[n]); c < ideal/2 || c > 2*ideal {
			t.Fatalf("node %s owns %d keys, ideal %.0f", n, counts[n], ideal)
		}
	}
}

// TestRingOwnerSkipsDead: Owner must walk past dead nodes and land on the
// same node Successor picks for a drain handoff — the agreement failover
// correctness rests on.
func TestRingOwnerSkipsDead(t *testing.T) {
	nodes := fleet(4)
	r := mustRing(t, nodes)
	dead := map[string]bool{}
	alive := func(n string) bool { return !dead[n] }
	for i := 0; i < 5_000; i++ {
		key := fmt.Sprintf("o-%d", i)
		primary := owner(r, key)
		if got, ok := r.Owner(key, alive); !ok || got != primary {
			t.Fatalf("key %q: healthy Owner = %s/%v, want %s", key, got, ok, primary)
		}
		dead[primary] = true
		failover, ok := r.Owner(key, alive)
		if !ok || failover == primary {
			t.Fatalf("key %q: Owner with %s dead = %s/%v", key, primary, failover, ok)
		}
		if succ, ok := r.Successor(key, primary, nil); !ok || succ != failover {
			t.Fatalf("key %q: Successor=%s/%v, failover Owner=%s — drain and failover disagree", key, succ, ok, failover)
		}
		delete(dead, primary)
	}
	// All dead: no owner.
	for _, n := range nodes {
		dead[n] = true
	}
	if _, ok := r.Owner("anything", alive); ok {
		t.Fatal("Owner found a node on an all-dead ring")
	}
}

// referenceLookup recomputes a key's owner from first principles over an
// independently built point list, binary-search-free.
func referenceLookup(nodes []string, replicas int, key string) string {
	type pt struct {
		h uint64
		n string
	}
	var pts []pt
	for _, n := range nodes {
		for i := 0; i < replicas; i++ {
			pts = append(pts, pt{pointHash(n, i), n})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].n < pts[j].n
	})
	h := Hash(key)
	best := pts[0] // wrap default
	for _, p := range pts {
		if p.h >= h {
			best = p
			break
		}
	}
	return best.n
}

// FuzzRingLookup cross-checks the ring's binary-search owner against the
// linear reference on arbitrary keys and fleet sizes.
func FuzzRingLookup(f *testing.F) {
	f.Add("s-00deadbeef", uint8(3))
	f.Add("", uint8(1))
	f.Add("plan:a2a:q=10", uint8(9))
	f.Fuzz(func(t *testing.T, key string, n uint8) {
		size := int(n)%12 + 1
		nodes := fleet(size)
		got := owner(mustRing(t, nodes), key)
		if want := referenceLookup(nodes, DefaultReplicas, key); got != want {
			t.Fatalf("Owner(%q) over %d nodes = %s, reference says %s", key, size, got, want)
		}
	})
}

func BenchmarkRingLookup(b *testing.B) {
	r := mustRing(b, fleet(16))
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("s-%016x", i*2654435761)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = r.Owner(keys[i%len(keys)], nil)
	}
}
