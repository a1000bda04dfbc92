package core

import (
	"math/rand"
	"sort"
	"testing"
)

// members lists the set ascending.
func members(s *CoverSet) []int {
	return s.AppendTo(nil)
}

func TestCoverSetBasics(t *testing.T) {
	s := NewCoverSet(130)
	if s.Len() != 130 || s.Count() != 0 {
		t.Fatalf("fresh set: len=%d count=%d", s.Len(), s.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		s.Add(i)
	}
	s.Add(-1)  // ignored
	s.Add(130) // ignored
	want := []int{0, 1, 63, 64, 65, 127, 129}
	if got := members(s); !equalInts(got, want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	if s.Count() != len(want) {
		t.Fatalf("count = %d, want %d", s.Count(), len(want))
	}
	for _, i := range want {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false", i)
		}
	}
	if s.Contains(-1) || s.Contains(2) || s.Contains(130) {
		t.Error("Contains accepted a non-member")
	}
	s.Remove(64)
	s.Remove(-5) // ignored
	if s.Contains(64) || s.Count() != len(want)-1 {
		t.Errorf("after Remove(64): contains=%v count=%d", s.Contains(64), s.Count())
	}
	s.Clear()
	if s.Count() != 0 {
		t.Errorf("after Clear: count = %d", s.Count())
	}
}

func TestCoverSetSetOps(t *testing.T) {
	a := NewCoverSet(200)
	b := NewCoverSet(200)
	a.AddAll([]int{1, 5, 64, 100, 199})
	b.AddAll([]int{5, 64, 70, 199})

	if !a.Intersects(b) {
		t.Error("Intersects = false for overlapping sets")
	}
	if got := a.IntersectMin(b); got != 5 {
		t.Errorf("IntersectMin = %d, want 5", got)
	}
	if got := a.CountAndNot(b); got != 2 {
		t.Errorf("CountAndNot = %d, want 2", got)
	}
	c := NewCoverSet(200)
	c.AddAll([]int{0, 2})
	if a.Intersects(c) {
		t.Error("Intersects = true for disjoint sets")
	}
	if got := a.IntersectMin(c); got != -1 {
		t.Errorf("IntersectMin disjoint = %d, want -1", got)
	}
}

// TestCoverSetIntersectsBelowMatchesIntersectMin pins IntersectsBelow to its
// definition: the sets share a member below limit exactly when their
// smallest common member is below limit.
func TestCoverSetIntersectsBelowMatchesIntersectMin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a, b := NewCoverSet(n), NewCoverSet(1+rng.Intn(300))
		for k := 0; k < 4; k++ {
			a.Add(rng.Intn(n))
			b.Add(rng.Intn(b.Len()))
		}
		min := a.IntersectMin(b)
		for _, limit := range []int{-1, 0, 1, 63, 64, 65, n - 1, n, n + 70} {
			want := min >= 0 && min < limit
			if got := a.IntersectsBelow(b, limit); got != want {
				t.Fatalf("trial %d: IntersectsBelow(limit=%d) = %v, IntersectMin = %d", trial, limit, got, min)
			}
		}
	}
}

func TestCoverSetGrowPreservesMembers(t *testing.T) {
	s := NewCoverSet(10)
	s.AddAll([]int{0, 3, 9})
	s.Grow(5) // no-op: smaller
	if s.Len() != 10 {
		t.Fatalf("Grow(5) shrank to %d", s.Len())
	}
	s.Grow(300)
	if s.Len() != 300 {
		t.Fatalf("Grow(300): len = %d", s.Len())
	}
	if got := members(s); !equalInts(got, []int{0, 3, 9}) {
		t.Fatalf("Grow lost members: %v", got)
	}
	s.Add(299)
	if !s.Contains(299) {
		t.Error("Add(299) after Grow failed")
	}
}

func TestCoverSetGrowAfterShrinkingResetHasNoPhantomMembers(t *testing.T) {
	s := NewCoverSet(128)
	s.Add(100)
	s.Reset(64) // shrink: word holding bit 100 stays in capacity
	s.Grow(128) // must not re-expose it
	if s.Contains(100) {
		t.Fatal("stale bit 100 survived Reset(64) + Grow(128)")
	}
	if got := s.Count(); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
}

func TestCoverSetNextAbsent(t *testing.T) {
	s := NewCoverSet(140)
	for i := 0; i < 130; i++ {
		s.Add(i)
	}
	s.Remove(67)
	if got := s.NextAbsent(0); got != 67 {
		t.Errorf("NextAbsent(0) = %d, want 67", got)
	}
	if got := s.NextAbsent(68); got != 130 {
		t.Errorf("NextAbsent(68) = %d, want 130", got)
	}
	if got := s.NextAbsent(135); got != 135 {
		t.Errorf("NextAbsent(135) = %d, want 135", got)
	}
	if got := s.NextAbsent(1000); got != 140 {
		t.Errorf("NextAbsent(1000) = %d, want 140 (n)", got)
	}
	full := NewCoverSet(64)
	for i := 0; i < 64; i++ {
		full.Add(i)
	}
	if got := full.NextAbsent(0); got != 64 {
		t.Errorf("NextAbsent on full set = %d, want 64 (n)", got)
	}
}

func TestCoverSetPoolRoundTrip(t *testing.T) {
	s := GetCoverSet(100)
	if s.Len() != 100 || s.Count() != 0 {
		t.Fatalf("pooled set: len=%d count=%d", s.Len(), s.Count())
	}
	s.Add(42)
	PutCoverSet(s)
	// A second get may or may not return the same object, but it must always
	// come back cleared at the requested size.
	s2 := GetCoverSet(10)
	if s2.Len() != 10 || s2.Count() != 0 {
		t.Fatalf("re-pooled set: len=%d count=%d", s2.Len(), s2.Count())
	}
	PutCoverSet(s2)
	PutCoverSet(nil) // must not panic
}

// refSet is the sorted-slice reference the fuzzers compare against.
type refSet struct{ ids []int }

func (r *refSet) add(i int) {
	j := sort.SearchInts(r.ids, i)
	if j < len(r.ids) && r.ids[j] == i {
		return
	}
	r.ids = append(r.ids, 0)
	copy(r.ids[j+1:], r.ids[j:])
	r.ids[j] = i
}

func (r *refSet) remove(i int) {
	j := sort.SearchInts(r.ids, i)
	if j < len(r.ids) && r.ids[j] == i {
		r.ids = append(r.ids[:j], r.ids[j+1:]...)
	}
}

func (r *refSet) contains(i int) bool {
	j := sort.SearchInts(r.ids, i)
	return j < len(r.ids) && r.ids[j] == i
}

func refIntersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// TestCoverSetMatchesReferenceRandomized drives a CoverSet and the sorted-
// slice reference through the same random operations and requires identical
// observable state throughout. The seed-indexed loop keeps it deterministic.
func TestCoverSetMatchesReferenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4096)
		s := NewCoverSet(n)
		ref := &refSet{}
		for op := 0; op < 500; op++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Add(i)
				ref.add(i)
			case 1:
				s.Remove(i)
				ref.remove(i)
			case 2:
				if s.Contains(i) != ref.contains(i) {
					t.Fatalf("seed %d op %d: Contains(%d) = %v, ref %v", seed, op, i, s.Contains(i), ref.contains(i))
				}
			}
		}
		if s.Count() != len(ref.ids) {
			t.Fatalf("seed %d: Count = %d, ref %d", seed, s.Count(), len(ref.ids))
		}
		if got := members(s); !equalInts(got, ref.ids) {
			t.Fatalf("seed %d: members diverged\n got %v\n ref %v", seed, got, ref.ids)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCoverSetFillUnionAppendTo(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := NewCoverSet(n)
		s.Fill()
		if s.Count() != n || !s.Contains(n-1) || s.Contains(n) {
			t.Fatalf("n=%d: Fill gave %d members", n, s.Count())
		}
		got := s.AppendTo([]int{-1})
		if len(got) != n+1 || got[0] != -1 || got[1] != 0 || got[n] != n-1 {
			t.Fatalf("n=%d: AppendTo = %v", n, got)
		}
		a, b := NewCoverSet(n), NewCoverSet(n)
		a.AddAll([]int{0, n / 2})
		b.AddAll([]int{n / 2, n - 1})
		want := 0
		for _, i := range members(b) {
			if !a.Contains(i) {
				want++
			}
		}
		if added := a.Union(b); added != want {
			t.Fatalf("n=%d: Union added %d, want %d", n, added, want)
		}
		if !a.Contains(n-1) || !a.Contains(0) || !a.Contains(n/2) {
			t.Fatalf("n=%d: Union lost a member: %v", n, members(a))
		}
	}
}
