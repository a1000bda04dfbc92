package core

import (
	"math/rand"
	"testing"
)

// FuzzCoverSetAgainstReference decodes the fuzz input into two member sets
// over a universe of up to 4096 and checks every CoverSet query against the
// sorted-slice reference implementation: Contains, Intersects (and the
// witness from IntersectMin), Count and CountAndNot must all agree bit for
// bit.
func FuzzCoverSetAgainstReference(f *testing.F) {
	f.Add(int64(1), 64, uint8(10), uint8(10))
	f.Add(int64(2), 4096, uint8(200), uint8(0))
	f.Add(int64(3), 1, uint8(1), uint8(1))
	f.Add(int64(42), 1000, uint8(255), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n int, ka, kb uint8) {
		if n <= 0 || n > 4096 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		draw := func(k uint8) ([]int, *refSet) {
			ref := &refSet{}
			for i := 0; i < int(k); i++ {
				ref.add(rng.Intn(n))
			}
			return ref.ids, ref
		}
		aIDs, aRef := draw(ka)
		bIDs, bRef := draw(kb)

		a := NewCoverSet(n)
		a.AddAll(aIDs)
		b := NewCoverSet(n)
		b.AddAll(bIDs)

		if a.Count() != len(aIDs) || b.Count() != len(bIDs) {
			t.Fatalf("Count: a=%d want %d, b=%d want %d", a.Count(), len(aIDs), b.Count(), len(bIDs))
		}
		for probe := 0; probe < 64; probe++ {
			i := rng.Intn(n)
			if a.Contains(i) != aRef.contains(i) {
				t.Fatalf("Contains(%d) = %v, ref %v", i, a.Contains(i), aRef.contains(i))
			}
		}

		wantAnd := refIntersect(aIDs, bIDs)
		if got := a.Intersects(b); got != (len(wantAnd) > 0) {
			t.Fatalf("Intersects = %v, ref intersection %v", got, wantAnd)
		}
		wantMin := -1
		if len(wantAnd) > 0 {
			wantMin = wantAnd[0]
		}
		if got := a.IntersectMin(b); got != wantMin {
			t.Fatalf("IntersectMin = %d, want %d", got, wantMin)
		}
		if got := a.CountAndNot(b); got != len(aIDs)-len(wantAnd) {
			t.Fatalf("CountAndNot = %d, want %d", got, len(aIDs)-len(wantAnd))
		}

		_ = bRef
	})
}
