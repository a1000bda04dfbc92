package stream

import (
	"testing"

	"repro/internal/core"
)

// TestMigrationCost pins the rebuild's greedy max-byte-overlap matching: only
// the bytes of a new reducer not already on its matched old reducer move.
func TestMigrationCost(t *testing.T) {
	sizes := []core.Size{4, 6, 3, 7}
	size := func(id InputID) core.Size { return sizes[id] }
	placement := func(groups ...[]InputID) []*red {
		reds := make([]*red, len(groups))
		for i, g := range groups {
			reds[i] = &red{members: g}
			for _, id := range g {
				reds[i].load += sizes[id]
			}
		}
		return reds
	}
	same := placement([]InputID{0, 1}, []InputID{2, 3})
	if got := migrationCost(same, same, size); got != 0 {
		t.Fatalf("identical placements migrate %d bytes, want 0", got)
	}
	swapped := placement([]InputID{0, 2}, []InputID{1, 3})
	// Matching pairs {0,1}->{0,2} and {2,3}->{1,3} leaves inputs 2 and 1 (or
	// 6 and 3 bytes) to move depending on the greedy order; either way the
	// cost is the bytes not already in place.
	if got := migrationCost(same, swapped, size); got <= 0 || got > 13 {
		t.Fatalf("swap migration = %d, want in (0, 13]", got)
	}
	disjointOld := placement([]InputID{0, 1})
	disjointNew := placement([]InputID{2, 3})
	if got := migrationCost(disjointOld, disjointNew, size); got != 10 {
		t.Fatalf("disjoint migration = %d, want full new load 10", got)
	}
}
