package stream

import (
	"testing"

	"repro/internal/core"
)

// TestMigrationCost pins the rebuild's greedy max-byte-overlap matching: new
// reducers, largest first, each take the unused old reducer sharing the most
// bytes (ties to the lower old slot), and only the bytes of a new reducer not
// already on its matched old reducer move.
func TestMigrationCost(t *testing.T) {
	sizes := []core.Size{4, 6, 3, 7}
	placement := func(groups ...[]InputID) []*red {
		reds := make([]*red, len(groups))
		for i, g := range groups {
			if g == nil {
				continue // a free slot
			}
			reds[i] = &red{members: g}
			for _, id := range g {
				reds[i].load += sizes[id]
			}
		}
		return reds
	}
	cost := func(before, after []*red) core.Size {
		old := make(map[InputID]oldInput)
		for id, w := range sizes {
			old[id] = oldInput{size: w}
		}
		for slot, r := range before {
			if r != nil {
				for _, m := range r.members {
					in := old[m]
					in.slots = append(in.slots, slot)
					old[m] = in
				}
			}
		}
		return migrationCost(before, old, after)
	}
	for _, tc := range []struct {
		name          string
		before, after []*red
		want          core.Size
	}{
		{"identical", placement([]InputID{0, 1}, []InputID{2, 3}), placement([]InputID{0, 1}, []InputID{2, 3}), 0},
		// New {1,3} (13 bytes) goes first and takes old {2,3}, moving input
		// 1's 6 bytes; new {0,2} then takes old {0,1}, moving input 2's 3.
		{"swapped", placement([]InputID{0, 1}, []InputID{2, 3}), placement([]InputID{0, 2}, []InputID{1, 3}), 9},
		{"disjoint", placement([]InputID{0, 1}), placement([]InputID{2, 3}), 10},
		// New {0,3} shares input 0's 4 bytes with both old reducers and takes
		// the lower slot. In the first case that leaves new {1} only the old
		// reducer without input 1, so its 6 bytes move too.
		{"tie to old slot 0", placement([]InputID{0, 1}, []InputID{0, 2}), placement([]InputID{0, 3}, []InputID{1}), 7 + 6},
		{"tie to old slot 0, swapped slots", placement([]InputID{0, 2}, []InputID{0, 1}), placement([]InputID{0, 3}, []InputID{1}), 7},
		// A free old slot is never matched: new {0,3} shares no byte with
		// the one old reducer and still takes it, so new {1} finds none left
		// and moves whole.
		{"free old slot", placement(nil, []InputID{1}), placement([]InputID{0, 3}, []InputID{1}), 11 + 6},
	} {
		if got := cost(tc.before, tc.after); got != tc.want {
			t.Errorf("%s: migration = %d, want %d", tc.name, got, tc.want)
		}
	}
}
