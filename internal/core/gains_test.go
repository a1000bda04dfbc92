package core

import (
	"math/rand"
	"testing"
)

// TestGainsMatchPlainCounters holds the bit-sliced counters to one int per
// index: after every Bump, Best over a random candidate set names the lowest
// candidate with the highest count, and that count. One Gains is Reset to
// ever new sizes, so reused planes are covered too.
func TestGainsMatchPlainCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var g Gains
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		maxGain := 1 + rng.Intn(40)
		g.Reset(n, maxGain)
		plain := make([]int, n)
		row, cand := NewCoverSet(n), NewCoverSet(n)
		for step := 0; step <= maxGain; step++ {
			if step > 0 {
				row.Clear()
				for i := range n {
					if rng.Intn(3) == 0 {
						row.Add(i)
					}
				}
				g.Bump(row)
				for i := range n {
					if !row.Contains(i) {
						plain[i]++
					}
				}
			}
			cand.Clear()
			for i := range n {
				if rng.Intn(2) == 0 {
					cand.Add(i)
				}
			}
			wantI, wantGain := -1, 0
			for i := range n {
				if cand.Contains(i) && (wantI == -1 || plain[i] > wantGain) {
					wantI, wantGain = i, plain[i]
				}
			}
			if i, gain := g.Best(cand); i != wantI || gain != wantGain {
				t.Fatalf("n=%d step %d: Best = (%d, %d), want (%d, %d)", n, step, i, gain, wantI, wantGain)
			}
		}
		g.Clear()
		cand.Fill()
		if i, gain := g.Best(cand); i != 0 || gain != 0 {
			t.Fatalf("n=%d after Clear: Best = (%d, %d), want (0, 0)", n, i, gain)
		}
	}
}
