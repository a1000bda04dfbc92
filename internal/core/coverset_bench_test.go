package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// benchSets builds two random k-member sets over 0..n-1, both as CoverSets
// and as the sorted slices the pre-bitset hot paths walked.
func benchSets(n, k int, seed int64) (a, b *CoverSet, as, bs []int) {
	rng := rand.New(rand.NewSource(seed))
	draw := func() ([]int, *CoverSet) {
		seen := map[int]bool{}
		ids := make([]int, 0, k)
		for len(ids) < k {
			i := rng.Intn(n)
			if !seen[i] {
				seen[i] = true
				ids = append(ids, i)
			}
		}
		sort.Ints(ids)
		s := NewCoverSet(n)
		s.AddAll(ids)
		return ids, s
	}
	as, a = draw()
	bs, b = draw()
	return a, b, as, bs
}

// sliceIntersectMin is the merge-walk owner election the bitset replaced,
// kept here so the benchmark pair documents the before/after shape.
func sliceIntersectMin(a, b []int) int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i]
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return -1
}

func BenchmarkCoverSetIntersectMin(b *testing.B) {
	for _, shape := range []struct{ n, k int }{{64, 4}, {1024, 16}, {4096, 64}} {
		x, y, xs, ys := benchSets(shape.n, shape.k, 7)
		b.Run(fmt.Sprintf("bitset/n=%d/k=%d", shape.n, shape.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = x.IntersectMin(y)
			}
		})
		b.Run(fmt.Sprintf("slices/n=%d/k=%d", shape.n, shape.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = sliceIntersectMin(xs, ys)
			}
		})
	}
}

func BenchmarkCoverSetCount(b *testing.B) {
	s := NewCoverSet(4096)
	for i := 0; i < 4096; i += 3 {
		s.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkCoverSetAndNotCount(b *testing.B) {
	x, y, _, _ := benchSets(4096, 512, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.CountAndNot(y)
	}
}

func BenchmarkCoverSetScratchPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := GetCoverSet(1024)
		s.Add(i & 1023)
		PutCoverSet(s)
	}
}
