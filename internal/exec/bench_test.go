package exec

import (
	"fmt"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/workload"
)

// auditorFixture builds an m-input A2A schema, its auditor, and a correct
// trace in the sharded form compiled runs produce: every required pair
// logged once, at its owner, in the order that reducer processes its pairs.
func auditorFixture(b *testing.B, m int) (*core.MappingSchema, *Auditor, *trace) {
	b.Helper()
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 64}, m, 42)
	if err != nil {
		b.Fatal(err)
	}
	set := core.MustNewInputSet(sizes)
	ms, err := a2a.Solve(set, 1024)
	if err != nil {
		b.Fatal(err)
	}
	aud, err := NewAuditor(ms, m)
	if err != nil {
		b.Fatal(err)
	}
	// Ascending (i, j) is every reducer's sorted-member order. Owners come
	// from the membership bitsets, not from the owned blocks the auditor
	// checks them against. No reducer is clean, so the audit walks every
	// shard against its reducer's owned pairs.
	logs := make([][]pairEntry, ms.NumReducers())
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			r := aud.idx.owner(i, j)
			logs[r] = append(logs[r], pairEntry{int32(i), int32(j)})
		}
	}
	tr := newTrace(ms.NumReducers())
	tr.shards = logs
	return ms, aud, tr
}

// BenchmarkAuditorVerify times one full conformance verification of an
// m-input schema from nothing: the schema index a compiled run builds,
// PreCheck (the elections and owned blocks: every pair has an owner, loads
// within q) and checkTrace (every pair processed exactly once, at its
// owner). A fresh index per iteration keeps the derivation, which an index
// makes once, inside the measurement: this is what every audited execution
// of a schema not yet compiled pays on its serial path.
func BenchmarkAuditorVerify(b *testing.B) {
	for _, m := range []int{100, 1000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			ms, _, tr := auditorFixture(b, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := newSchemaIndex(ms, shape{numA: m})
				if err != nil {
					b.Fatal(err)
				}
				aud := &Auditor{idx: idx}
				if err := aud.PreCheck(); err != nil {
					b.Fatal(err)
				}
				if err := idx.checkTrace(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAuditorOwnerSweep isolates owner election by bitset
// intersection — the per-pair primitive of the reference check and of
// fabricated-trace tests. One op elects the owners of all 999 pairs of the
// fixture's last input: about 25 µs on a 2-vCPU Xeon, long enough that
// where the linker places the loop does not move it. Compiled reducers
// elect neither way per pair: they read one bit of a bitmap over their
// member classes, which the index derives once with IntersectsBelow from
// the reducer's own side.
func BenchmarkAuditorOwnerSweep(b *testing.B) {
	const m = 1000
	_, aud, _ := auditorFixture(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < m-1; j++ {
			if aud.idx.owner(j, m-1) < 0 {
				b.Fatal("uncovered pair")
			}
		}
	}
}
