// Package repro's root-level benchmarks time the solvers, the planner, the
// schema codec and the executor on fixed instances. Run with:
//
//	go test -run '^$' -bench=. -benchmem .
//
// The end-to-end ruler with per-layer metrics is ./benchmark; these are the
// micro-benchmarks beside it.
package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/a2a"
	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/workload"
	"repro/internal/x2y"
	"repro/pkg/assign"
)

func BenchmarkA2ABinPackPair(b *testing.B) {
	for _, m := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			set, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, m, 1)
			if err != nil {
				b.Fatal(err)
			}
			q := core.Size(128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a2a.BinPackPair(set, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA2AEqualSized times the equal-sized dispatch of a2a.Solve on the
// benchmark's a2a_equal shapes: m = 1,950 to 2,049 inputs at 62 per reducer,
// more bins than any plane that fits has points, so each is the plane plus a
// remainder.
func BenchmarkA2AEqualSized(b *testing.B) {
	for _, m := range []int{1950, 2000, 2049} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			set, err := core.UniformInputSet(m, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a2a.Solve(set, 62); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkX2YGrid(b *testing.B) {
	xs, err := workload.InputSet(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 30}, 500, 2)
	if err != nil {
		b.Fatal(err)
	}
	ys, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, 1500, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := x2y.Solve(xs, ys, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinPackFFD(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 50}, n, 4)
			if err != nil {
				b.Fatal(err)
			}
			items := make([]binpack.Item, n)
			for i, s := range sizes {
				items[i] = binpack.Item{ID: i, Size: s}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := binpack.Pack(items, 100, binpack.FirstFitDecreasing); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// plannerBenchSet builds the instance the planner benchmarks share.
func plannerBenchSet(b *testing.B) *core.InputSet {
	b.Helper()
	set, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, 500, 9)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkPlannerCold measures a full portfolio pass on every iteration
// (cache disabled): on its 500 inputs that is a2a/solve alone, the greedy and
// exact members being gated out. BenchmarkPlannerCached measures the same
// request served
// from the canonicalization cache. The gap between the two is the cache win
// on repeated isomorphic workloads.
func BenchmarkPlannerCold(b *testing.B) {
	set := plannerBenchSet(b)
	p := planner.New(planner.Config{CacheEntries: -1})
	req := planner.Request{Problem: core.ProblemA2A, Set: set, Capacity: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerCached(b *testing.B) {
	set := plannerBenchSet(b)
	p := planner.New(planner.Config{})
	req := planner.Request{Problem: core.ProblemA2A, Set: set, Capacity: 128}
	if _, err := p.Plan(context.Background(), req); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Plan(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkSchemaJSON measures the mapping-schema codec on the reply pland
// sends most: the plan of about 400 Zipf-sized inputs at a capacity that packs
// them into 20 half-capacity bins (190 reducers, some 6,000 IDs, 33 KB). Both
// directions go through encoding/json, so its own scans of a Marshaler's
// output and an Unmarshaler's input are in the numbers: it is the reference
// for BenchmarkPlanReplyEncode (cmd/pland) and BenchmarkPlanReplyDecode
// (plandclient), which write and read the same schema in a reply without
// those scans.
func BenchmarkSchemaJSON(b *testing.B) {
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, 403, 64)
	if err != nil {
		b.Fatal(err)
	}
	set := core.MustNewInputSet(sizes)
	res, err := planner.Plan(context.Background(), planner.Request{
		Problem: core.ProblemA2A, Set: set, Capacity: 2 * ((set.TotalSize() + 19) / 20),
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(res.Schema)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			out, err := json.Marshal(res.Schema)
			if err != nil || len(out) != len(data) {
				b.Fatalf("encoded %d bytes, want %d: %v", len(out), len(data), err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var back core.MappingSchema
			if err := json.Unmarshal(data, &back); err != nil || len(back.Reducers) != len(res.Schema.Reducers) {
				b.Fatalf("decoded %d reducers, want %d: %v", len(back.Reducers), len(res.Schema.Reducers), err)
			}
		}
	})
}

// BenchmarkExecStream measures the streaming execution path end to end: a
// similarity join over synthetic fixed-width documents fed through
// pkg/assign's Source option — records are generated on the fly, never
// materialized as an input slice — and drained through Each. Every iteration
// pushes the full C(m,2) > 1M candidate pair stream through the engine's
// route→reduce phases (audit included); the records/s metric counts
// reducer-side record reads, two per owned pair. The schema is planned once
// before the timer via the canonicalization cache, so iterations measure
// execution, not solving.
func BenchmarkExecStream(b *testing.B) { benchExecStream(b) }

// BenchmarkExecStreamSpill is the BenchmarkExecStream instance under a memory
// budget no record fits in: every copy is appended to the run's one spill
// file as a run of its own — 25,500 runs in one file per op — and every
// reducer reads its runs back, so the spill writer and the run reader are
// what the timer sees besides the pairs.
func BenchmarkExecStreamSpill(b *testing.B) {
	benchExecStream(b, assign.MemoryBudget(1), assign.SpillDir(b.TempDir()))
}

func benchExecStream(b *testing.B, extra ...assign.Option) {
	const (
		numDocs = 1500 // C(1500,2) = 1,124,250 pairs per iteration
		recSize = 16
	)
	sizes := make([]assign.Size, numDocs)
	for i := range sizes {
		sizes[i] = recSize
	}
	doc := func(i int) []byte {
		rec := make([]byte, recSize)
		for j := range rec {
			rec[j] = byte((i*31 + j*7) % 251)
		}
		return rec
	}
	newSource := func() assign.RecordSource {
		next := 0
		return assign.RecordSourceFunc(func() ([]byte, error) {
			if next >= numDocs {
				return nil, io.EOF
			}
			rec := doc(next)
			next++
			return rec, nil
		})
	}
	var similar int64
	opts := func() []assign.Option {
		return append([]assign.Option{
			assign.Named("bench-exec-stream"),
			assign.Capacity(100 * recSize),
			assign.Source(newSource(), sizes),
			assign.Pair(func(x, y assign.Record, emit func([]byte)) error {
				match := 0
				for k := range x.Data {
					if x.Data[k] == y.Data[k] {
						match++
					}
				}
				if match >= recSize-1 { // near-duplicates only: keep emission rare
					emit([]byte{byte(x.ID >> 8), byte(x.ID), byte(y.ID >> 8), byte(y.ID)})
				}
				return nil
			}),
			assign.Each(func(rec []byte) error { similar++; return nil }),
		}, extra...)
	}
	const wantPairs = int64(numDocs) * (numDocs - 1) / 2
	warm, err := assign.Execute(context.Background(), opts()...)
	if err != nil {
		b.Fatal(err)
	}
	if warm.PairsProcessed != wantPairs {
		b.Fatalf("processed %d pairs, want %d", warm.PairsProcessed, wantPairs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := assign.Execute(context.Background(), opts()...)
		if err != nil {
			b.Fatal(err)
		}
		if ex.PairsProcessed != wantPairs {
			b.Fatalf("processed %d pairs, want %d", ex.PairsProcessed, wantPairs)
		}
	}
	b.ReportMetric(float64(2*wantPairs)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSchemaValidate times the coverage check every plan passes: a2a on
// 500 uniform inputs at q = 128; a2a_zipf and a2a_equal in the end-to-end
// benchmark's regimes of those names (500 Zipf sizes, each at most q/2, at
// the q that fills about 24 half-full reducers; 2,000 inputs of size 10, 62
// to a reducer); x2y on about 300 x 900 Zipf sizes at the q that fills about
// 40 half-full reducers, the shape of the end-to-end benchmark's x2y regime.
func BenchmarkSchemaValidate(b *testing.B) {
	zipf := workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}
	a2aCase := func(name string, spec workload.SizeSpec, m int, seed int64, q func(total core.Size) core.Size) {
		b.Run(name, func(b *testing.B) {
			set, err := workload.InputSet(spec, m, seed)
			if err != nil {
				b.Fatal(err)
			}
			ms, err := a2a.Solve(set, q(set.TotalSize()))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ms.ValidateA2A(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	a2aCase("a2a", workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 30}, 500, 5,
		func(core.Size) core.Size { return 128 })
	a2aCase("a2a_zipf", zipf, 500, 8,
		func(total core.Size) core.Size { return max(2*(total+23)/24, 60) })
	a2aCase("a2a_equal", workload.SizeSpec{Dist: workload.Constant, Min: 10, Max: 10}, 2000, 9,
		func(core.Size) core.Size { return 62 * 10 })
	b.Run("x2y", func(b *testing.B) {
		xs, err := workload.InputSet(zipf, 300, 6)
		if err != nil {
			b.Fatal(err)
		}
		ys, err := workload.InputSet(zipf, 900, 7)
		if err != nil {
			b.Fatal(err)
		}
		q := max(2*(xs.TotalSize()+ys.TotalSize()+39)/40, 60)
		ms, err := x2y.Solve(xs, ys, q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ms.ValidateX2Y(xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
}
