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
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/simjoin"
	"repro/internal/skewjoin"
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

func BenchmarkA2AEqualSized(b *testing.B) {
	for _, m := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			set, err := core.UniformInputSet(m, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a2a.EqualSized(set, 64); err != nil {
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
// directions go through encoding/json, as cmd/pland's encoder and
// plandclient's decoder do, so its own scans of a Marshaler's output and an
// Unmarshaler's input are in the numbers.
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

// BenchmarkExecBatch measures the schema-driven execution layer under
// service-style traffic: a batch of schema-driven jobs — planned once through
// the shared facade, so iterations exercise execution, not solving — runs
// end-to-end (compile, map, shuffle, owner-elected pair reduction, and the
// conformance audit) on a bounded worker pool.
func BenchmarkExecBatch(b *testing.B) {
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.3}, 40, 17)
	if err != nil {
		b.Fatal(err)
	}
	set := core.MustNewInputSet(sizes)
	plan, err := planner.Plan(context.Background(), planner.Request{
		Problem: core.ProblemA2A, Set: set, Capacity: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([][]byte, len(sizes))
	for i, s := range sizes {
		inputs[i] = make([]byte, s)
	}
	const jobs = 16
	reqs := make([]exec.Request, jobs)
	for i := range reqs {
		reqs[i] = exec.Request{
			Name:   fmt.Sprintf("bench-job-%d", i),
			Plan:   plan,
			Inputs: inputs,
			Pair: func(x, y exec.Record, emit func([]byte)) error {
				if len(x.Data)+len(y.Data) > 0 {
					emit([]byte{byte(x.ID), byte(y.ID)})
				}
				return nil
			},
		}
	}
	wantPairs := int64(len(sizes) * (len(sizes) - 1) / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := exec.RunBatch(context.Background(), reqs, exec.BatchOptions{Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.PairsProcessed != wantPairs {
				b.Fatalf("job processed %d pairs, want %d", r.PairsProcessed, wantPairs)
			}
		}
	}
}

// BenchmarkExecStream measures the streaming execution path end to end: a
// similarity join over synthetic fixed-width documents fed through
// pkg/assign's Source option — records are generated on the fly, never
// materialized as an input slice — and drained through Each. Every iteration
// pushes the full C(m,2) > 1M candidate pair stream through the pipelined
// map→partition→reduce engine (audit included); the records/s metric counts
// reducer-side record reads, two per owned pair. The schema is planned once
// before the timer via the canonicalization cache, so iterations measure
// execution, not solving.
func BenchmarkExecStream(b *testing.B) { benchExecStream(b) }

// BenchmarkExecStreamSpill is the BenchmarkExecStream instance under a memory
// budget no record fits in: every shuffled record is appended to its
// partition's spill file as a run of its own — 25,500 runs in at most 272
// files — and every partition reduces by merging its runs, so the spill
// writer, the run reader and the k-way merge — the grouping code of every
// run, here with one cursor per record — are what the timer sees besides the
// pairs.
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

func BenchmarkSchemaValidateA2A(b *testing.B) {
	set, err := workload.InputSet(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 30}, 500, 5)
	if err != nil {
		b.Fatal(err)
	}
	ms, err := a2a.Solve(set, 128)
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
}

// The two end-to-end benchmarks below plan through the shared planner
// facade, so iterations after the first serve the mapping schema from its
// canonicalization cache — representative of a production loop over a
// repeated workload. BenchmarkPlannerCold isolates the uncached solve cost.

func BenchmarkSimilarityJoinEndToEnd(b *testing.B) {
	docs, err := workload.Documents(workload.CorpusSpec{
		NumDocs: 100, VocabularySize: 200, MinTerms: 5, MaxTerms: 20, TermSkew: 1.2}, 6)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simjoin.Config{Capacity: 3000, Threshold: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simjoin.Run(docs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkewJoinEndToEnd(b *testing.B) {
	x, err := workload.GenerateRelation(workload.RelationSpec{
		Name: "X", NumTuples: 2000, NumKeys: 50, Skew: 1.3, PayloadBytes: 10}, 7)
	if err != nil {
		b.Fatal(err)
	}
	y, err := workload.GenerateRelation(workload.RelationSpec{
		Name: "Y", NumTuples: 2000, NumKeys: 50, Skew: 1.3, PayloadBytes: 10}, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := skewjoin.Config{Capacity: 6000, CountOnly: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := skewjoin.Run(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
