package stream_test

import (
	"context"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/workload"
)

// benchSizes returns the m=1k churn workload used by BenchmarkSessionDelta
// and BENCH_stream.json: uniform sizes in [1, 64] under q=1024.
func benchSizes(b *testing.B, m int) ([]core.Size, core.Size) {
	b.Helper()
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 64}, m, 42)
	if err != nil {
		b.Fatalf("workload: %v", err)
	}
	return sizes, 1024
}

// BenchmarkSessionDelta prices one churn delta (remove the oldest live
// input, add a replacement) at m=1k inputs two ways: the session's
// incremental local repair, and a full constructive re-solve per delta —
// the cheapest possible full-replan baseline (the portfolio planner costs
// strictly more). The acceptance bar is incremental >= 10x faster.
func BenchmarkSessionDelta(b *testing.B) {
	const m = 1000
	sizes, q := benchSizes(b, m)

	b.Run("incremental", func(b *testing.B) {
		s, err := stream.NewSession(context.Background(), stream.Config{
			Capacity:         q,
			RebuildThreshold: -1, // isolate pure local repair
			Initial:          sizes,
			Replan: func(_ context.Context, sz []core.Size, q core.Size) (*core.MappingSchema, error) {
				set, err := core.NewInputSet(sz)
				if err != nil {
					return nil, err
				}
				return a2a.Solve(set, q)
			},
		})
		if err != nil {
			b.Fatalf("NewSession: %v", err)
		}
		defer s.Close()
		oldest := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Remove(oldest); err != nil {
				b.Fatalf("Remove: %v", err)
			}
			oldest++
			if _, _, err := s.Add(sizes[i%m]); err != nil {
				b.Fatalf("Add: %v", err)
			}
		}
	})

	b.Run("full-replan", func(b *testing.B) {
		live := append([]core.Size(nil), sizes...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			live = append(live[1:len(live):len(live)], sizes[i%m])
			set, err := core.NewInputSet(live)
			if err != nil {
				b.Fatalf("input set: %v", err)
			}
			if _, err := a2a.Solve(set, q); err != nil {
				b.Fatalf("Solve: %v", err)
			}
		}
	})
}

// BenchmarkSessionRebuild times one Rebuild, replan and swap, on the rebuild
// trace's session shape (q = 256, about 500 Zipf sizes up to 30): the state
// is the trace's session just before its 50th rebuild, restored outside the
// timer for every iteration.
func BenchmarkSessionRebuild(b *testing.B) {
	s := traceSession(b)
	events := traceEvents(b)
	var drifted *stream.State
	for rebuilds := 0; drifted == nil; events = events[1:] {
		if err := applyChurn(s, events[0]); err != nil {
			b.Fatal(err)
		}
		if !s.NeedsRebuild() {
			continue
		}
		if rebuilds++; rebuilds == 50 {
			drifted = s.State()
		} else if _, err := s.Rebuild(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	cfg := stream.Config{Replan: solveReplan}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := stream.RestoreSession(cfg, drifted, nil)
		if err != nil {
			b.Fatalf("RestoreSession: %v", err)
		}
		b.StartTimer()
		if _, err := r.Rebuild(context.Background()); err != nil {
			b.Fatalf("Rebuild: %v", err)
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
}
