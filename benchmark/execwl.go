package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/pkg/assign"
)

// execWorkload runs one fixed instance through assign.Execute per op. It has
// two shapes. exec_join is the BenchmarkExecStream shape: an A2A join over
// many tiny equal records fed through Source/Each, bound by the pair count,
// so the executor's trace and audit and the engine's per-record channel hops
// dominate. exec_spill is an X2Y job over KiB-scale different-sized payloads
// under a memory budget below one record, so every shuffled pair goes
// through a sorted run file: bound by bytes, sort, encode and merge.
type execWorkload struct {
	wl string
	sh shape

	// The instance.
	q            core.Size
	docs         [][]byte // exec_join: A2A records
	x, y         [][]byte // exec_spill: X2Y payloads
	sizes        []core.Size
	budget       int64
	spillDir     string
	wantPairs    int64
	wantChecksum uint64
	wantOutputs  int64

	pl *assign.Planner
	tr *tracer
	// plan is the schema's quality, read once at set-up: every op executes
	// the same cached plan.
	plan *assign.Result
}

const (
	joinDocs    = 1500 // C(1500,2) = 1,124,250 pairs per op
	joinRecSize = 16
	joinQ       = 100 * joinRecSize

	spillNX, spillNY = 40, 120
	spillQ           = 24 << 10
	// spillBudget is below the smallest payload, so every insertion into a
	// partition table crosses it and the whole shuffle spills, in every
	// execution. Larger budgets make the spilled share depend on goroutine
	// scheduling: pairs parked in the engine's channel buffers are not
	// charged to the budget, so between 0% and 100% of the same shuffle
	// spills from one execution to the next.
	spillBudget = 256
)

func (w *execWorkload) name() string { return w.wl }
func (w *execWorkload) clients() int { return 1 }
func (w *execWorkload) opSize() string {
	if w.wl == wlExecJoin {
		return fmt.Sprintf("1 assign.Execute: %d x %d B records, q=%d, %d pairs, audit on", joinDocs, joinRecSize, joinQ, w.wantPairs)
	}
	return fmt.Sprintf("1 assign.Execute: X2Y %dx%d payloads of 0.5-6 KiB, q=%d, %d pairs, memory budget %d B (all spilled)",
		spillNX, spillNY, spillQ, w.wantPairs, spillBudget)
}

// pairSum hashes one output record; the run's checksum is the sum over the
// records, so it does not depend on the order partitions complete in.
func pairSum(rec []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(rec)
	return h.Sum64()
}

// joinPair is exec_join's user logic: near-duplicate detection over fixed-
// width records, emitting only the rare matches.
func joinPair(a, b assign.Record, emit func([]byte)) error {
	match := 0
	for k := range a.Data {
		if a.Data[k] == b.Data[k] {
			match++
		}
	}
	if match >= joinRecSize-1 {
		emit(pairRecord(a.ID, b.ID, byte(match)))
	}
	return nil
}

// spillPair is exec_spill's user logic: one small record per cross pair.
func spillPair(a, b assign.Record, emit func([]byte)) error {
	emit(pairRecord(a.ID, b.ID, a.Data[0]^b.Data[len(b.Data)-1]))
	return nil
}

func pairRecord(a, b int, v byte) []byte {
	rec := make([]byte, 9)
	binary.BigEndian.PutUint32(rec, uint32(a))
	binary.BigEndian.PutUint32(rec[4:], uint32(b))
	rec[8] = v
	return rec
}

func (w *execWorkload) prepare(_ context.Context, env *runEnv, sh shape) error {
	w.sh = sh
	rng := rand.New(rand.NewSource(env.seed))
	reference := func(rec []byte) {
		w.wantChecksum += pairSum(rec)
		w.wantOutputs++
	}
	if w.wl == wlExecJoin {
		w.q = joinQ
		w.docs = make([][]byte, joinDocs)
		w.sizes = make([]core.Size, joinDocs)
		for i := range w.docs {
			w.sizes[i] = joinRecSize
			w.docs[i] = make([]byte, joinRecSize)
			// One record in sixteen is a near-duplicate of an earlier one,
			// so the join has output to check.
			if i > 0 && rng.Intn(16) == 0 {
				copy(w.docs[i], w.docs[rng.Intn(i)])
				w.docs[i][rng.Intn(joinRecSize)] ^= 0x5a
			} else {
				rng.Read(w.docs[i])
			}
		}
		for i := range w.docs {
			for j := i + 1; j < len(w.docs); j++ {
				_ = joinPair(assign.Record{ID: i, Data: w.docs[i]}, assign.Record{ID: j, Data: w.docs[j]}, reference)
			}
		}
		w.wantPairs = int64(joinDocs) * (joinDocs - 1) / 2
		return nil
	}
	// The size multisets are fixed and the seed draws the payload bytes and
	// the input order: the planner canonicalizes by sorted sizes, so every
	// seed executes a schema of the same quality and the ratios of this
	// one-instance workload do not move with the seed.
	w.q, w.budget, w.spillDir = spillQ, spillBudget, env.scratch
	payloads := func(n, lo, hi int) [][]byte {
		out := make([][]byte, n)
		for i, k := range rng.Perm(n) {
			out[i] = make([]byte, lo+(hi-lo)*k/n)
			rng.Read(out[i])
		}
		return out
	}
	w.x = payloads(spillNX, 1<<10, 6<<10)
	w.y = payloads(spillNY, 1<<9, 3<<10)
	for i := range w.x {
		for j := range w.y {
			_ = spillPair(assign.Record{ID: i, Data: w.x[i]}, assign.Record{ID: j, Data: w.y[j]}, reference)
		}
	}
	w.wantPairs = int64(spillNX) * spillNY
	return nil
}

// inputsDigest is the reference output's checksum: it moves with every
// payload byte the pair logic reads.
func (w *execWorkload) inputsDigest() uint64 {
	return core.MixFingerprint(w.wantChecksum, uint64(w.wantOutputs))
}

// options assembles one execution. Output streams through Each into a
// running checksum; extra options (NoAudit, an unbounded budget) go last.
func (w *execWorkload) options(sum *uint64, outputs *int64, extra ...assign.Option) []assign.Option {
	opts := []assign.Option{
		assign.Named("bench-" + w.wl),
		assign.Capacity(w.q),
		assign.Deterministic(),
		assign.Each(func(rec []byte) error {
			*sum += pairSum(rec)
			*outputs++
			return nil
		}),
	}
	if w.wl == wlExecJoin {
		next := 0
		src := assign.RecordSourceFunc(func() ([]byte, error) {
			if next >= len(w.docs) {
				return nil, io.EOF
			}
			next++
			return w.docs[next-1], nil
		})
		opts = append(opts, assign.Source(src, w.sizes), assign.Pair(joinPair))
	} else {
		opts = append(opts, assign.XYInputs(w.x, w.y), assign.Pair(spillPair),
			assign.MemoryBudget(w.budget), assign.SpillDir(w.spillDir))
	}
	return append(opts, extra...)
}

// execute runs one execution and checks its output against the nested-loop
// reference.
func (w *execWorkload) execute(ctx context.Context, extra ...assign.Option) (*assign.Execution, time.Duration, error) {
	var sum uint64
	var outputs int64
	opts := w.options(&sum, &outputs, extra...)
	start := time.Now()
	ex, err := w.pl.Execute(ctx, opts...)
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	switch {
	case ex.PairsProcessed != w.wantPairs:
		return ex, lat, checkf("processed %d pairs, want %d", ex.PairsProcessed, w.wantPairs)
	case outputs != w.wantOutputs || sum != w.wantChecksum:
		return ex, lat, checkf("output %d records checksum %x, reference %d records checksum %x", outputs, sum, w.wantOutputs, w.wantChecksum)
	}
	return ex, lat, nil
}

// setup is what a caller pays before the first steady-state execution: a
// cold plan of the schema, the auditor's static check of it, and warm-up
// executions.
func (w *execWorkload) setup(ctx context.Context, traced bool) error {
	w.pl = assign.NewPlanner(assign.PlannerConfig{})
	w.tr = nil
	if traced {
		w.tr = newTracer(w.sh.traced())
	}
	var sum uint64
	var outputs int64
	plan, err := w.pl.Plan(ctx, w.options(&sum, &outputs)...)
	if err != nil {
		return fmt.Errorf("cold plan: %w", err)
	}
	w.plan = plan
	var aud *exec.Auditor
	if w.wl == wlExecJoin {
		aud, err = exec.NewAuditor(plan.Schema, len(w.docs))
	} else {
		aud, err = exec.NewAuditorX2Y(plan.Schema, len(w.x), len(w.y))
	}
	if err == nil {
		err = aud.PreCheck()
	}
	if err != nil {
		return fmt.Errorf("auditing the planned schema: %w", err)
	}
	for i := 0; i < w.sh.warm; i++ {
		if _, _, err := w.execute(ctx); err != nil {
			return fmt.Errorf("warm-up execution %d: %w", i, err)
		}
	}
	return nil
}

func (w *execWorkload) teardown() { w.pl = nil }

func (w *execWorkload) op(ctx context.Context, _, _ int, acc *accumulator) (time.Duration, error) {
	var sp *obs.Span
	if w.tr != nil {
		ctx, sp = obs.StartSpan(obs.WithRecorder(ctx, w.tr.rec), "bench:"+w.wl)
	}
	ex, lat, err := w.execute(ctx)
	sp.End()
	if err != nil {
		return lat, err
	}
	if !ex.Audited {
		return lat, checkf("execution was not audited")
	}
	if !ex.Plan.CacheHit {
		return lat, checkf("plan was re-solved; timed ops must execute the cached plan")
	}
	acc.quality(ex.Plan.Cost.ReplicationRate, ex.Plan.Cost.Reducers, ex.Plan.LowerBoundReducers)
	acc.counts["mr.shuffle_records"] += ex.ShuffleRecords
	acc.counts["mr.shuffle_bytes"] += ex.ShuffleBytes
	acc.counts["mr.spill_runs"] += ex.SpillRuns
	acc.counts["mr.spill_bytes"] += ex.SpillBytes
	if w.budget > 0 && 10*ex.SpillBytes < 6*ex.ShuffleBytes {
		return lat, checkf("spilled %d of %d shuffle bytes, below 60%%", ex.SpillBytes, ex.ShuffleBytes)
	}
	return lat, nil
}

func (w *execWorkload) finish(context.Context, *accumulator) error { return nil }

func (w *execWorkload) layers(ctx context.Context, base, traced *phase) (map[string]float64, error) {
	m := map[string]float64{}
	st := newSelfTimes()
	for _, rec := range w.tr.records() {
		st.add(rec)
	}
	m["exec.compile_ms"] = st.perOpMS("exec_compile")
	m["exec.audit_ms"] = st.perOpMS("audit")
	m["planner.canonicalize_self_ms"] = st.perOpMS("canonicalize")
	m["planner.cache_self_ms"] = st.perOpMS("cache")
	m["obs.self_time_coverage"] = st.coverage()
	if stats := w.pl.Stats(); stats.Requests > 0 {
		m["planner.cache_hit_ratio"] = float64(stats.CacheHits) / float64(stats.Requests)
	}
	ops := float64(traced.attempted)
	for _, k := range []string{"mr.shuffle_records", "mr.shuffle_bytes", "mr.spill_runs", "mr.spill_bytes"} {
		m[k] = float64(traced.acc.counts[k]) / ops
	}
	if m["mr.shuffle_bytes"] > 0 {
		m["mr.spilled_share"] = m["mr.spill_bytes"] / m["mr.shuffle_bytes"]
	}
	p50 := medianDur(base.lat)
	m["exec.pairs_per_s"] = float64(w.wantPairs) / p50.Seconds()

	// Variants of the same op: without the audit, and (when the workload
	// spills) without the memory budget. The differences price the audit and
	// the spill path.
	variant := func(extra ...assign.Option) (time.Duration, error) {
		var lat []time.Duration
		for i := 0; i < w.sh.traced(); i++ {
			_, d, err := w.execute(ctx, extra...)
			if err != nil {
				return 0, err
			}
			lat = append(lat, d)
		}
		return medianDur(lat), nil
	}
	noAudit, err := variant(assign.NoAudit())
	if err != nil {
		return nil, fmt.Errorf("NoAudit variant: %w", err)
	}
	m["exec.audit_overhead_ratio"] = p50.Seconds() / noAudit.Seconds()
	if w.budget > 0 {
		unbounded, err := variant(assign.MemoryBudget(0))
		if err != nil {
			return nil, fmt.Errorf("unbounded variant: %w", err)
		}
		m["mr.spill_ms"] = ms(p50 - unbounded)
	}

	// The engine's own phase clocks and partition loads, from direct
	// exec.Run calls on the planned schema.
	var mapMS, reduceMS []float64
	for i := 0; i < w.sh.traced(); i++ {
		res, err := exec.Run(w.execRequest(ctx))
		if err != nil {
			return nil, fmt.Errorf("direct exec.Run: %w", err)
		}
		mapMS = append(mapMS, ms(res.Counters.MapWall))
		reduceMS = append(reduceMS, ms(res.Counters.ReduceWall))
		m["mr.partition_skew"] = res.Counters.LoadImbalance()
	}
	m["mr.map_ms"] = median(mapMS)
	m["mr.reduce_ms"] = median(reduceMS)

	// The instance itself through the solver layers. Set-up is the only
	// place this workload pays them.
	in := &instance{problem: core.ProblemA2A, q: w.q, sizes: w.sizes}
	if w.wl == wlExecSpill {
		in = &instance{problem: core.ProblemX2Y, q: w.q, x: payloadSizes(w.x), y: payloadSizes(w.y)}
	}
	if err := solverProbes(ctx, []*instance{in}, m); err != nil {
		return nil, err
	}
	return m, nil
}

// execRequest is the executor request of one op, for direct exec.Run calls.
func (w *execWorkload) execRequest(ctx context.Context) exec.Request {
	req := exec.Request{
		Ctx:    ctx,
		Name:   "bench-direct-" + w.wl,
		Plan:   &planner.Result{Schema: w.plan.Schema},
		Sink:   func([]byte) error { return nil },
		Inputs: w.docs,
		Pair:   joinPair,
	}
	if w.wl == wlExecSpill {
		req.Inputs, req.XInputs, req.YInputs = nil, w.x, w.y
		req.Pair, req.MemoryBudget, req.SpillDir = spillPair, w.budget, w.spillDir
	}
	return req
}

func payloadSizes(p [][]byte) []core.Size {
	out := make([]core.Size, len(p))
	for i := range p {
		out[i] = core.Size(len(p[i]))
	}
	return out
}
