package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/a2a"
	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/x2y"
	"repro/pkg/assign"
)

// planCold plans a stream of pairwise distinct instances in process: the
// planner, the solvers and bin packing do all the work, and it is the one
// workload whose quality ratios vary per op.
type planCold struct {
	sh        shape
	instances []*instance // warm-up first, then the timed ops
	pl        *assign.Planner
	tr        *tracer
}

func (w *planCold) name() string { return wlPlanCold }
func (w *planCold) clients() int { return 1 }
func (w *planCold) opSize() string {
	return "1 assign.Plan, round-robin over " + fmt.Sprint(regimeNames)
}

func (w *planCold) prepare(_ context.Context, env *runEnv, sh shape) error {
	w.sh = sh
	g := newInstanceGen(env.seed)
	w.instances = make([]*instance, sh.warm+sh.timed())
	for i := range w.instances {
		w.instances[i] = g.next()
	}
	return nil
}

func (w *planCold) inputsDigest() uint64 {
	var h uint64
	for _, in := range w.instances {
		h = core.MixFingerprint(h, in.key())
	}
	return h
}

func (w *planCold) setup(ctx context.Context, traced bool) error {
	w.pl = assign.NewPlanner(assign.PlannerConfig{})
	w.tr = nil
	if traced {
		w.tr = newTracer(w.sh.traced())
	}
	for _, in := range w.instances[:w.sh.warm] {
		if _, err := w.pl.Plan(ctx, in.planOptions()...); err != nil {
			return fmt.Errorf("warm-up plan (%s): %w", regimeNames[in.regime], err)
		}
	}
	return nil
}

func (w *planCold) teardown() { w.pl = nil }

// planOptions are the SDK options of one instance: the race awaits every
// portfolio member, so the schema does not depend on scheduling.
func (in *instance) planOptions() []assign.Option {
	opts := []assign.Option{assign.Capacity(in.q), assign.Deterministic()}
	if in.problem == core.ProblemA2A {
		return append(opts, assign.A2A(in.sizes))
	}
	return append(opts, assign.X2Y(in.x, in.y))
}

// validate re-checks a planned schema against the instance: every required
// pair shares a reducer and no reducer exceeds q.
func (in *instance) validate(ms *core.MappingSchema) error {
	if ms == nil {
		return checkf("no schema")
	}
	if ms.Capacity != in.q {
		return checkf("schema capacity %d, instance capacity %d", ms.Capacity, in.q)
	}
	var err error
	if in.problem == core.ProblemA2A {
		var set *core.InputSet
		if set, err = core.NewInputSet(in.sizes); err == nil {
			err = ms.ValidateA2A(set)
		}
	} else {
		var xs, ys *core.InputSet
		if xs, err = core.NewInputSet(in.x); err == nil {
			if ys, err = core.NewInputSet(in.y); err == nil {
				err = ms.ValidateX2Y(xs, ys)
			}
		}
	}
	if err != nil {
		return checkf("%v", err)
	}
	return nil
}

func (w *planCold) op(ctx context.Context, _, i int, acc *accumulator) (time.Duration, error) {
	in := w.instances[w.sh.warm+i]
	var sp *obs.Span
	if w.tr != nil {
		ctx, sp = obs.StartSpan(obs.WithRecorder(ctx, w.tr.rec), "bench:"+wlPlanCold)
	}
	start := time.Now()
	res, err := w.pl.Plan(ctx, in.planOptions()...)
	lat := time.Since(start)
	sp.End()
	if err != nil {
		return lat, err
	}
	if res.CacheHit {
		return lat, checkf("instance %d was a cache hit; instances must be distinct", i)
	}
	if err := in.validate(res.Schema); err != nil {
		return lat, err
	}
	acc.quality(res.Cost.ReplicationRate, res.Cost.Reducers, res.LowerBoundReducers)
	return lat, nil
}

func (w *planCold) finish(context.Context, *accumulator) error { return nil }

func (w *planCold) layers(ctx context.Context, base, traced *phase) (map[string]float64, error) {
	m := map[string]float64{}
	st := newSelfTimes()
	for _, rec := range w.tr.records() {
		st.add(rec)
	}
	m["planner.canonicalize_self_ms"] = st.perOpMS("canonicalize")
	m["planner.cache_self_ms"] = st.perOpMS("cache")
	m["planner.race_self_ms"] = st.perOpMS("race")
	m["obs.self_time_coverage"] = st.coverage()
	stats := w.pl.Stats()
	if stats.Requests > 0 {
		m["planner.cache_hit_ratio"] = float64(stats.CacheHits) / float64(stats.Requests)
	}
	probe := w.instances[w.sh.warm : w.sh.warm+w.sh.traced()]
	if len(probe) > 10*numRegimes {
		probe = probe[:10*numRegimes]
	}
	if err := solverProbes(ctx, probe, m); err != nil {
		return nil, err
	}
	return m, nil
}

// solverProbes times direct calls into core, binpack, a2a, x2y, planner and
// the assign facade on the given instances, and reads the solver arms' spans
// of an uncached planner.Plan for the race's useful share: the winner's solve
// time over all members' solve time.
func solverProbes(ctx context.Context, instances []*instance, m map[string]float64) error {
	var validate, fingerprint, pack, solveA, solveX, plan, facade []float64
	var winner, members time.Duration
	pl := planner.New(planner.Config{})
	apl := assign.NewPlanner(assign.PlannerConfig{})
	tr := newTracer(len(instances))
	for _, in := range instances {
		req := planner.Request{Problem: in.problem, Capacity: in.q, NoCache: true, Budget: planner.Budget{Timeout: -1}}
		var sets []*core.InputSet
		for _, sizes := range [][]core.Size{in.sizes, in.x, in.y} {
			if len(sizes) == 0 {
				continue
			}
			set, err := core.NewInputSet(sizes)
			if err != nil {
				return err
			}
			sets = append(sets, set)
		}
		start := time.Now()
		for _, set := range sets {
			_ = set.Fingerprint()
		}
		fingerprint = append(fingerprint, ms(time.Since(start)))

		start = time.Now()
		for _, set := range sets {
			if _, err := binpack.Pack(binpack.ItemsFromInputSet(set), in.q, binpack.FirstFitDecreasing); err != nil {
				return fmt.Errorf("binpack.Pack: %w", err)
			}
		}
		pack = append(pack, ms(time.Since(start)))

		var schema *core.MappingSchema
		var err error
		start = time.Now()
		if in.problem == core.ProblemA2A {
			req.Set = sets[0]
			schema, err = a2a.Solve(sets[0], in.q)
			solveA = append(solveA, ms(time.Since(start)))
		} else {
			req.X, req.Y = sets[0], sets[1]
			schema, err = x2y.Solve(sets[0], sets[1], in.q)
			solveX = append(solveX, ms(time.Since(start)))
		}
		if err != nil {
			return fmt.Errorf("direct %v solve: %w", in.problem, err)
		}

		start = time.Now()
		if in.problem == core.ProblemA2A {
			err = schema.ValidateA2A(sets[0])
		} else {
			err = schema.ValidateX2Y(sets[0], sets[1])
		}
		validate = append(validate, ms(time.Since(start)))
		if err != nil {
			return fmt.Errorf("direct validate: %w", err)
		}

		sctx, sp := obs.StartSpan(obs.WithRecorder(ctx, tr.rec), "bench:planner.Plan")
		start = time.Now()
		res, err := pl.Plan(sctx, req)
		direct := time.Since(start)
		sp.End()
		if err != nil {
			return fmt.Errorf("planner.Plan: %w", err)
		}
		plan = append(plan, ms(direct))
		for _, rec := range tr.rec.Get(sp.TraceID()) {
			winner += spanDur(rec.Root, "solve:"+res.Winner)
			for _, c := range rec.Root.Children {
				if len(c.Name) > 6 && c.Name[:6] == "solve:" {
					members += time.Duration(c.DurationUS) * time.Microsecond
				}
			}
		}

		// The facade's own cost is microseconds, invisible next to a solve:
		// price it on cache hits, where both calls do nothing else.
		hit := func(call func() error) (time.Duration, error) {
			best := time.Duration(1 << 62)
			for k := 0; k < 6; k++ { // the first call fills the cache
				start := time.Now()
				if err := call(); err != nil {
					return 0, err
				}
				if d := time.Since(start); k > 0 && d < best {
					best = d
				}
			}
			return best, nil
		}
		req.NoCache = false
		inner, err := hit(func() error { _, err := pl.Plan(ctx, req); return err })
		if err != nil {
			return fmt.Errorf("planner.Plan: %w", err)
		}
		outer, err := hit(func() error { _, err := apl.Plan(ctx, in.planOptions()...); return err })
		if err != nil {
			return fmt.Errorf("assign.Plan: %w", err)
		}
		facade = append(facade, us(outer-inner))
	}
	m["core.validate_ms"] = median(validate)
	m["core.fingerprint_ms"] = median(fingerprint)
	m["binpack.pack_ms"] = median(pack)
	m["a2a.solve_ms"] = median(solveA)
	m["x2y.solve_ms"] = median(solveX)
	m["planner.plan_ms"] = median(plan)
	m["assign.facade_overhead_us"] = median(facade)
	if members > 0 {
		m["planner.race_useful_ratio"] = float64(winner) / float64(members)
	}
	return nil
}
