package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// svcMixed drives one pland child over keep-alive HTTP with two closed-loop
// clients. Each client replays its own script against its own sessions, so
// no result depends on how the clients interleave. HTTP decode, middleware
// and obs, the planner cache, stream, jobs and the WAL do the work; the
// solvers do little.
type svcMixed struct {
	env     *runEnv
	sh      shape
	bin     string
	walSeed string // WAL directory the first boot wrote and kill -9 left behind
	scripts []*clientScript

	proc    *plandProc
	client  *plandclient.Client
	dataDir string
	boots   int
	traced  bool
	bootMS  float64
	usageAt time.Time // when usage was last read in this boot

	scrape0  map[string]float64 // /metrics at the first timed op
	traceIDs [][]string         // per client, the traced pass's trace IDs
	replays  []*replayStats     // per client, filled by finish
}

func (w *svcMixed) name() string { return wlSvcMixed }
func (w *svcMixed) clients() int { return 2 }
func (w *svcMixed) opSize() string {
	return fmt.Sprintf("1 HTTP op: 40%% plan_hot (m~400, %d shapes) / 10%% plan_cold (m~200) / 10%% execute (m~60) / 35%% session_patch (%d deltas, m~%d) / 5%% session_get",
		hotShapes, deltasPerPatch, sessionInputs)
}

func (w *svcMixed) prepare(ctx context.Context, env *runEnv, sh shape) error {
	w.env, w.sh = env, sh
	var err error
	if w.bin, err = env.plandBinary(ctx); err != nil {
		return err
	}
	shapes := newHotShapes()
	for c := 0; c < w.clients(); c++ {
		rng := rand.New(rand.NewSource(env.seed*31 + int64(c) + 1))
		w.scripts = append(w.scripts, newClientScript(rng, c, shapes, sh.warm, sh.timed()))
	}
	// First boot, untimed: create the sessions recovery will bring back, put
	// some deltas behind each, give the interval flusher time to reach the
	// disk, then kill -9.
	w.walSeed = filepath.Join(env.scratch, "wal-seed")
	if err := w.boot(ctx, w.walSeed, 0); err != nil {
		return err
	}
	defer func() {
		w.proc.kill()
		w.proc = nil
	}()
	for _, cs := range w.scripts {
		for _, s := range cs.sessions[:recoveredPerClient] {
			if err := w.createSession(ctx, s); err != nil {
				return fmt.Errorf("first boot: %w", err)
			}
			for b := 0; b < prepPatches; b++ {
				if _, err := w.patch(ctx, s, b); err != nil {
					return fmt.Errorf("first boot: %w", err)
				}
			}
		}
	}
	before, _, err := w.proc.scrape(ctx)
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		time.Sleep(20 * time.Millisecond)
		now, _, err := w.proc.scrape(ctx)
		if err != nil {
			return err
		}
		if now["pland_wal_fsyncs_total"] > before["pland_wal_fsyncs_total"] {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("first boot: the WAL flusher never synced")
		}
	}
	return nil
}

func (w *svcMixed) inputsDigest() uint64 {
	var h uint64
	for _, cs := range w.scripts {
		for _, s := range cs.sessions {
			h = core.MixFingerprint(h, core.FingerprintSizes(s.initial), uint64(len(s.batches)))
		}
		for _, op := range cs.ops {
			if op.in != nil {
				h = core.MixFingerprint(h, op.in.key())
			}
		}
	}
	return h
}

// boot spawns pland on dataDir and points the client at it.
func (w *svcMixed) boot(ctx context.Context, dataDir string, traceSample float64) error {
	w.boots++
	logPath := filepath.Join(w.env.scratch, fmt.Sprintf("pland-%d.log", w.boots))
	start := time.Now()
	proc, err := startPland(ctx, w.bin, dataDir, w.env.scratch, logPath, traceSample)
	if err != nil {
		return err
	}
	w.bootMS = ms(time.Since(start))
	w.proc, w.dataDir, w.usageAt = proc, dataDir, time.Time{}
	w.env.track(proc)
	w.client = plandclient.New(proc.base, plandclient.WithHTTPClient(&http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.clients()},
	}))
	return nil
}

func (w *svcMixed) createSession(ctx context.Context, s *sessModel) error {
	sess, err := w.client.CreateSession(ctx, plandclient.SessionCreateRequest{
		Capacity:         sessionCapacity,
		Sizes:            s.initial,
		RebuildThreshold: rebuildThreshold,
		TimeoutMS:        -1, // deterministic replans
	})
	if err != nil {
		return fmt.Errorf("creating session: %w", err)
	}
	s.sid, s.done = sess.ID, 0
	return nil
}

// patch sends batch b of the session. When the reply names a rebuild job the
// op waits for it, polling every 2 ms: the next delta then always meets the
// rebuilt schema, which makes the session's evolution deterministic and puts
// the job queue on the op's path.
func (w *svcMixed) patch(ctx context.Context, s *sessModel, b int) (string, error) {
	if b != s.done {
		return "", fmt.Errorf("session %s: batch %d out of order (done %d)", s.sid, b, s.done)
	}
	res, err := w.client.UpdateSession(ctx, s.sid, s.batches[b]...)
	if err != nil {
		return "", err
	}
	s.done++
	if res.Applied != len(s.batches[b]) {
		return res.TraceID, checkf("session %s batch %d: applied %d of %d deltas: %v",
			s.sid, b, res.Applied, len(s.batches[b]), res.Results[len(res.Results)-1].Err())
	}
	for res.RebuildJobID != "" {
		job, err := w.client.GetJob(ctx, res.RebuildJobID)
		if err != nil {
			return res.TraceID, fmt.Errorf("polling rebuild job: %w", err)
		}
		if job.Terminal() {
			if job.State != plandclient.StateSucceeded {
				return res.TraceID, checkf("rebuild job %s ended %s: %v", job.ID, job.State, job.Err())
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return res.TraceID, nil
}

// setup boots pland on a fresh copy of the prepared WAL directory — recovery
// replays and re-audits the sessions before /readyz turns 200 — then every
// client creates its fresh sessions and runs its warm-up script.
func (w *svcMixed) setup(ctx context.Context, traced bool) error {
	// Copying the prepared directory is the harness's work, not the
	// system's; it is inside the timed set-up because it is small (a few MB
	// on tmpfs) next to the boot and the warm-up.
	dataDir := filepath.Join(w.env.scratch, fmt.Sprintf("wal-%d", w.boots+1))
	if err := copyDir(w.walSeed, dataDir); err != nil {
		return err
	}
	w.traced = traced
	sample := 0.0
	if traced {
		sample = 1
	}
	if err := w.boot(ctx, dataDir, sample); err != nil {
		return err
	}
	list, err := w.client.ListSessions(ctx)
	if err != nil {
		return err
	}
	if want := recoveredPerClient * w.clients(); list.Count != want {
		return checkf("recovery brought back %d sessions, want %d; log: %s", list.Count, want, tail(w.proc.logPath))
	}
	w.traceIDs = make([][]string, w.clients())
	errs := make([]error, w.clients())
	var wg sync.WaitGroup
	for c, cs := range w.scripts {
		for _, s := range cs.sessions[:recoveredPerClient] {
			s.done = prepPatches
		}
		wg.Add(1)
		go func(c int, cs *clientScript) {
			defer wg.Done()
			for _, s := range cs.sessions[recoveredPerClient:] {
				if errs[c] = w.createSession(ctx, s); errs[c] != nil {
					return
				}
			}
			acc := newAccumulator()
			for i := 0; i < w.sh.warm; i++ {
				if _, err := w.run(ctx, c, &cs.ops[i], acc); err != nil {
					errs[c] = fmt.Errorf("warm-up op %d (%s): %w", i, opKindNames[cs.ops[i].kind], err)
					return
				}
			}
		}(c, cs)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	w.traceIDs = make([][]string, w.clients()) // keep the timed ops' only
	w.scrape0, _, err = w.proc.scrape(ctx)
	return err
}

func (w *svcMixed) teardown() {
	if w.proc == nil {
		return
	}
	w.proc.kill()
	os.RemoveAll(w.dataDir)
	w.proc = nil
}

func (w *svcMixed) op(ctx context.Context, c, i int, acc *accumulator) (time.Duration, error) {
	return w.run(ctx, c, &w.scripts[c].ops[w.sh.warm+i], acc)
}

// run sends one scripted request and checks the reply.
func (w *svcMixed) run(ctx context.Context, c int, op *svcOp, acc *accumulator) (time.Duration, error) {
	var (
		lat     time.Duration
		err     error
		traceID string
	)
	start := time.Now()
	switch op.kind {
	case opPlanHot, opPlanCold:
		req := plandclient.PlanRequest{Problem: "A2A", Capacity: op.in.q, Sizes: op.in.sizes, TimeoutMS: -1}
		if op.in.problem == core.ProblemX2Y {
			req = plandclient.PlanRequest{Problem: "X2Y", Capacity: op.in.q, XSizes: op.in.x, YSizes: op.in.y, TimeoutMS: -1}
		}
		var res *plandclient.PlanResult
		res, err = w.client.Plan(ctx, req)
		lat = time.Since(start)
		if err != nil {
			break
		}
		traceID = res.TraceID
		if err = op.in.validate(res.Schema); err != nil {
			break
		}
		acc.quality(res.ReplicationRate, res.Reducers, res.LowerBoundReducers)
		acc.kinds["http_overhead"] = append(acc.kinds["http_overhead"], lat-time.Duration(res.ElapsedMicros)*time.Microsecond)
		if op.kind == opPlanHot {
			acc.counts["plan_hot"]++
			if res.CacheHit {
				acc.counts["plan_hot_hits"]++
			}
		}
	case opExecute:
		var res *plandclient.ExecuteResult
		res, err = w.client.Execute(ctx, plandclient.ExecuteRequest{
			Problem: "A2A", Capacity: op.in.q, Inputs: op.inputs, TimeoutMS: -1})
		lat = time.Since(start)
		if err != nil {
			break
		}
		traceID = res.TraceID
		m := int64(len(op.inputs))
		switch {
		case !res.Audited:
			err = checkf("execute reply not audited")
		case res.Pairs != m*(m-1)/2:
			err = checkf("execute processed %d pairs, want %d", res.Pairs, m*(m-1)/2)
		default:
			err = op.in.validate(res.Schema)
		}
		acc.kinds["http_overhead"] = append(acc.kinds["http_overhead"], lat-time.Duration(res.ElapsedMicros)*time.Microsecond)
	case opPatch:
		traceID, err = w.patch(ctx, w.scripts[c].sessions[op.sess], op.batch)
		lat = time.Since(start)
	case opGet:
		var res *plandclient.Session
		res, err = w.client.GetSession(ctx, w.scripts[c].sessions[op.sess].sid)
		lat = time.Since(start)
		if err == nil {
			traceID = res.TraceID
			if res.Schema == nil || res.Fingerprint == "" {
				err = checkf("session view without schema or fingerprint")
			}
		}
	}
	acc.kinds[opKindNames[op.kind]] = append(acc.kinds[opKindNames[op.kind]], lat)
	if w.traced && traceID != "" {
		w.traceIDs[c] = append(w.traceIDs[c], traceID)
	}
	return lat, err
}

// replayStats is what the in-process replay of one client's script yields.
type replayStats struct {
	acc        *accumulator
	deltaLat   []time.Duration
	deltas     int64
	movedBytes int64
	rebuilds   int64
	reducers   int64 // summed over the sessions' final schemas
	fresh      int64 // the same live sets planned from scratch
}

// finish fetches every session one last time, validates its schema, and
// checks its fingerprint against an in-process replay of the same script:
// the same deltas through assign.NewSession with no HTTP, journal or job
// queue in between, rebuilding wherever the server would have scheduled one.
// Repair is scored against a from-scratch plan of the final live set.
func (w *svcMixed) finish(ctx context.Context, acc *accumulator) error {
	w.replays = make([]*replayStats, w.clients())
	errs := make([]error, w.clients())
	var wg sync.WaitGroup
	for c := range w.scripts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.replays[c], errs[c] = w.replay(ctx, c)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return w.counts(ctx, acc)
}

func (w *svcMixed) replay(ctx context.Context, c int) (*replayStats, error) {
	rs := &replayStats{acc: newAccumulator()}
	pl := assign.NewPlanner(assign.PlannerConfig{})
	for k, s := range w.scripts[c].sessions {
		view, err := w.client.GetSession(ctx, s.sid)
		if err != nil {
			return nil, fmt.Errorf("final GET of session %d: %w", k, err)
		}
		set, err := core.NewInputSet(view.Sizes)
		if err != nil {
			return nil, checkf("session %d: final sizes: %v", k, err)
		}
		if view.Schema == nil {
			return nil, checkf("session %d: final view has no schema", k)
		}
		if err := view.Schema.ValidateA2A(set); err != nil {
			return nil, checkf("session %d: final schema: %v", k, err)
		}
		sess, err := pl.NewSession(ctx, assign.Capacity(sessionCapacity), assign.A2A(s.initial),
			assign.RebuildThreshold(rebuildThreshold), assign.ManualRebuild(), assign.Deterministic())
		if err != nil {
			return nil, fmt.Errorf("replaying session %d: %w", k, err)
		}
		for _, batch := range s.batches[:s.done] {
			for _, d := range batch {
				var rep assign.DeltaReport
				start := time.Now()
				switch d.Op {
				case "add":
					_, rep, err = sess.Add(d.Size)
				case "remove":
					rep, err = sess.Remove(*d.ID)
				case "resize":
					rep, err = sess.Resize(*d.ID, d.Size)
				}
				rs.deltaLat = append(rs.deltaLat, time.Since(start))
				if err != nil {
					sess.Close()
					return nil, fmt.Errorf("replaying session %d: %s: %w", k, d.Op, err)
				}
				rs.deltas++
				rs.movedBytes += int64(rep.MovedBytes)
			}
			if sess.NeedsRebuild() {
				if _, err := sess.Rebuild(ctx); err != nil {
					sess.Close()
					return nil, fmt.Errorf("replaying session %d: rebuild: %w", k, err)
				}
				rs.rebuilds++
			}
		}
		want := fmt.Sprintf("%016x", sess.State().Fingerprint())
		stats := sess.Stats()
		sess.Close()
		if view.Fingerprint != want {
			return nil, checkf("session %d (%s): server fingerprint %s, in-process replay %s", k, s.sid, view.Fingerprint, want)
		}
		fresh, err := pl.Plan(ctx, assign.A2A(view.Sizes), assign.Capacity(sessionCapacity), assign.Deterministic())
		if err != nil {
			return nil, fmt.Errorf("fresh plan of session %d's live set: %w", k, err)
		}
		rs.reducers += int64(stats.Reducers)
		rs.fresh += int64(fresh.Cost.Reducers)
		rs.acc.quality(stats.ReplicationRate, stats.Reducers, a2a.LowerBounds(set, sessionCapacity).Reducers)
	}
	return rs, nil
}

// counts returns the exact counts of the timed phase: what the WAL appended
// (from /metrics) and what the replay saw.
func (w *svcMixed) counts(ctx context.Context, acc *accumulator) error {
	now, _, err := w.proc.scrape(ctx)
	if err != nil {
		return err
	}
	acc.counts["wal.appended_records"] = int64(now["pland_wal_appended_records_total"] - w.scrape0["pland_wal_appended_records_total"])
	acc.counts["wal.appended_bytes"] = int64(now["pland_wal_appended_bytes_total"] - w.scrape0["pland_wal_appended_bytes_total"])
	var deltas, moved int64
	for _, rs := range w.replays {
		acc.merge(rs.acc)
		acc.counts["stream.rebuilds"] += rs.rebuilds
		deltas += rs.deltas
		moved += rs.movedBytes
	}
	if deltas > 0 {
		acc.counts["stream.moved_bytes_per_delta"] = moved / deltas
	}
	return nil
}

func (w *svcMixed) layers(ctx context.Context, base, traced *phase) (map[string]float64, error) {
	m := map[string]float64{}
	for kind, name := range map[string]string{
		"plan_hot": "pland.plan_hot_p50_ms", "plan_cold": "pland.plan_cold_p50_ms", "execute": "pland.execute_p50_ms",
		"session_patch": "pland.session_patch_p50_ms", "session_get": "pland.session_get_p50_ms",
		"http_overhead": "pland.http_overhead_ms",
	} {
		m[name] = ms(medianDur(base.acc.kinds[kind]))
	}
	if n := traced.acc.counts["plan_hot"]; n > 0 {
		m["planner.cache_hit_ratio"] = float64(traced.acc.counts["plan_hot_hits"]) / float64(n)
	}
	m["pland.boot_ms"] = w.bootMS

	// Span trees of the traced pass, from the server's flight recorder.
	st := newSelfTimes()
	for _, ids := range w.traceIDs {
		for _, id := range ids {
			recs, err := w.fetchTrace(ctx, id)
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				st.add(rec)
			}
		}
	}
	if st.n == 0 {
		return nil, errors.New("the traced pass retained no traces")
	}
	m["planner.canonicalize_self_ms"] = st.perOpMS("canonicalize")
	m["planner.cache_self_ms"] = st.perOpMS("cache")
	m["planner.race_self_ms"] = st.perOpMS("race")
	m["exec.compile_ms"] = st.perOpMS("exec_compile")
	m["exec.audit_ms"] = st.perOpMS("audit")
	m["mr.map_ms"] = st.perOpMS("exec_map")
	m["obs.self_time_coverage"] = st.coverage()

	// Server-side series over the traced pass.
	now, _, err := w.proc.scrape(ctx)
	if err != nil {
		return nil, err
	}
	delta := func(series string) float64 { return now[series] - w.scrape0[series] }
	mean := func(family string) float64 {
		if n := delta(family + "_count"); n > 0 {
			return delta(family+"_sum") / n * 1e3
		}
		return 0
	}
	m["jobs.queue_wait_ms"] = mean("pland_jobs_wait_seconds")
	m["jobs.run_ms"] = mean("pland_jobs_run_seconds")
	m["wal.fsync_ms"] = mean("pland_wal_fsync_seconds")
	m["wal.fsyncs"] = delta("pland_wal_fsyncs_total")
	m["pland.recovered_sessions"] = now["pland_recovery_sessions_total"]
	var scrapes []float64
	for i := 0; i < 5; i++ {
		_, d, err := w.proc.scrape(ctx)
		if err != nil {
			return nil, err
		}
		scrapes = append(scrapes, ms(d))
	}
	m["obs.scrape_ms"] = median(scrapes)

	// The exact counts finish already folded into the traced phase's record,
	// and the stream layer alone, from the replay it ran for the fingerprints.
	for _, k := range []string{"wal.appended_records", "wal.appended_bytes", "stream.rebuilds", "stream.moved_bytes_per_delta"} {
		m[k] = float64(traced.acc.counts[k])
	}
	var lat []time.Duration
	var reducers, fresh int64
	for _, rs := range w.replays {
		lat = append(lat, rs.deltaLat...)
		reducers += rs.reducers
		fresh += rs.fresh
	}
	m["stream.delta_us"] = us(medianDur(lat))
	if fresh > 0 {
		m["stream.reducers_over_fresh"] = float64(reducers) / float64(fresh)
	}

	// The WAL alone: recovery of the prepared directory, and appends of the
	// records recovery found there (same sizes, same policy).
	if err := w.walProbes(m); err != nil {
		return nil, err
	}
	// The hot shapes through the solver layers.
	var probe []*instance
	for _, op := range w.scripts[0].ops[:w.sh.warm] {
		if op.kind == opPlanHot && len(probe) < hotShapes {
			probe = append(probe, op.in)
		}
	}
	if err := solverProbes(ctx, probe, m); err != nil {
		return nil, err
	}
	return m, nil
}

// fetchTrace pulls one trace's records from /debug/traces/{id}.
func (w *svcMixed) fetchTrace(ctx context.Context, id string) ([]obs.TraceRecord, error) {
	resp, err := w.proc.get(ctx, "/debug/traces/"+id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Records []obs.TraceRecord `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding trace %s: %w", id, err)
	}
	return body.Records, nil
}

func (w *svcMixed) walProbes(m map[string]float64) error {
	var recoverMS []float64
	var records []*wal.Record
	for i := 0; i < 5; i++ {
		dir := filepath.Join(w.env.scratch, fmt.Sprintf("wal-probe-%d", i))
		if err := copyDir(w.walSeed, dir); err != nil {
			return err
		}
		start := time.Now()
		log, err := wal.Open(dir, wal.Options{Fsync: wal.SyncInterval})
		if err != nil {
			return err
		}
		rec, err := log.Recover()
		recoverMS = append(recoverMS, ms(time.Since(start)))
		if err != nil {
			log.Close()
			return err
		}
		if i == 0 {
			for _, s := range rec.Sessions {
				for k := range s.Deltas {
					records = append(records, &wal.Record{Kind: wal.KindSessionDelta, SID: s.SID, Delta: &s.Deltas[k]})
				}
			}
			var appends []time.Duration
			for _, r := range records {
				start := time.Now()
				if err := log.Append(r); err != nil {
					log.Close()
					return err
				}
				appends = append(appends, time.Since(start))
			}
			m["wal.append_us"] = us(medianDur(appends))
		}
		if err := log.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}
	m["wal.recover_ms"] = median(recoverMS)
	return nil
}
