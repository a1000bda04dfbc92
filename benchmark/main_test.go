package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the names, units and
// directions the program reports, and to the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var workloads []string
	for _, w := range spec.Workloads {
		name(w.Name)
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads %v, program has %v", workloads, workloadNames)
	}
	var e2e, layers []metricSpec
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		name(m.Name)
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		layers = append(layers, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the program's:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the program's:\n%v\n%v", layers, perLayer)
	}
	for _, c := range exactCounts {
		if !seen[c] {
			t.Errorf("exact count %q is not a per-layer metric", c)
		}
	}
}

// smokeRun runs one workload at the smoke scale.
func smokeRun(t *testing.T, bin, workload string, seed int64, traced bool) *runRecord {
	t.Helper()
	env, err := newRunEnv(seed, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	env.bin = bin
	recs, err := runAll(context.Background(), env, []string{workload}, traced, io.Discard)
	if cerr := env.cleanup(); cerr != nil {
		t.Errorf("%s: cleanup: %v", workload, cerr)
	}
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", workload, seed, traced, err)
	}
	if rec := recs[0]; !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Fatalf("%s seed %d traced=%v: attempted %d failed %d: %s", workload, seed, traced, rec.Attempted, rec.Failed, rec.Error)
	}
	return recs[0]
}

// TestSmoke runs every workload twice on one seed and once on another, and
// once traced. The quality ratios and the exact counts repeat bit for bit on
// one seed and move with the seed; every metric is reported with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns pland and runs every workload")
	}
	bin, err := buildPland(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			a := smokeRun(t, bin, wl, 7, false)
			b := smokeRun(t, bin, wl, 7, false)
			c := smokeRun(t, bin, wl, 8, false)
			for _, m := range endToEnd {
				v, ok := a.Metrics[m.name]
				if !ok || v.Unit != m.unit || v.Value <= 0 || math.IsNaN(v.Value) {
					t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", wl, m.name, v, ok, m.unit)
				}
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Errorf("%s: %d metrics reported untraced, want the %d end-to-end ones", wl, len(a.Metrics), len(endToEnd))
			}
			for _, m := range []string{"replication_rate", "reducers_over_lb"} {
				if a.Metrics[m].Value != b.Metrics[m].Value {
					t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", wl, m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
			if !reflect.DeepEqual(a.Counts, b.Counts) || a.InputsDigest != b.InputsDigest {
				t.Errorf("%s: exact counts differ between two runs of one seed:\n%v %x\n%v %x", wl, a.Counts, a.InputsDigest, b.Counts, b.InputsDigest)
			}
			if a.InputsDigest == c.InputsDigest {
				t.Errorf("%s: seeds 7 and 8 generated the same inputs (digest %x)", wl, a.InputsDigest)
			}
			// exec_join and exec_spill execute one instance whose size
			// multiset is fixed by design; everywhere else the seed moves the
			// planned schemas.
			if wl == wlPlanCold || wl == wlSvcMixed {
				if a.Metrics["replication_rate"].Value == c.Metrics["replication_rate"].Value {
					t.Errorf("%s: replication_rate did not move with the seed", wl)
				}
			}
			tr := smokeRun(t, bin, wl, 7, true)
			for _, m := range perLayer {
				v, ok := tr.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: per-layer metric %s = %+v (present %v), want a number in %s", wl, m.name, v, ok, m.unit)
				}
			}
			if len(tr.Metrics) != len(perLayer) {
				t.Errorf("%s: %d metrics reported traced, want the %d per-layer ones", wl, len(tr.Metrics), len(perLayer))
			}
			if wl != wlSvcMixed {
				for _, k := range []string{"mr.shuffle_records", "mr.shuffle_bytes"} {
					if perOp := float64(a.Counts[k]) / float64(a.Attempted); wl != wlPlanCold && tr.Metrics[k].Value != perOp {
						t.Errorf("%s: traced %s = %v per op, untraced %v", wl, k, tr.Metrics[k].Value, perOp)
					}
				}
			}
		})
	}
}

// TestContractLine checks the last line of standard output of a real
// invocation: one JSON object with exactly the contract's keys.
func TestContractLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", wlExecSpill, "--seed", "3", "--seconds", "1", "--trace", "0", "-smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	if code := realMain([]string{"-workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds -compare synthetic sets: a steady pair, a
// regression, and a pair too noisy to call.
func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.EndToEnd {
		spec.EndToEnd[i].Bound = 0.10 // the verdicts below are about a 10% bound
	}
	set := func(opsPerS ...float64) map[string][]*runRecord {
		out := map[string][]*runRecord{}
		for _, wl := range workloadNames {
			for _, v := range opsPerS {
				rec := &runRecord{Workload: wl, Metrics: map[string]metricValue{}}
				for _, m := range endToEnd {
					rec.Metrics[m.name] = metricValue{1, m.unit}
				}
				rec.Metrics["ops_per_s"] = metricValue{v, "1/s"}
				out[wl] = append(out[wl], rec)
			}
		}
		return out
	}
	steady := set(100, 101, 99, 100.5, 99.5)
	for _, tc := range []struct {
		name   string
		b      map[string][]*runRecord
		want   string
		code   int
		absent string
	}{
		{"same", set(100.2, 99.8, 100, 101, 99), "unchanged", 0, "REGRESSED"},
		{"slower", set(80, 81, 79, 80.5, 79.5), "REGRESSED", 1, "UNRESOLVED"},
		{"noisy", set(60, 140, 100, 75, 125), "UNRESOLVED", 0, "REGRESSED"},
		{"faster", set(150, 151, 149, 150, 150), "improved", 0, "REGRESSED"},
	} {
		var out bytes.Buffer
		code := compareSets(spec, steady, tc.b, &out)
		if code != tc.code || !strings.Contains(out.String(), tc.want) || strings.Contains(out.String(), tc.absent) {
			t.Errorf("%s: exit %d, want %d with %q and without %q:\n%s", tc.name, code, tc.code, tc.want, tc.absent, out.String())
		}
	}
}

// TestSelfTimes checks the span attribution on a tree shaped like the
// program's: a stage nested in a sibling's interval, and parallel arms.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	span := func(name string, startUS, durUS int64, children ...obs.SpanSnapshot) obs.SpanSnapshot {
		return obs.SpanSnapshot{Name: name, Start: t0.Add(time.Duration(startUS) * time.Microsecond), DurationUS: durUS, Children: children}
	}
	rec := obs.TraceRecord{Start: t0, Root: span("root", 0, 100,
		span("exec_compile", 0, 10),
		span("exec_stream", 10, 60),
		span("exec_map", 10, 30), // a sibling in the tree, inside exec_stream in time
		span("solve:a", 80, 20),
		span("solve:b", 75, 15), // overlaps solve:a for 10us: two arms in parallel
	)}
	st := newSelfTimes()
	st.add(rec)
	want := map[string]time.Duration{
		"root": 5, "exec_compile": 10, "exec_stream": 30, "exec_map": 30, "solve:a": 15, "solve:b": 10,
	}
	var sum time.Duration
	for name, us := range want {
		if got := st.self[name]; got != us*time.Microsecond {
			t.Errorf("self[%s] = %v, want %dus", name, got, us)
		}
		sum += st.self[name]
	}
	if sum != 100*time.Microsecond || st.coverage() != 0.95 {
		t.Errorf("self times sum to %v of a 100us root, coverage %v", sum, st.coverage())
	}
}
