// Command benchmark is the repository's service-to-solver benchmark: four
// fixed-work workloads from the in-process solver portfolio to a pland child
// over HTTP, six end-to-end metrics per workload, and a separate traced run
// that breaks an op down by module. See README.md in this directory.
//
//	go run ./benchmark -workload plan_cold -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload svc_mixed -seed 1 -seconds 20 -trace 1
//	go run ./benchmark                      # all four, blocks interleaved
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the last line of standard output.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp labels a result with where and how it was measured: an unlabelled
// baseline misleads.
type stamp struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	ScratchDir string `json:"scratch_dir"`
	ScratchFS  string `json:"scratch_fs"`
}

// runRecord is one workload's full result: what -out appends and -compare
// reads.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Clients   int                    `json:"clients"`
	OpSize    string                 `json:"op_size"`
	TimedOps  int                    `json:"timed_ops"`
	WarmOps   int                    `json:"warm_ops"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Error     string                 `json:"error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Counts    map[string]int64       `json:"counts,omitempty"`
	KindP50MS map[string]float64     `json:"kind_p50_ms,omitempty"`
	// InputsDigest fingerprints the inputs generated from the seed.
	InputsDigest uint64    `json:"inputs_digest"`
	SetupsS      []float64 `json:"setups_s,omitempty"`
	CalibMS      float64   `json:"host_calib_ms"`
	WallS        float64   `json:"wall_s"`
	Stamp        stamp     `json:"stamp"`
}

// runEnv is what one invocation shares across its workloads.
type runEnv struct {
	seed    int64
	seconds int
	smoke   bool
	scratch string // private temp root: spill dirs, WAL dirs, the pland binary
	stamp   stamp

	bin      string
	children []*plandProc
}

// plandBinary builds pland once per invocation.
func (e *runEnv) plandBinary(ctx context.Context) (string, error) {
	if e.bin == "" {
		bin, err := buildPland(ctx, e.scratch)
		if err != nil {
			return "", err
		}
		e.bin = bin
	}
	return e.bin, nil
}

func (e *runEnv) track(p *plandProc) { e.children = append(e.children, p) }

// newRunEnv creates the private scratch root. tmpfs comes first: the WAL's
// fsyncs and the spill runs would otherwise time the host's disk, which on a
// shared box swings by an order of magnitude between runs.
func newRunEnv(seed int64, seconds int, smoke bool) (*runEnv, error) {
	e := &runEnv{seed: seed, seconds: seconds, smoke: smoke}
	var err error
	for _, root := range []string{"/dev/shm", os.TempDir(), ".bench_tmp"} {
		if root == ".bench_tmp" {
			if err = os.MkdirAll(root, 0o755); err != nil {
				break
			}
		}
		if e.scratch, err = os.MkdirTemp(root, "assign-bench-"); err == nil {
			e.stamp.ScratchFS = root + " (no writable /dev/shm)"
			if root == "/dev/shm" {
				e.stamp.ScratchFS = "tmpfs"
			}
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("creating a scratch directory: %w", err)
	}
	if e.scratch, err = filepath.Abs(e.scratch); err != nil {
		return nil, err
	}
	e.stamp.ScratchDir = e.scratch
	e.stamp.NProc = runtime.NumCPU()
	e.stamp.GoMaxProcs = runtime.GOMAXPROCS(0)
	e.stamp.GoVersion = runtime.Version()
	e.stamp.CPU = cpuModel()
	e.stamp.Commit = "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.stamp.Commit = strings.TrimSpace(string(out))
	}
	return e, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}

// cleanup kills every child still running, checks that nothing was left
// behind — no live pland, no mr-spill-* directory — and removes the scratch
// root. It runs on every exit path.
func (e *runEnv) cleanup() error {
	var errs []error
	for _, p := range e.children {
		if !p.exited() {
			p.kill()
			errs = append(errs, fmt.Errorf("pland (pid %d) was still running at exit", p.cmd.Process.Pid))
		}
	}
	_ = filepath.WalkDir(e.scratch, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), "mr-spill-") {
			errs = append(errs, fmt.Errorf("spill directory left behind: %s", path))
		}
		return nil
	})
	if err := os.RemoveAll(e.scratch); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlPlanCold:
		return &planCold{}, nil
	case wlExecJoin, wlExecSpill:
		return &execWorkload{wl: name}, nil
	case wlSvcMixed:
		return &svcMixed{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all (blocks interleaved across the four)")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Int("seconds", 20, "length of the timed phase on the reference box; scales the fixed op counts")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
		smoke   = fs.Bool("smoke", false, "shrink every op count to the minimum (seconds, for tests)")
		out     = fs.String("out", "", "append each workload's full JSON record to this file (input of -compare)")
		compare = fs.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	names := workloadNames
	if *wl != "all" {
		names = []string{*wl}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, err := newRunEnv(*seed, *seconds, *smoke)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	records, err := runAll(ctx, env, names, *trace == 1, stdout)
	if cerr := env.cleanup(); cerr != nil {
		err = errors.Join(err, cerr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecords(*out, records); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	// The last line: one JSON object. A single workload reports its metrics
	// under their own names; an all-workload run prefixes the workload.
	final := contractResult{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range records {
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		final.Correct = final.Correct && r.Correct
		for k, v := range r.Metrics {
			if len(records) > 1 {
				k = r.Workload + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, _ := json.Marshal(final)
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		for _, r := range records {
			if r.Error != "" {
				fmt.Fprintf(stderr, "benchmark: %s: %s\n", r.Workload, r.Error)
			}
		}
		return 1
	}
	return 0
}

func appendRecords(path string, records []*runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// job is one workload on its way through an invocation.
type job struct {
	w     workload
	sh    shape
	r     *runner
	rec   *runRecord
	start time.Time
}

// runAll runs the named workloads. Untraced, every workload is prepared and
// set up, then the timed slices run in blocks, round-robin across the
// workloads, so a slow half-minute of the host lands on a quarter of every
// workload instead of on all of one; the systems stay up and warm in
// between. With one workload that is simply its slices in order.
func runAll(ctx context.Context, env *runEnv, names []string, traced bool, stdout io.Writer) ([]*runRecord, error) {
	var jobs []*job
	defer func() {
		for _, j := range jobs {
			j.w.teardown() // a second teardown is a no-op
		}
	}()
	for _, name := range names {
		w, err := newWorkload(name)
		if err != nil {
			return nil, err
		}
		sh := shapeFor(name, env.seconds, w.clients(), env.smoke)
		j := &job{w: w, sh: sh, start: time.Now()}
		jobs = append(jobs, j)
		if err := w.prepare(ctx, env, sh); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", name, err)
		}
		j.rec = &runRecord{
			Workload: name, Seed: env.seed, Seconds: env.seconds, Traced: traced,
			Clients: w.clients(), OpSize: w.opSize(), TimedOps: sh.timed() * w.clients(), WarmOps: sh.warm * w.clients(),
			Metrics: map[string]metricValue{}, Stamp: env.stamp, InputsDigest: w.inputsDigest(),
		}
		if traced {
			if err := runTraced(ctx, j); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			report(stdout, j.rec)
			continue
		}
		all, err := timedSetups(ctx, w, false)
		if err != nil {
			return nil, err
		}
		j.rec.SetupsS = all
		j.rec.Metrics["setup_s"] = metricValue{median(all), "s"}
		j.r = newRunner(w, sh)
	}
	if traced {
		return records(jobs), nil
	}
	for b := 0; b < blocks; b++ {
		for _, j := range jobs {
			j.r.runSlices(ctx, (j.sh.slices+blocks-1)/blocks)
		}
	}
	for _, j := range jobs {
		ph := j.r.result()
		ferr := j.w.finish(ctx, ph.acc)
		j.w.teardown()
		fillEndToEnd(j.rec, ph, ferr)
		j.rec.WallS = time.Since(j.start).Seconds()
		report(stdout, j.rec)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return records(jobs), nil
}

func records(jobs []*job) []*runRecord {
	out := make([]*runRecord, len(jobs))
	for i, j := range jobs {
		out[i] = j.rec
	}
	return out
}

// fillEndToEnd turns a timed phase into the record's end-to-end metrics.
func fillEndToEnd(rec *runRecord, ph *phase, finishErr error) {
	rec.Attempted, rec.Failed = ph.attempted, ph.failed
	err := ph.firstErr
	if finishErr != nil {
		// A failed final check condemns the run, not one op.
		err = errors.Join(err, finishErr)
		if rec.Failed == 0 {
			rec.Failed = 1
		}
	}
	if err != nil {
		rec.Error = err.Error()
	}
	rec.Correct = rec.Failed == 0
	rec.Metrics["ops_per_s"] = metricValue{median(ph.sliceRate), "1/s"}
	rec.Metrics["p50_ms"] = metricValue{ms(percentile(ph.lat, 50)), "ms"}
	rec.Metrics["p90_ms"] = metricValue{ms(percentile(ph.lat, 90)), "ms"}
	if n := float64(ph.acc.schemas); n > 0 {
		rec.Metrics["replication_rate"] = metricValue{ph.acc.replSum / n, "ratio"}
		rec.Metrics["reducers_over_lb"] = metricValue{ph.acc.rlbSum / n, "ratio"}
	}
	rec.Counts = map[string]int64{}
	for _, k := range exactCounts {
		if v, ok := ph.acc.counts[k]; ok {
			rec.Counts[k] = v
		}
	}
	rec.KindP50MS = map[string]float64{}
	for kind, lat := range ph.acc.kinds {
		rec.KindP50MS[kind] = ms(medianDur(lat))
	}
	rec.CalibMS = median(ph.calibMS)
}

// report prints one workload's result for people.
func report(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d traced=%v clients=%d timed_ops=%d warm_ops=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Clients, rec.TimedOps, rec.WarmOps)
	fmt.Fprintf(w, "   op: %s\n", rec.OpSize)
	fmt.Fprintf(w, "   host: nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s scratch=%s host.calib_ms=%.3f\n",
		rec.Stamp.NProc, rec.Stamp.GoMaxProcs, rec.Stamp.CPU, rec.Stamp.GoVersion, rec.Stamp.Commit, rec.Stamp.ScratchFS, rec.CalibMS)
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v latency_samples=%d wall=%.1fs\n",
		rec.Attempted, rec.Failed, rec.Correct, rec.Attempted, rec.WallS)
	specs := endToEnd
	if rec.Traced {
		specs = perLayer
	}
	for _, m := range specs {
		if v, ok := rec.Metrics[m.name]; ok {
			fmt.Fprintf(w, "   %-30s %14.4f %s\n", m.name, v.Value, v.Unit)
		}
	}
	if len(rec.SetupsS) > 0 {
		fmt.Fprintf(w, "   set-ups (s): %.3f\n", rec.SetupsS)
	}
	for _, k := range exactCounts {
		if v, ok := rec.Counts[k]; ok {
			fmt.Fprintf(w, "   count %-24s %14d\n", k, v)
		}
	}
	if len(rec.KindP50MS) > 0 {
		kinds, _ := json.Marshal(rec.KindP50MS)
		fmt.Fprintf(w, "   p50 by op kind (ms): %s\n", kinds)
	}
	if rec.Error != "" {
		fmt.Fprintf(w, "   FIRST ERROR: %s\n", rec.Error)
	}
}
