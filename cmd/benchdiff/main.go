// Command benchdiff turns raw `go test -bench` output into reproducible
// baselines and CI regression verdicts.
//
// Baseline mode regenerates a BENCH_*.json file from a bench run, so the
// committed numbers are machine-written rather than hand-edited:
//
//	go test -run '^$' -bench 'CoverSet|AuditorVerify' -count=6 ./... |
//	  benchdiff -mode=baseline -note "core bitset baselines" -out BENCH_core.json
//
// Gate mode compares two bench runs (typically the PR base and head) and
// fails — exit status 1 — when any selected benchmark regressed by more than
// the threshold with statistical significance (Mann-Whitney U, α = 0.05, the
// same test benchstat uses):
//
//	benchdiff -mode=gate -old base.txt -new head.txt -threshold 15 \
//	  -match '^Benchmark(PlannerCold|PlannerCached|ExecStream|SessionDelta|CoverSet)'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		mode      = flag.String("mode", "gate", `"baseline" writes a BENCH_*.json from a bench run; "gate" compares two runs`)
		oldPath   = flag.String("old", "", "gate: bench output of the base (required)")
		newPath   = flag.String("new", "", "gate: bench output of the head (required)")
		inPath    = flag.String("in", "-", `baseline: bench output to read ("-" = stdin)`)
		outPath   = flag.String("out", "-", `baseline: JSON file to write ("-" = stdout)`)
		note      = flag.String("note", "", "baseline: free-form note stored in the JSON")
		match     = flag.String("match", "", "regexp selecting benchmark names (default: all)")
		threshold = flag.Float64("threshold", 15, "gate: %% slowdown above which a significant regression fails")
		alpha     = flag.Float64("alpha", 0.05, "gate: significance level for the Mann-Whitney test")
	)
	flag.Parse()

	var sel *regexp.Regexp
	if *match != "" {
		var err error
		if sel, err = regexp.Compile(*match); err != nil {
			fatalf("bad -match: %v", err)
		}
	}

	switch *mode {
	case "baseline":
		if err := runBaseline(*inPath, *outPath, *note, sel); err != nil {
			fatalf("baseline: %v", err)
		}
	case "gate":
		if *oldPath == "" || *newPath == "" {
			fatalf("gate mode needs -old and -new")
		}
		regressed, err := runGate(os.Stdout, *oldPath, *newPath, sel, *threshold, *alpha)
		if err != nil {
			fatalf("gate: %v", err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		fatalf("unknown -mode %q", *mode)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

// sample is one benchmark measurement line.
type sample struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	hasMem      bool
}

// benchLine matches `BenchmarkName-8   123   456 ns/op [789 B/op 12 allocs/op]`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+(.*)$`)

// benchHost is where a bench run was measured, as the output itself states
// it: the distinct values of its "cpu:" lines and of the -N GOMAXPROCS suffix
// of its benchmark names (go test omits the suffix when GOMAXPROCS is 1).
type benchHost struct {
	cpus  []string
	procs []int
}

// parseBench collects per-benchmark samples from `go test -bench` output.
// The trailing -N GOMAXPROCS suffix is stripped so names are stable across
// machines; it is reported in the benchHost instead.
func parseBench(r io.Reader) (map[string][]sample, []string, benchHost, error) {
	samples := make(map[string][]sample)
	var order []string
	var host benchHost
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if cpu, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			if !slices.Contains(host.cpus, cpu) {
				host.cpus = append(host.cpus, cpu)
			}
			continue
		}
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name, rest := m[1], m[3]
		var s sample
		ok := false
		fields := strings.Fields(rest)
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp, ok = v, true
			case "B/op":
				s.bytesPerOp, s.hasMem = v, true
			case "allocs/op":
				s.allocsPerOp, s.hasMem = v, true
			}
		}
		if !ok {
			continue
		}
		procs := 1
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2]) // the pattern admits digits only
		}
		if !slices.Contains(host.procs, procs) {
			host.procs = append(host.procs, procs)
		}
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	return samples, order, host, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func nsSamples(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.nsPerOp
	}
	return out
}

// mannWhitneyP returns the two-sided p-value of the Mann-Whitney U test under
// the normal approximation with tie correction — adequate at the -count=6
// sample sizes the CI gate runs, and the same family of test benchstat
// applies. Small samples (< 3 per side) return 1 (never significant).
func mannWhitneyP(a, b []float64) float64 {
	n1, n2 := float64(len(a)), float64(len(b))
	if len(a) < 3 || len(b) < 3 {
		return 1
	}
	type rv struct {
		v    float64
		side int
	}
	all := make([]rv, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, rv{v, 0})
	}
	for _, v := range b {
		all = append(all, rv{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Assign midranks, accumulating the tie-correction term.
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	var r1 float64
	for i, x := range all {
		if x.side == 0 {
			r1 += ranks[i]
		}
	}
	u1 := r1 - n1*(n1+1)/2
	mu := n1 * n2 / 2
	n := n1 + n2
	sigma2 := n1 * n2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		return 1 // all values tied: no evidence of a shift
	}
	z := math.Abs(u1-mu) / math.Sqrt(sigma2)
	// Two-sided p from the normal tail.
	return math.Erfc(z / math.Sqrt2)
}

// baselineFile is the schema of the committed BENCH_*.json baselines.
type baselineFile struct {
	Recorded string `json:"recorded"`
	Go       string `json:"go"`
	// CPU and GOMAXPROCS say where the numbers were measured: the bench
	// output's "cpu:" line and the -N suffix its benchmark names carried.
	// Without them a baseline from a bigger machine reads as a regression.
	CPU        string                   `json:"cpu,omitempty"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Note       string                   `json:"note,omitempty"`
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	NsPerOp     float64  `json:"ns_per_op"`
	Samples     int      `json:"samples"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

func runBaseline(inPath, outPath, note string, sel *regexp.Regexp) error {
	in := os.Stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	samples, order, host, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(host.cpus) > 1 || len(host.procs) > 1 {
		return fmt.Errorf("the bench output mixes machines (cpu %q, GOMAXPROCS %v); a baseline records one", host.cpus, host.procs)
	}
	bf := baselineFile{
		Recorded:   time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		Note:       note,
		Benchmarks: make(map[string]baselineEntry),
	}
	if len(host.cpus) == 1 {
		bf.CPU = host.cpus[0]
	}
	if len(host.procs) == 1 {
		bf.GOMAXPROCS = host.procs[0]
	}
	for _, name := range order {
		if sel != nil && !sel.MatchString(name) {
			continue
		}
		ss := samples[name]
		e := baselineEntry{NsPerOp: median(nsSamples(ss)), Samples: len(ss)}
		if ss[0].hasMem {
			bp := median(mapSamples(ss, func(s sample) float64 { return s.bytesPerOp }))
			ap := median(mapSamples(ss, func(s sample) float64 { return s.allocsPerOp }))
			e.BytesPerOp, e.AllocsPerOp = &bp, &ap
		}
		bf.Benchmarks[name] = e
	}
	if len(bf.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines matched")
	}
	blob, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(outPath, blob, 0o644)
}

func mapSamples(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// verdict is one benchmark's gate outcome.
type verdict struct {
	name             string
	oldNs, newNs     float64
	deltaPct, p      float64
	regressed, noted bool
}

func runGate(w io.Writer, oldPath, newPath string, sel *regexp.Regexp, threshold, alpha float64) (bool, error) {
	parse := func(path string) (map[string][]sample, []string, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		samples, order, _, err := parseBench(f)
		return samples, order, err
	}
	oldS, _, err := parse(oldPath)
	if err != nil {
		return false, err
	}
	newS, order, err := parse(newPath)
	if err != nil {
		return false, err
	}

	var verdicts []verdict
	anyRegressed := false
	matchedNew := 0
	for _, name := range order {
		if sel != nil && !sel.MatchString(name) {
			continue
		}
		matchedNew++
		os_, ok := oldS[name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		a, b := nsSamples(os_), nsSamples(newS[name])
		v := verdict{
			name:  name,
			oldNs: median(a),
			newNs: median(b),
			p:     mannWhitneyP(a, b),
		}
		v.deltaPct = (v.newNs - v.oldNs) / v.oldNs * 100
		v.noted = v.p < alpha
		v.regressed = v.noted && v.deltaPct > threshold
		anyRegressed = anyRegressed || v.regressed
		verdicts = append(verdicts, v)
	}
	if matchedNew == 0 {
		// An empty head run means the suite itself broke — that must fail.
		return false, fmt.Errorf("the new run has no matching benchmarks")
	}
	if len(verdicts) == 0 {
		// Every head benchmark is absent from the base (e.g. the base commit
		// predates the suite): nothing to regress against, the gate passes.
		fmt.Fprintf(w, "no benchmarks common to both runs (%d new-only); nothing to gate\n", matchedNew)
		return false, nil
	}

	fmt.Fprintf(w, "%-60s %14s %14s %8s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "p", "verdict")
	for _, v := range verdicts {
		status := "ok"
		switch {
		case v.regressed:
			status = fmt.Sprintf("REGRESSED (>%.0f%%)", threshold)
		case v.noted && v.deltaPct < 0:
			status = "improved"
		case !v.noted:
			status = "~ (not significant)"
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %+7.1f%% %8.3f  %s\n", v.name, v.oldNs, v.newNs, v.deltaPct, v.p, status)
	}
	return anyRegressed, nil
}
