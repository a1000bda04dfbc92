package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

const oldRun = `
goos: linux
BenchmarkPlannerCold-8   	     324	   1872414 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     309	   1979288 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     322	   1800546 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     350	   1780445 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     332	   1769521 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     325	   1821547 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkCoverSetCount-8 	 1000000	       100.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	       101.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	        99.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	       100.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	        99.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	       100.2 ns/op	       0 B/op	       0 allocs/op
ok   repro 10s
`

const newRegressed = `
BenchmarkPlannerCold-8   	     150	   3000000 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     151	   3010000 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     149	   2990000 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     150	   3005000 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     150	   2995000 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkPlannerCold-8   	     150	   3001000 ns/op	 1708699 B/op	    6379 allocs/op
BenchmarkCoverSetCount-8 	 1000000	       100.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	       100.4 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	        99.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	        99.8 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	       100.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoverSetCount-8 	 1000000	        99.9 ns/op	       0 B/op	       0 allocs/op
`

func TestParseBench(t *testing.T) {
	samples, order, _, err := parseBench(strings.NewReader(oldRun))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "BenchmarkPlannerCold" || order[1] != "BenchmarkCoverSetCount" {
		t.Fatalf("order = %v", order)
	}
	if got := len(samples["BenchmarkPlannerCold"]); got != 6 {
		t.Fatalf("PlannerCold samples = %d, want 6", got)
	}
	s := samples["BenchmarkPlannerCold"][0]
	if s.nsPerOp != 1872414 || s.bytesPerOp != 1708699 || s.allocsPerOp != 6379 || !s.hasMem {
		t.Fatalf("sample = %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestMannWhitney(t *testing.T) {
	// Fully separated samples: clearly significant.
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{100, 101, 102, 103, 104, 105}
	if p := mannWhitneyP(a, b); p >= 0.05 {
		t.Errorf("separated samples: p = %v, want < 0.05", p)
	}
	// Identical samples: all ties, never significant.
	c := []float64{5, 5, 5, 5, 5, 5}
	if p := mannWhitneyP(c, c); p < 0.05 {
		t.Errorf("identical samples: p = %v, want >= 0.05", p)
	}
	// Too few samples: never significant.
	if p := mannWhitneyP([]float64{1, 2}, []float64{9, 10}); p != 1 {
		t.Errorf("tiny samples: p = %v, want 1", p)
	}
	// Interleaved noise: not significant.
	d := []float64{10, 12, 11, 13, 12, 11}
	e := []float64{11, 12, 10, 13, 11, 12}
	if p := mannWhitneyP(d, e); p < 0.05 {
		t.Errorf("interleaved samples: p = %v, want >= 0.05", p)
	}
}

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	f := t.TempDir() + "/bench.txt"
	if err := os.WriteFile(f, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGateFlagsSignificantRegression(t *testing.T) {
	oldPath := writeTemp(t, oldRun)
	newPath := writeTemp(t, newRegressed)
	var out strings.Builder
	regressed, err := runGate(&out, oldPath, newPath, nil, 15, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("a ~65%% slowdown must trip the gate; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("verdict table misses REGRESSED:\n%s", out.String())
	}
	// The unchanged benchmark must not be flagged.
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "CoverSetCount") && strings.Contains(line, "REGRESSED") {
			t.Errorf("stable benchmark flagged: %s", line)
		}
	}
}

func TestGatePassesOnNoise(t *testing.T) {
	oldPath := writeTemp(t, oldRun)
	newPath := writeTemp(t, oldRun) // identical runs
	var out strings.Builder
	regressed, err := runGate(&out, oldPath, newPath, nil, 15, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("identical runs tripped the gate:\n%s", out.String())
	}
}

func TestGateIgnoresBenchmarksMissingFromBase(t *testing.T) {
	oldPath := writeTemp(t, oldRun)
	newPath := writeTemp(t, oldRun+`
BenchmarkBrandNew-8 	 10	 999999 ns/op
BenchmarkBrandNew-8 	 10	 999999 ns/op
BenchmarkBrandNew-8 	 10	 999999 ns/op
`)
	var out strings.Builder
	regressed, err := runGate(&out, oldPath, newPath, nil, 15, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatal("a benchmark with no base measurement must not fail the gate")
	}
	if strings.Contains(out.String(), "BrandNew") {
		t.Errorf("new-only benchmark should be skipped:\n%s", out.String())
	}
}

func TestGatePassesWhenBasePredatesTheSuite(t *testing.T) {
	oldPath := writeTemp(t, "goos: linux\nok repro 1s\n") // base run: no bench lines
	newPath := writeTemp(t, oldRun)
	var out strings.Builder
	regressed, err := runGate(&out, oldPath, newPath, nil, 15, 0.05)
	if err != nil {
		t.Fatalf("a base with no benchmarks must not error: %v", err)
	}
	if regressed {
		t.Fatal("a base with no benchmarks must not regress")
	}
	if !strings.Contains(out.String(), "nothing to gate") {
		t.Errorf("missing skip note:\n%s", out.String())
	}
}

func TestGateFailsWhenHeadRunIsEmpty(t *testing.T) {
	oldPath := writeTemp(t, oldRun)
	newPath := writeTemp(t, "ok repro 1s\n") // head suite broke: no bench lines
	var out strings.Builder
	if _, err := runGate(&out, oldPath, newPath, nil, 15, 0.05); err == nil {
		t.Fatal("an empty head run must error (broken suite), not pass silently")
	}
}

// TestBaselineRecordsWhereItWasMeasured asserts a baseline carries the cpu:
// line and the GOMAXPROCS suffix of the run it was written from, and that a
// run mixing two machines is refused rather than averaged.
func TestBaselineRecordsWhereItWasMeasured(t *testing.T) {
	run := "goos: linux\ncpu: Intel(R) Xeon(R) Processor @ 2.10GHz\n" + strings.TrimPrefix(oldRun, "\ngoos: linux\n") +
		"pkg: repro/internal/core\ncpu: Intel(R) Xeon(R) Processor @ 2.10GHz\n"
	out := t.TempDir() + "/BENCH.json"
	if err := runBaseline(writeTemp(t, run), out, "note", nil); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var bf baselineFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || bf.GOMAXPROCS != 8 {
		t.Fatalf("baseline records cpu %q, gomaxprocs %d; want the run's cpu line and 8", bf.CPU, bf.GOMAXPROCS)
	}
	if e := bf.Benchmarks["BenchmarkPlannerCold"]; e.Samples != 6 || e.NsPerOp != 1811046.5 {
		t.Fatalf("PlannerCold entry = %+v", e)
	}

	// No suffix means GOMAXPROCS=1.
	if err := runBaseline(writeTemp(t, "BenchmarkSolo \t 10\t 5 ns/op\n"), out, "", nil); err != nil {
		t.Fatal(err)
	}
	blob, _ = os.ReadFile(out)
	bf = baselineFile{}
	if err := json.Unmarshal(blob, &bf); err != nil || bf.GOMAXPROCS != 1 || bf.CPU != "" {
		t.Fatalf("suffix-less run: gomaxprocs %d cpu %q err %v; want 1 and no cpu", bf.GOMAXPROCS, bf.CPU, err)
	}

	mixed := run + "BenchmarkPlannerCold-2 \t 10\t 5 ns/op\n"
	if err := runBaseline(writeTemp(t, mixed), out, "", nil); err == nil {
		t.Fatal("a run mixing GOMAXPROCS 8 and 2 produced a baseline")
	}
}
