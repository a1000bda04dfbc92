package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
}

// loadSpec finds BENCHMARK.json in the working directory or above it.
func loadSpec() (*benchmarkSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec benchmarkSpec
			if err := json.Unmarshal(data, &spec); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &spec, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// readRecords reads the untraced records of an -out file, by workload.
func readRecords(path string) (map[string][]*runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Traced {
			out[rec.Workload] = append(out[rec.Workload], &rec)
		}
	}
	return out, sc.Err()
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver's acceptance rule is written in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareFiles compares two sets of runs, A (the parent) and B (the change),
// for every workload x end-to-end metric against the metric's bound. A pair
// whose within-set spread exceeds the bound cannot be called unchanged: it is
// reported unresolved, unless every run of one set beats every run of the
// other. The exit code is 1 when any pair regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err == nil {
		var a, b map[string][]*runRecord
		if a, err = readRecords(pathA); err == nil {
			if b, err = readRecords(pathB); err == nil {
				return compareSets(spec, a, b, stdout)
			}
		}
	}
	fmt.Fprintln(stderr, "benchmark -compare:", err)
	return 2
}

func compareSets(spec *benchmarkSpec, a, b map[string][]*runRecord, stdout io.Writer) int {
	values := func(recs []*runRecord, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	var regressed, unresolved, pairs int
	fmt.Fprintf(stdout, "%-11s %-17s %-6s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "worse", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a[wl.Name], m.Name), values(b[wl.Name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-11s %-17s no runs in one of the sets (A: %d, B: %d)\n", wl.Name, m.Name, len(va), len(vb))
				unresolved++
				continue
			}
			pairs++
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			// worse is how far B's median is on the wrong side of A's, as a
			// share of A's.
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			sort.Float64s(va)
			sort.Float64s(vb)
			allBetter := vb[len(vb)-1] < va[0]
			allWorse := vb[0] > va[len(va)-1]
			if m.Better == "higher" {
				allBetter, allWorse = allWorse, allBetter
			}
			verdict := "unchanged"
			switch {
			case (spreadA > m.Bound || spreadB > m.Bound) && !allBetter && !(allWorse && worse > m.Bound):
				verdict = "UNRESOLVED (spread above bound)"
				unresolved++
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(stdout, "%-11s %-17s %-6s %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %5.1f%%  %s\n",
				wl.Name, m.Name, m.Unit, am, bm, 100*worse, 100*spreadA, 100*spreadB, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "%d pairs: %d regressed, %d unresolved\n", pairs, regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
