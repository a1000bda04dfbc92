package main

import (
	"testing"

	"repro/internal/workload"
)

func TestParseSizes(t *testing.T) {
	sizes, err := parseSizes("3, 4,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 3 || sizes[2] != 5 {
		t.Errorf("parseSizes = %v", sizes)
	}
	if _, err := parseSizes(""); err == nil {
		t.Error("accepted empty size list")
	}
	if _, err := parseSizes("3,x"); err == nil {
		t.Error("accepted non-numeric size")
	}
}

func TestParseDistribution(t *testing.T) {
	cases := map[string]workload.Distribution{
		"constant":    workload.Constant,
		"Uniform":     workload.Uniform,
		"zipf":        workload.Zipf,
		"exponential": workload.Exponential,
		"bimodal":     workload.Bimodal,
	}
	for in, want := range cases {
		got, err := parseDistribution(in)
		if err != nil || got != want {
			t.Errorf("parseDistribution(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDistribution("normalish"); err == nil {
		t.Error("accepted unknown distribution")
	}
}

func TestA2AInputs(t *testing.T) {
	set, err := a2aInputs("1,2,3", 0, "uniform", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Errorf("explicit sizes: Len = %d", set.Len())
	}
	gen, err := a2aInputs("", 20, "zipf", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Len() != 20 {
		t.Errorf("generated: Len = %d", gen.Len())
	}
	if _, err := a2aInputs("", 0, "uniform", 10, 1); err == nil {
		t.Error("accepted neither -sizes nor -m")
	}
	if _, err := a2aInputs("", 5, "weird", 10, 1); err == nil {
		t.Error("accepted unknown distribution")
	}
}

func TestRunA2AAndX2Y(t *testing.T) {
	if err := run([]string{"-problem", "a2a", "-q", "10", "-sizes", "3,3,2,2,4,1", "-v"}); err != nil {
		t.Errorf("a2a run: %v", err)
	}
	if err := run([]string{"-problem", "x2y", "-q", "10", "-xsizes", "7,2,1", "-ysizes", "1,2,1,1", "-v"}); err != nil {
		t.Errorf("x2y run: %v", err)
	}
	if err := run([]string{"-problem", "a2a", "-q", "64", "-m", "50", "-dist", "zipf"}); err != nil {
		t.Errorf("generated a2a run: %v", err)
	}
	if err := run([]string{"-problem", "a2a", "-q", "10", "-sizes", "3,3,2", "-json"}); err != nil {
		t.Errorf("a2a json run: %v", err)
	}
	if err := run([]string{"-problem", "x2y", "-q", "10", "-xsizes", "2,1", "-ysizes", "1,2", "-json"}); err != nil {
		t.Errorf("x2y json run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-q", "0", "-sizes", "1,2"},                                    // bad capacity
		{"-problem", "nope", "-q", "5", "-sizes", "1,2"},                // bad problem
		{"-problem", "a2a", "-q", "5", "-sizes", "9,9"},                 // infeasible
		{"-problem", "a2a", "-q", "5", "-policy", "ffd", "-sizes", "1"}, // no such flag
		{"-problem", "x2y", "-q", "5", "-xsizes", "", "-ysizes", "1"},   // missing X sizes
		{"-problem", "x2y", "-q", "5", "-xsizes", "1", "-ysizes", ""},   // missing Y sizes
		{"-problem", "x2y", "-q", "5", "-xsizes", "0", "-ysizes", "1"},  // invalid X size
		{"-problem", "a2a", "-q", "5", "-sizes", "0"},                   // invalid size
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
