// Command mrassign computes a mapping schema for a described instance of the
// A2A or X2Y mapping-schema problem and prints its reducers and cost.
//
// Examples:
//
//	mrassign -problem a2a -q 10 -sizes 3,3,2,2,4,1
//	mrassign -problem a2a -q 64 -m 500 -dist zipf -max 30
//	mrassign -problem x2y -q 10 -xsizes 7,2,1 -ysizes 1,2,1,1 -v
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/a2a"
	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workload"
	"repro/internal/x2y"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mrassign:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mrassign", flag.ContinueOnError)
	var (
		problem = fs.String("problem", "a2a", "problem to solve: a2a or x2y")
		q       = fs.Int64("q", 0, "reducer capacity (required)")
		sizes   = fs.String("sizes", "", "comma-separated input sizes for the A2A problem")
		xsizes  = fs.String("xsizes", "", "comma-separated X-side sizes for the X2Y problem")
		ysizes  = fs.String("ysizes", "", "comma-separated Y-side sizes for the X2Y problem")
		m       = fs.Int("m", 0, "generate this many inputs instead of -sizes")
		dist    = fs.String("dist", "uniform", "generated size distribution: constant, uniform, zipf, exponential, bimodal")
		maxSize = fs.Int64("max", 20, "maximum generated size")
		seed    = fs.Int64("seed", 42, "generator seed")
		policy  = fs.String("policy", "ffd", "bin-packing policy: ff, ffd, bfd, nf, wfd")
		verbose = fs.Bool("v", false, "print every reducer's input list")
		asJSON  = fs.Bool("json", false, "print the schema as JSON instead of a table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *q <= 0 {
		return fmt.Errorf("-q must be positive")
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	capacity := core.Size(*q)

	switch strings.ToLower(*problem) {
	case "a2a":
		set, err := a2aInputs(*sizes, *m, *dist, core.Size(*maxSize), *seed)
		if err != nil {
			return err
		}
		ms, err := a2a.SolveWithOptions(set, capacity, a2a.Options{Policy: pol})
		if err != nil {
			return err
		}
		if err := ms.ValidateA2A(set); err != nil {
			return fmt.Errorf("internal error: produced schema is invalid: %w", err)
		}
		if *asJSON {
			return printJSON(ms)
		}
		printSchema(ms, core.SchemaCost(ms, set.TotalSize()), a2a.LowerBounds(set, capacity).Reducers, *verbose)
	case "x2y":
		xs, err := parseSizes(*xsizes)
		if err != nil {
			return fmt.Errorf("-xsizes: %w", err)
		}
		ys, err := parseSizes(*ysizes)
		if err != nil {
			return fmt.Errorf("-ysizes: %w", err)
		}
		xSet, err := core.NewInputSet(xs)
		if err != nil {
			return fmt.Errorf("-xsizes: %w", err)
		}
		ySet, err := core.NewInputSet(ys)
		if err != nil {
			return fmt.Errorf("-ysizes: %w", err)
		}
		ms, err := x2y.SolveWithOptions(xSet, ySet, capacity, x2y.Options{Policy: pol})
		if err != nil {
			return err
		}
		if err := ms.ValidateX2Y(xSet, ySet); err != nil {
			return fmt.Errorf("internal error: produced schema is invalid: %w", err)
		}
		if *asJSON {
			return printJSON(ms)
		}
		printSchema(ms, core.SchemaCost(ms, xSet.TotalSize()+ySet.TotalSize()), x2y.LowerBounds(xSet, ySet, capacity).Reducers, *verbose)
	default:
		return fmt.Errorf("unknown problem %q (want a2a or x2y)", *problem)
	}
	return nil
}

func a2aInputs(sizesFlag string, m int, dist string, maxSize core.Size, seed int64) (*core.InputSet, error) {
	if sizesFlag != "" {
		sizes, err := parseSizes(sizesFlag)
		if err != nil {
			return nil, fmt.Errorf("-sizes: %w", err)
		}
		return core.NewInputSet(sizes)
	}
	if m <= 0 {
		return nil, fmt.Errorf("provide either -sizes or -m")
	}
	d, err := parseDistribution(dist)
	if err != nil {
		return nil, err
	}
	return workload.InputSet(workload.SizeSpec{Dist: d, Min: 1, Max: maxSize, Skew: 1.5}, m, seed)
}

func parseSizes(s string) ([]core.Size, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no sizes given")
	}
	parts := strings.Split(s, ",")
	out := make([]core.Size, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", p, err)
		}
		out = append(out, core.Size(n))
	}
	return out, nil
}

func parsePolicy(s string) (binpack.Policy, error) {
	switch strings.ToLower(s) {
	case "ff", "first-fit":
		return binpack.FirstFit, nil
	case "ffd", "first-fit-decreasing":
		return binpack.FirstFitDecreasing, nil
	case "bfd", "best-fit-decreasing":
		return binpack.BestFitDecreasing, nil
	case "nf", "next-fit":
		return binpack.NextFit, nil
	case "wfd", "worst-fit-decreasing":
		return binpack.WorstFitDecreasing, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

func parseDistribution(s string) (workload.Distribution, error) {
	switch strings.ToLower(s) {
	case "constant":
		return workload.Constant, nil
	case "uniform":
		return workload.Uniform, nil
	case "zipf":
		return workload.Zipf, nil
	case "exponential":
		return workload.Exponential, nil
	case "bimodal":
		return workload.Bimodal, nil
	default:
		return 0, fmt.Errorf("unknown distribution %q", s)
	}
}

// printJSON writes the schema in its JSON hand-off format (see
// core.MappingSchema.MarshalJSON) for consumption by external drivers.
func printJSON(ms *core.MappingSchema) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(ms)
}

func printSchema(ms *core.MappingSchema, cost core.Cost, lbReducers int, verbose bool) {
	tbl := report.NewTable("Mapping schema ("+ms.Algorithm+")",
		"problem", "q", "reducers", "lb_reducers", "communication", "replication", "max_load")
	tbl.AddRow(ms.Problem, ms.Capacity, cost.Reducers, lbReducers, cost.Communication, cost.ReplicationRate, cost.MaxLoad)
	fmt.Print(tbl.String())
	if !verbose {
		return
	}
	for i, r := range ms.Reducers {
		if ms.Problem == core.ProblemA2A {
			fmt.Printf("reducer %d (load %d): %v\n", i, r.Load, r.Inputs)
		} else {
			fmt.Printf("reducer %d (load %d): X=%v Y=%v\n", i, r.Load, r.XInputs, r.YInputs)
		}
	}
}
