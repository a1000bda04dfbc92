// Command mrassign plans a mapping schema for a described instance of the A2A
// or X2Y mapping-schema problem through pkg/assign's solver portfolio and
// prints its reducers, cost, winning member and reducer lower bound.
//
// Examples:
//
//	mrassign -problem a2a -q 10 -sizes 3,3,2,2,4,1
//	mrassign -problem a2a -q 64 -m 500 -dist zipf -max 30
//	mrassign -problem x2y -q 10 -xsizes 7,2,1 -ysizes 1,2,1,1 -v
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/report"
	"repro/internal/workload"
	"repro/pkg/assign"
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
		verbose = fs.Bool("v", false, "print every reducer's input list")
		asJSON  = fs.Bool("json", false, "print the schema as JSON instead of a table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *q <= 0 {
		return fmt.Errorf("-q must be positive")
	}

	var instance assign.Option
	var validate func(*assign.MappingSchema) error
	switch strings.ToLower(*problem) {
	case "a2a":
		set, err := a2aInputs(*sizes, *m, *dist, assign.Size(*maxSize), *seed)
		if err != nil {
			return err
		}
		instance = assign.A2A(set.Sizes())
		validate = func(ms *assign.MappingSchema) error { return ms.ValidateA2A(set) }
	case "x2y":
		xs, err := parseSizes(*xsizes)
		if err != nil {
			return fmt.Errorf("-xsizes: %w", err)
		}
		ys, err := parseSizes(*ysizes)
		if err != nil {
			return fmt.Errorf("-ysizes: %w", err)
		}
		xSet, err := assign.NewInputSet(xs)
		if err != nil {
			return fmt.Errorf("-xsizes: %w", err)
		}
		ySet, err := assign.NewInputSet(ys)
		if err != nil {
			return fmt.Errorf("-ysizes: %w", err)
		}
		instance = assign.X2Y(xs, ys)
		validate = func(ms *assign.MappingSchema) error { return ms.ValidateX2Y(xSet, ySet) }
	default:
		return fmt.Errorf("unknown problem %q (want a2a or x2y)", *problem)
	}
	res, err := assign.Plan(context.Background(), instance, assign.Capacity(assign.Size(*q)))
	if err != nil {
		return err
	}
	if err := validate(res.Schema); err != nil {
		return fmt.Errorf("internal error: produced schema is invalid: %w", err)
	}
	if *asJSON {
		return printJSON(res.Schema)
	}
	printSchema(res, *verbose)
	return nil
}

func a2aInputs(sizesFlag string, m int, dist string, maxSize assign.Size, seed int64) (*assign.InputSet, error) {
	if sizesFlag != "" {
		sizes, err := parseSizes(sizesFlag)
		if err != nil {
			return nil, fmt.Errorf("-sizes: %w", err)
		}
		return assign.NewInputSet(sizes)
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

func parseSizes(s string) ([]assign.Size, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no sizes given")
	}
	parts := strings.Split(s, ",")
	out := make([]assign.Size, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", p, err)
		}
		out = append(out, assign.Size(n))
	}
	return out, nil
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
// assign.MappingSchema.MarshalJSON) for consumption by external drivers.
func printJSON(ms *assign.MappingSchema) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(ms)
}

func printSchema(res *assign.Result, verbose bool) {
	ms, cost := res.Schema, res.Cost
	tbl := report.NewTable("Mapping schema ("+ms.Algorithm+")",
		"problem", "q", "winner", "reducers", "lb_reducers", "communication", "replication", "max_load")
	tbl.AddRow(ms.Problem, ms.Capacity, res.Winner, cost.Reducers, res.LowerBoundReducers, cost.Communication, cost.ReplicationRate, cost.MaxLoad)
	fmt.Print(tbl.String())
	if !verbose {
		return
	}
	for i, r := range ms.Reducers {
		if ms.Problem == assign.ProblemA2A {
			fmt.Printf("reducer %d (load %d): %v\n", i, r.Load, r.Inputs)
		} else {
			fmt.Printf("reducer %d (load %d): X=%v Y=%v\n", i, r.Load, r.XInputs, r.YInputs)
		}
	}
}
