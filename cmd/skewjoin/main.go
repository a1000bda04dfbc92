// Command skewjoin runs the skew-join application end to end on synthetic
// relations with Zipf-distributed join keys: it detects the heavy hitters,
// builds per-heavy-hitter X2Y mapping schemas, executes the join on the
// in-memory MapReduce engine, verifies the output cardinality against the
// reference hash join, and compares the load profile against the plain
// hash-join baseline.
//
// Example:
//
//	skewjoin -tuples 20000 -keys 200 -skew 1.5 -q 32000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/report"
	"repro/internal/skewjoin"
	"repro/internal/workload"
	"repro/pkg/assign"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "skewjoin:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("skewjoin", flag.ContinueOnError)
	var (
		tuples    = fs.Int("tuples", 10000, "tuples per relation")
		keys      = fs.Int("keys", 100, "distinct join keys")
		skew      = fs.Float64("skew", 1.3, "Zipf exponent of the join-key distribution (0 = uniform)")
		payload   = fs.Int("payload", 10, "payload bytes per tuple")
		q         = fs.Int64("q", 16000, "reducer capacity in bytes of tuple data")
		block     = fs.Int64("block", 0, "block size for heavy hitters (0 = q/4)")
		seed      = fs.Int64("seed", 42, "workload seed")
		baseline  = fs.Bool("baseline", true, "also run the plain hash-join baseline for comparison")
		memBudget = fs.Int64("membudget", 0, "in-memory shuffle budget in bytes; over-budget partitions spill to disk (0 = unbounded)")
		spillDir  = fs.String("spilldir", "", "directory for spill files (default: OS temp dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	x, err := workload.GenerateRelation(workload.RelationSpec{
		Name: "X", NumTuples: *tuples, NumKeys: *keys, Skew: *skew, PayloadBytes: *payload}, *seed)
	if err != nil {
		return err
	}
	y, err := workload.GenerateRelation(workload.RelationSpec{
		Name: "Y", NumTuples: *tuples, NumKeys: *keys, Skew: *skew, PayloadBytes: *payload}, *seed+1)
	if err != nil {
		return err
	}
	cfg := skewjoin.Config{
		Capacity:     assign.Size(*q),
		BlockSize:    assign.Size(*block),
		CountOnly:    true,
		MemoryBudget: *memBudget,
		SpillDir:     *spillDir,
	}
	res, err := skewjoin.Run(x, y, cfg)
	if err != nil {
		return err
	}
	if want := skewjoin.ReferenceJoinCount(x, y); res.JoinedCount != want {
		return fmt.Errorf("verification failed: join produced %d rows, reference %d", res.JoinedCount, want)
	}

	tbl := report.NewTable(
		fmt.Sprintf("Skew join: %d tuples/side, %d keys, skew %.2f, q=%d bytes", *tuples, *keys, *skew, *q),
		"heavy_keys", "reducers", "light", "heavy", "comm_bytes", "max_load", "output_rows")
	tbl.AddRow(len(res.Plan.HeavyKeys), res.Plan.NumReducers, res.Plan.LightReducers, res.Plan.HeavyReducers,
		res.Counters.ShuffleBytes, res.Counters.MaxReducerLoad, res.JoinedCount)
	if err := tbl.WriteText(out); err != nil {
		return err
	}
	fmt.Fprintln(out, "output verified against the reference hash join: OK")

	if *baseline && res.Plan.NumReducers > 0 {
		base, err := skewjoin.HashJoinBaseline(x, y, res.Plan.NumReducers, assign.Size(*q), true)
		if err != nil {
			return err
		}
		btbl := report.NewTable("Plain hash-join baseline (same number of reducers)",
			"max_load", "violates_q", "load_ratio_vs_skew_aware")
		ratio := 0.0
		if res.Counters.MaxReducerLoad > 0 {
			ratio = float64(base.Counters.MaxReducerLoad) / float64(res.Counters.MaxReducerLoad)
		}
		btbl.AddRow(base.Counters.MaxReducerLoad, base.CapacityViolated, ratio)
		if err := btbl.WriteText(out); err != nil {
			return err
		}
	}
	return nil
}
