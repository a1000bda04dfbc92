// Command skewjoin runs the skew-join application end to end on synthetic
// relations X(A,B) and Y(B,C) with Zipf-distributed join keys B. A key whose
// X and Y tuples together fit the reducer capacity q is light: one reducer
// holds it whole, so it joins in memory. A heavier key is a heavy hitter, and
// its tuples are the two sides of an X2Y instance: one assign.Execute per
// heavy key plans the mapping schema and runs every X-Y tuple pair once at
// its owning reducer, audited. The output cardinality is checked against a
// reference hash join, and the load is compared with a plain hash join,
// which sends each key whole to one reducer.
//
// Example:
//
//	skewjoin -tuples 20000 -keys 200 -skew 1.5 -q 32000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"

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
		skew      = fs.Float64("skew", 1.3, "Zipf exponent of the join-key distribution (0 = uniform, otherwise > 1)")
		payload   = fs.Int("payload", 10, "payload bytes per tuple")
		q         = fs.Int64("q", 16000, "reducer capacity in bytes of tuple data")
		seed      = fs.Int64("seed", 42, "workload seed")
		baseline  = fs.Bool("baseline", true, "also report the plain hash join's load for comparison")
		memBudget = fs.Int64("membudget", 0, "in-memory shuffle budget in bytes of each heavy key's run; over-budget partitions spill to disk (0 = unbounded)")
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
	res, err := skewJoin(x, y, assign.Size(*q), assign.MemoryBudget(*memBudget), assign.SpillDir(*spillDir))
	if err != nil {
		return err
	}
	if want := referenceCount(x, y); res.rows != want {
		return fmt.Errorf("verification failed: join produced %d rows, reference %d", res.rows, want)
	}

	fmt.Fprintf(out, "Skew join: %d tuples/side, %d keys, skew %.2f, q=%d bytes\n", *tuples, *keys, *skew, *q)
	var heavyReducers int
	var shuffled int64
	for _, h := range res.heavy {
		heavyReducers += h.ex.Plan.Cost.Reducers
		shuffled += h.ex.ShuffleBytes
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  heavy_keys\tlight_keys\theavy_reducers\tcomm_bytes\tmax_load\toutput_rows")
	fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%d\t%d\n", len(res.heavy), res.lightKeys, heavyReducers, shuffled, res.maxLoad, res.rows)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "output verified against the reference hash join: OK")

	if *baseline && res.maxLoad > 0 {
		fmt.Fprintln(out, "Plain hash-join baseline (each key whole on one reducer)")
		fmt.Fprintln(tw, "  max_load\tviolates_q\tload_ratio_vs_skew_aware")
		fmt.Fprintf(tw, "  %d\t%v\t%.3f\n", res.largestKey, res.largestKey > assign.Size(*q),
			float64(res.largestKey)/float64(res.maxLoad))
		return tw.Flush()
	}
	return nil
}

// joinResult is the outcome of skewJoin. Loads are in bytes of tuple data
// (key plus payload), the unit q is given in.
type joinResult struct {
	// rows is the join's output cardinality.
	rows int64
	// lightKeys counts the keys on both sides that fit one reducer.
	lightKeys int
	// heavy holds one audited execution per heavy key, in key order.
	heavy []heavyKey
	// maxLoad is the skew-aware join's largest reducer load: the largest
	// light key, or a heavy plan's Plan.Cost.MaxLoad.
	maxLoad assign.Size
	// largestKey is the largest key's X plus Y bytes, one-sided keys
	// included: a plain hash join ships every key whole to one reducer, so
	// its max load is at least this.
	largestKey assign.Size
}

type heavyKey struct {
	key string
	ex  *assign.Execution
}

// side is one relation's tuples of one key, each as its key and payload
// bytes.
type side struct {
	tuples [][]byte
	bytes  assign.Size
}

// skewJoin joins x and y on their keys, counting output rows. Keys found on
// one side only produce no rows and are never shipped. A light key, whose X
// and Y bytes together are at most q, joins in memory as nₓ·n_y rows. Each
// heavy key is one assign.Execute over XYInputs of its tuples, whose rows are
// the pairs the run processed (Execution.PairsProcessed, nₓ·n_y once the audit
// passes): the planner picks how each side is split across reducers. opts
// carry the heavy runs' MemoryBudget and SpillDir.
func skewJoin(x, y *workload.Relation, q assign.Size, opts ...assign.Option) (*joinResult, error) {
	if q <= 0 {
		return nil, fmt.Errorf("capacity must be positive, got %d", q)
	}
	xs, ys := groupByKey(x), groupByKey(y)
	res := &joinResult{}
	var joined []string
	for k, xk := range xs {
		res.largestKey = max(res.largestKey, xk.bytes+ys[k].bytes)
		if _, ok := ys[k]; ok {
			joined = append(joined, k)
		}
	}
	for _, yk := range ys { // Y-only keys; the rest were summed above
		res.largestKey = max(res.largestKey, yk.bytes)
	}
	slices.Sort(joined)
	for _, k := range joined {
		xk, yk := xs[k], ys[k]
		if xk.bytes+yk.bytes <= q {
			res.lightKeys++
			res.rows += int64(len(xk.tuples)) * int64(len(yk.tuples))
			res.maxLoad = max(res.maxLoad, xk.bytes+yk.bytes)
			continue
		}
		ex, err := assign.Execute(context.Background(), append(opts,
			assign.XYInputs(xk.tuples, yk.tuples),
			assign.Capacity(q),
			assign.Named("skew-join-heavy:"+k),
			assign.Pair(func(a, b assign.Record, emit func([]byte)) error { return nil }),
		)...)
		if err != nil {
			return nil, fmt.Errorf("heavy key %q: %w", k, err)
		}
		res.heavy = append(res.heavy, heavyKey{k, ex})
		res.rows += ex.PairsProcessed
		res.maxLoad = max(res.maxLoad, ex.Plan.Cost.MaxLoad)
	}
	return res, nil
}

func groupByKey(rel *workload.Relation) map[string]side {
	groups := map[string]side{}
	for _, t := range rel.Tuples {
		g := groups[t.Key]
		tuple := []byte(t.Key + t.Payload)
		g.tuples = append(g.tuples, tuple)
		g.bytes += assign.Size(len(tuple))
		groups[t.Key] = g
	}
	return groups
}

// referenceCount is the output cardinality of an in-memory hash join of x
// and y: the ground truth skewJoin is checked against.
func referenceCount(x, y *workload.Relation) int64 {
	yCounts := map[string]int64{}
	for _, t := range y.Tuples {
		yCounts[t.Key]++
	}
	var n int64
	for _, t := range x.Tuples {
		n += yCounts[t.Key]
	}
	return n
}
