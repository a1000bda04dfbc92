// Command simjoin runs the similarity-join application end to end on a
// synthetic document corpus: it builds the A2A mapping schema for the chosen
// reducer capacity, executes the all-pairs comparison on the in-memory
// MapReduce engine, verifies the answer against the nested-loop reference,
// and prints the cost figures.
//
// Example:
//
//	simjoin -docs 500 -q 6000 -threshold 0.6 -similarity cosine
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/report"
	"repro/internal/simjoin"
	"repro/internal/workload"
	"repro/pkg/assign"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simjoin:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simjoin", flag.ContinueOnError)
	var (
		numDocs   = fs.Int("docs", 300, "number of synthetic documents")
		vocab     = fs.Int("vocab", 300, "vocabulary size")
		minTerms  = fs.Int("minterms", 5, "minimum terms per document")
		maxTerms  = fs.Int("maxterms", 25, "maximum terms per document")
		termSkew  = fs.Float64("termskew", 1.2, "Zipf exponent of term popularity")
		q         = fs.Int64("q", 4000, "reducer capacity in bytes of document text")
		threshold = fs.Float64("threshold", 0.5, "similarity threshold t")
		simName   = fs.String("similarity", "jaccard", "similarity function: jaccard or cosine")
		seed      = fs.Int64("seed", 42, "workload seed")
		verify    = fs.Bool("verify", true, "check the result against the nested-loop reference")
		showPairs = fs.Int("show", 5, "print up to this many similar pairs")
		memBudget = fs.Int64("membudget", 0, "in-memory shuffle budget in bytes; over-budget partitions spill to disk (0 = unbounded)")
		spillDir  = fs.String("spilldir", "", "directory for spill files (default: OS temp dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sim simjoin.Similarity
	switch strings.ToLower(*simName) {
	case "jaccard":
		sim = simjoin.Jaccard
	case "cosine":
		sim = simjoin.Cosine
	default:
		return fmt.Errorf("unknown similarity %q (want jaccard or cosine)", *simName)
	}

	docs, err := workload.Documents(workload.CorpusSpec{
		NumDocs:        *numDocs,
		VocabularySize: *vocab,
		MinTerms:       *minTerms,
		MaxTerms:       *maxTerms,
		TermSkew:       *termSkew,
	}, *seed)
	if err != nil {
		return err
	}
	cfg := simjoin.Config{
		Capacity:     assign.Size(*q),
		Threshold:    *threshold,
		Similarity:   sim,
		MemoryBudget: *memBudget,
		SpillDir:     *spillDir,
	}
	res, err := simjoin.Run(docs, cfg)
	if err != nil {
		return err
	}

	tbl := report.NewTable(fmt.Sprintf("Similarity join: %d documents, %s >= %.2f, q=%d bytes", len(docs), sim, *threshold, *q),
		"reducers", "lb_reducers", "schema_comm", "shuffle_bytes", "max_load", "replication", "similar_pairs")
	tbl.AddRow(res.SchemaCost.Reducers, res.Bounds.Reducers, res.SchemaCost.Communication,
		res.Counters.ShuffleBytes, res.Counters.MaxReducerLoad, res.SchemaCost.ReplicationRate, len(res.Pairs))
	if err := tbl.WriteText(out); err != nil {
		return err
	}

	if *verify {
		ref := simjoin.NestedLoopReference(docs, cfg)
		if len(ref) != len(res.Pairs) {
			return fmt.Errorf("verification failed: engine found %d pairs, reference %d", len(res.Pairs), len(ref))
		}
		fmt.Fprintln(out, "verified against the nested-loop reference: OK")
	}
	for i, p := range res.Pairs {
		if i >= *showPairs {
			fmt.Fprintf(out, "... and %d more pairs\n", len(res.Pairs)-*showPairs)
			break
		}
		fmt.Fprintf(out, "  doc %d ~ doc %d  similarity %.3f\n", p.I, p.J, p.Score)
	}
	return nil
}
