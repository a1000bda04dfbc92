// Command simjoin runs the similarity-join application end to end on a
// synthetic document corpus: every pair of documents must be compared, so
// the documents are the inputs of an A2A instance. One assign.Execute plans
// the mapping schema for the reducer capacity and runs the all-pairs
// comparison on the in-memory MapReduce engine, each pair scored once at its
// owning reducer; the answer is checked pair for pair against a nested-loop
// reference and the cost figures are printed.
//
// Example:
//
//	simjoin -docs 500 -q 6000 -threshold 0.6 -similarity cosine
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"text/tabwriter"

	"repro/internal/workload"
	"repro/pkg/assign"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simjoin:", err)
		os.Exit(1)
	}
}

// similarities are the functions -similarity selects, over term bags.
var similarities = map[string]func(a, b []string) float64{
	"jaccard": jaccard,
	"cosine":  cosine,
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
	name := strings.ToLower(*simName)
	sim, ok := similarities[name]
	if !ok {
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
	pairs, ex, err := simJoin(docs, assign.Size(*q), *threshold, sim,
		assign.MemoryBudget(*memBudget), assign.SpillDir(*spillDir))
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Similarity join: %d documents, %s >= %.2f, q=%d bytes\n", len(docs), name, *threshold, *q)
	cost := ex.Plan.Cost
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  reducers\tlb_reducers\tschema_comm\tshuffle_bytes\tmax_load\treplication\tsimilar_pairs")
	fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%d\t%.3f\t%d\n", cost.Reducers, ex.Plan.LowerBoundReducers, cost.Communication,
		ex.ShuffleBytes, ex.MaxReducerLoad, cost.ReplicationRate, len(pairs))
	if err := tw.Flush(); err != nil {
		return err
	}

	if *verify {
		if ref := nestedLoop(docs, *threshold, sim); !slices.Equal(pairs, ref) {
			return fmt.Errorf("verification failed: engine found %d pairs, the nested-loop reference %d, and they differ", len(pairs), len(ref))
		}
		fmt.Fprintln(out, "verified against the nested-loop reference: OK")
	}
	for i, p := range pairs {
		if i >= *showPairs {
			fmt.Fprintf(out, "... and %d more pairs\n", len(pairs)-*showPairs)
			break
		}
		fmt.Fprintf(out, "  doc %d ~ doc %d  similarity %.3f\n", p.i, p.j, p.score)
	}
	return nil
}

// pair is one output of the join: two document IDs (i < j) and their score.
type pair struct {
	i, j  int
	score float64
}

// simJoin compares every pair of documents through one assign.Execute over
// the documents' space-joined terms, so a document's input size is the bytes
// the engine ships, and returns the pairs scoring at least t ordered by IDs.
// Document IDs are their corpus positions, which is what workload.Documents
// gives. opts carry the run's MemoryBudget and SpillDir.
func simJoin(docs []workload.Document, q assign.Size, t float64, sim func(a, b []string) float64, opts ...assign.Option) ([]pair, *assign.Execution, error) {
	inputs := make([][]byte, len(docs))
	for i, d := range docs {
		inputs[i] = []byte(strings.Join(d.Terms, " "))
	}
	var (
		mu    sync.Mutex
		pairs []pair
	)
	ex, err := assign.Execute(context.Background(), append(opts,
		assign.Inputs(inputs),
		assign.Capacity(q),
		assign.Named("similarity-join"),
		assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
			score := sim(strings.Fields(string(a.Data)), strings.Fields(string(b.Data)))
			if score < t {
				return nil
			}
			mu.Lock()
			pairs = append(pairs, pair{a.ID, b.ID, score}) // a.ID < b.ID
			mu.Unlock()
			return nil
		}),
	)...)
	if err != nil {
		return nil, nil, err
	}
	sortPairs(pairs)
	return pairs, ex, nil
}

// nestedLoop computes the similar pairs with a plain in-memory nested loop:
// the ground truth simJoin is checked against.
func nestedLoop(docs []workload.Document, t float64, sim func(a, b []string) float64) []pair {
	var out []pair
	for i := range docs {
		for j := i + 1; j < len(docs); j++ {
			if score := sim(docs[i].Terms, docs[j].Terms); score >= t {
				out = append(out, pair{docs[i].ID, docs[j].ID, score})
			}
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(pairs []pair) {
	slices.SortFunc(pairs, func(a, b pair) int {
		if a.i != b.i {
			return a.i - b.i
		}
		return a.j - b.j
	})
}

// jaccard is |A ∩ B| / |A ∪ B| over the distinct terms of a and b; two empty
// bags score 1.
func jaccard(a, b []string) float64 {
	setA := termSet(a)
	setB := termSet(b)
	inter := 0
	for t := range setA {
		if setB[t] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func termSet(terms []string) map[string]bool {
	s := make(map[string]bool, len(terms))
	for _, t := range terms {
		s[t] = true
	}
	return s
}

// cosine is the cosine of the term-frequency vectors of a and b; two empty
// bags score 1, one empty bag 0.
func cosine(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == 0 && len(b) == 0 {
			return 1
		}
		return 0
	}
	fa, fb := termFreq(a), termFreq(b)
	var dot, na, nb float64
	for t, ca := range fa {
		dot += float64(ca) * float64(fb[t])
		na += float64(ca) * float64(ca)
	}
	for _, cb := range fb {
		nb += float64(cb) * float64(cb)
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func termFreq(terms []string) map[string]int {
	f := make(map[string]int, len(terms))
	for _, t := range terms {
		f[t]++
	}
	return f
}
