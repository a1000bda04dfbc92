package simjoin

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mr"
	"repro/internal/planner"
	"repro/internal/workload"
)

// Config configures a similarity-join run.
type Config struct {
	// Capacity is the reducer capacity q in bytes of document text.
	Capacity core.Size
	// Threshold is the similarity threshold t; pairs scoring >= t are
	// reported.
	Threshold float64
	// Similarity selects the similarity function (Jaccard by default).
	Similarity Similarity
	// Workers bounds reduce-phase parallelism; 0 means one worker per
	// reducer.
	Workers int
	// MemoryBudget, when positive, bounds the in-memory shuffle bytes of the
	// run: over-budget reduce partitions spill sorted run files to SpillDir
	// (the OS temp dir when empty) and merge them back at reduce time.
	// Output is unchanged; spill volume lands in Counters.
	MemoryBudget int64
	// SpillDir is where over-budget partitions spill; "" means the OS temp
	// dir.
	SpillDir string
}

// Result is the outcome of a similarity-join run.
type Result struct {
	// Pairs are the similar pairs found, sorted by document IDs.
	Pairs []Pair
	// Schema is the A2A mapping schema that drove the run.
	Schema *core.MappingSchema
	// SchemaCost prices the schema in the paper's terms (the communication
	// figure counts document bytes, excluding key overhead).
	SchemaCost core.Cost
	// Counters are the engine's measurements (shuffle bytes include the
	// reducer-key and record-framing overhead).
	Counters mr.Counters
	// Bounds are the instance's lower bounds, for reporting.
	Bounds a2a.Bounds
	// Audited reports whether the executor's conformance harness verified the
	// run (every document pair compared exactly once, loads as planned).
	Audited bool
}

// ErrNoDocuments is returned when Run is called with an empty corpus.
var ErrNoDocuments = errors.New("simjoin: no documents")

// Run executes the similarity join over the corpus on the MapReduce engine,
// using an A2A mapping schema to decide which reducers every document is
// replicated to.
func Run(docs []workload.Document, cfg Config) (*Result, error) {
	if len(docs) == 0 {
		return nil, ErrNoDocuments
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("simjoin: capacity must be positive, got %d", cfg.Capacity)
	}

	// The inputs of the A2A instance are the documents; their sizes are the
	// document sizes in bytes.
	sizes := make([]core.Size, len(docs))
	for i, d := range docs {
		sizes[i] = core.Size(d.SizeBytes())
		if sizes[i] == 0 {
			sizes[i] = 1 // empty documents still occupy a record
		}
	}
	set, err := core.NewInputSet(sizes)
	if err != nil {
		return nil, fmt.Errorf("simjoin: building the input set: %w", err)
	}
	schema, err := buildSchema(set, cfg)
	if err != nil {
		return nil, fmt.Errorf("simjoin: building the mapping schema: %w", err)
	}

	res := &Result{
		Schema:     schema,
		SchemaCost: core.SchemaCost(schema, set.TotalSize()),
		Bounds:     a2a.LowerBounds(set, cfg.Capacity),
	}

	if schema.NumReducers() == 0 {
		// A single document: nothing to compare.
		return res, nil
	}

	// The executor compiles the schema into the MapReduce job: it replicates
	// every document to its assigned reducers and invokes the comparison
	// exactly once per document pair, at the pair's owning reducer.
	records := make([][]byte, len(docs))
	for i, d := range docs {
		records[i] = encodeDocument(d)
	}
	execRes, err := exec.Run(exec.Request{
		Name:         "similarity-join",
		Schema:       schema,
		Inputs:       records,
		Pair:         comparePair(cfg),
		Workers:      cfg.Workers,
		MemoryBudget: cfg.MemoryBudget,
		SpillDir:     cfg.SpillDir,
	})
	if err != nil {
		return nil, fmt.Errorf("simjoin: running the job: %w", err)
	}
	res.Counters = execRes.Counters
	res.Audited = execRes.Audited

	for _, rec := range execRes.Output {
		p, err := decodePair(rec)
		if err != nil {
			return nil, err
		}
		res.Pairs = append(res.Pairs, p)
	}
	SortPairs(res.Pairs)
	return res, nil
}

// buildSchema computes the A2A mapping schema for the document sizes through
// the shared planner facade: the portfolio never does worse than a2a.Solve
// and isomorphic corpora hit its canonicalization cache.
func buildSchema(set *core.InputSet, cfg Config) (*core.MappingSchema, error) {
	res, err := planner.Plan(context.Background(), planner.Request{
		Problem: core.ProblemA2A, Set: set, Capacity: cfg.Capacity,
		// Await every portfolio member so results stay deterministic
		// under load.
		Budget: planner.Budget{Timeout: -1},
	})
	if err != nil {
		return nil, err
	}
	return res.Schema, nil
}

// comparePair scores one document pair and emits it when it reaches the
// threshold. Replication, routing, and once-per-pair owner election are the
// executor's job; this is pure application logic.
func comparePair(cfg Config) exec.PairFunc {
	return func(a, b exec.Record, emit func([]byte)) error {
		da, err := decodeDocument(a.Data)
		if err != nil {
			return err
		}
		db, err := decodeDocument(b.Data)
		if err != nil {
			return err
		}
		if da.ID == db.ID {
			// Two corpus positions carrying the same document ID are not a
			// pair to report.
			return nil
		}
		score := cfg.Similarity.Score(da.Terms, db.Terms)
		if score >= cfg.Threshold {
			lo, hi := da.ID, db.ID
			if lo > hi {
				lo, hi = hi, lo
			}
			emit(encodePair(Pair{I: lo, J: hi, Score: score}))
		}
		return nil
	}
}

// NestedLoopReference computes the similar pairs with a plain in-memory
// nested loop; it is the ground truth the MapReduce run is verified against.
func NestedLoopReference(docs []workload.Document, cfg Config) []Pair {
	var out []Pair
	for i := 0; i < len(docs); i++ {
		for j := i + 1; j < len(docs); j++ {
			score := cfg.Similarity.Score(docs[i].Terms, docs[j].Terms)
			if score >= cfg.Threshold {
				out = append(out, Pair{I: docs[i].ID, J: docs[j].ID, Score: score})
			}
		}
	}
	SortPairs(out)
	return out
}

// Record encoding: "id|term term term ...".

func encodeDocument(d workload.Document) []byte {
	return []byte(strconv.Itoa(d.ID) + "|" + strings.Join(d.Terms, " "))
}

func decodeDocumentHeader(rec []byte) (id int, rest string, err error) {
	s := string(rec)
	cut := strings.IndexByte(s, '|')
	if cut < 0 {
		return 0, "", fmt.Errorf("simjoin: malformed document record %q", s)
	}
	id, err = strconv.Atoi(s[:cut])
	if err != nil {
		return 0, "", fmt.Errorf("simjoin: malformed document ID in %q: %w", s, err)
	}
	return id, s[cut+1:], nil
}

func decodeDocument(rec []byte) (workload.Document, error) {
	id, rest, err := decodeDocumentHeader(rec)
	if err != nil {
		return workload.Document{}, err
	}
	var terms []string
	if rest != "" {
		terms = strings.Fields(rest)
	}
	return workload.Document{ID: id, Terms: terms}, nil
}

func encodePair(p Pair) []byte {
	return []byte(fmt.Sprintf("%d,%d,%.6f", p.I, p.J, p.Score))
}

func decodePair(rec []byte) (Pair, error) {
	parts := strings.Split(string(rec), ",")
	if len(parts) != 3 {
		return Pair{}, fmt.Errorf("simjoin: malformed pair record %q", rec)
	}
	i, err := strconv.Atoi(parts[0])
	if err != nil {
		return Pair{}, fmt.Errorf("simjoin: malformed pair record %q: %w", rec, err)
	}
	j, err := strconv.Atoi(parts[1])
	if err != nil {
		return Pair{}, fmt.Errorf("simjoin: malformed pair record %q: %w", rec, err)
	}
	score, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return Pair{}, fmt.Errorf("simjoin: malformed pair record %q: %w", rec, err)
	}
	return Pair{I: i, J: j, Score: score}, nil
}
