package exec

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planner"
)

// Record is one input as the PairFunc sees it: its ID within its input set
// (the A2A set, or the X or Y side) and its raw bytes.
type Record struct {
	ID   int
	Data []byte
}

// PairFunc is the user logic of a schema-driven job. It is invoked exactly
// once per required pair, at the pair's owning reducer. For A2A jobs a and b
// are two inputs of the set with a.ID < b.ID; for X2Y jobs a is the X-side
// input and b the Y-side input. Emitted records become the job output.
type PairFunc func(a, b Record, emit func([]byte)) error

// Request describes one schema-driven execution.
type Request struct {
	// Ctx, when non-nil, carries the request's obs span so compile and audit
	// stage timings land in the request trace, and cancels the run: every
	// streaming stage selects on Ctx.Done(), so a cancelled context stops the
	// engine mid-pipeline and cleans up any spill files.
	Ctx context.Context
	// Name labels the job in errors and results.
	Name string
	// Schema is the mapping schema to execute. When nil, Plan's schema is
	// used, so a planner result can be handed straight to the executor.
	Schema *core.MappingSchema
	// Plan optionally carries the planner result the schema came from.
	Plan *planner.Result
	// Inputs holds the A2A input data, indexed by input ID.
	Inputs [][]byte
	// XInputs and YInputs hold the X2Y input data per side, indexed by ID.
	XInputs, YInputs [][]byte
	// Source, when non-nil, streams the A2A input records instead of Inputs:
	// record i of the stream is input ID i, and InputSizes must declare the
	// byte size of every record (the planner's declared sizes) so routing
	// loads are known up front. A record whose actual size differs from its
	// declared size fails the run. Streaming input is A2A-only. Run copies
	// each record, so Next may reuse its buffer.
	Source Source
	// InputSizes declares the record sizes of Source, indexed by input ID.
	InputSizes []int
	// Sink, when non-nil, receives output records as reduce partitions
	// complete instead of materializing Result.Output. Records of one
	// partition arrive in deterministic order; partitions interleave. A Sink
	// error fails the run.
	Sink func(rec []byte) error
	// MemoryBudget, when positive, bounds the in-memory shuffle bytes of the
	// run's map phase; a reducer's buffer that crosses it is appended to the
	// run's spill file under SpillDir (the OS temp dir when empty) and read
	// back at reduce time. Spill volume is reported in Counters and the
	// pland_exec_spill_* metrics.
	MemoryBudget int64
	// SpillDir is where the spill file goes; "" means the OS temp dir.
	SpillDir string
	// Pair is the per-pair user logic; it is required.
	Pair PairFunc
	// Compiler, when non-nil, is asked for the schema's index and may answer
	// with the one an earlier run of the same schema left in it; nil compiles
	// the schema for this run alone.
	Compiler *Compiler
	// NoAudit skips the post-run conformance check: nothing compares the
	// run's trace and loads with the schema after the run (the schema's own
	// PreCheck always runs). What it saves is small: every reducer checks
	// the pairs it processes against its owned-pair list either way, one
	// comparison per pair as it goes, and the post-run check of a healthy
	// run reads one slice header per reducer.
	NoAudit bool
}

// Result is the outcome of one schema-driven execution.
type Result struct {
	// Output holds all records the PairFunc emitted, in deterministic
	// partition order.
	Output [][]byte
	// Counters are the engine's measurements.
	Counters Counters
	// Schema is the schema that drove the run.
	Schema *core.MappingSchema
	// PairsProcessed is how many required pairs the reducers processed.
	PairsProcessed int64
	// Audited reports whether the conformance harness checked the run.
	Audited bool
}

// Request validation errors.
var (
	ErrNoSchema   = errors.New("exec: request has no schema")
	ErrNoPairFunc = errors.New("exec: request has no pair function")
	ErrBadInputs  = errors.New("exec: request inputs do not match the schema's problem")
)

// errForeignCopies fails a run in which a reducer received copies that are
// not exactly its schema members. The engine routes every copy from the
// members, so a run reaches it only through a fault in the engine.
var errForeignCopies = errors.New("exec: reducer received copies that are not its schema members")

// schema resolves the request's schema.
func (r *Request) schema() *core.MappingSchema {
	if r.Schema != nil {
		return r.Schema
	}
	if r.Plan != nil {
		return r.Plan.Schema
	}
	return nil
}

// Run compiles the request's schema into an engine job, executes it, and —
// unless NoAudit is set — audits the run against the schema. See the package
// documentation for the compilation contract.
func Run(req Request) (*Result, error) {
	sp := obs.SpanFrom(req.Ctx)
	endCompile := sp.Stage("exec_compile")
	c, err := compile(req)
	if err != nil {
		endCompile()
		obsRunsError.Inc()
		return nil, err
	}
	if err := c.idx.preCheck(); err != nil {
		endCompile()
		obsRunsAuditFailed.Inc()
		countViolations(err)
		return nil, fmt.Errorf("exec: schema for job %q fails conformance: %w", req.Name, err)
	}
	endCompile()
	if c.schema.NumReducers() == 0 {
		// No reducers and PreCheck passed: there is no required pair, and
		// that is all an audit of this run could establish.
		obsRunsOK.Inc()
		return &Result{Schema: c.schema, Audited: !req.NoAudit}, nil
	}
	endStream := sp.Stage("exec_stream")
	obsPipelineDepth.Inc()
	res, err := runJob(&req, c.job(), &c.in)
	obsPipelineDepth.Dec()
	endStream()
	if err != nil {
		obsRunsError.Inc()
		return nil, fmt.Errorf("exec: running job %q: %w", req.Name, err)
	}
	obsSpillPartitions.Add(uint64(res.Counters.SpillPartitions))
	res.Schema = c.schema
	res.PairsProcessed = c.trace.pairs()
	obsPairs.Add(uint64(res.PairsProcessed))
	if !req.NoAudit {
		endAudit := sp.Stage("audit")
		verifyStart := time.Now()
		err := c.audit(&res.Counters)
		obsVerifySeconds.ObserveSince(verifyStart)
		endAudit()
		if err != nil {
			obsRunsAuditFailed.Inc()
			countViolations(err)
			return res, fmt.Errorf("exec: job %q failed the conformance audit: %w", req.Name, err)
		}
		res.Audited = true
	}
	obsRunsOK.Inc()
	return res, nil
}

// compilation holds everything Run derives from a request before executing.
type compilation struct {
	req    Request
	schema *core.MappingSchema
	in     sizedSource // the run's input stream
	idx    *schemaIndex
	trace  *trace
	// expectedLoads is the byte image of the schema's routing per reducer;
	// expectedCopies is the matching record count per reducer.
	expectedLoads  []int64
	expectedCopies []int
}

// compile validates the request and derives the input stream, the schema
// index (from the request's Compiler, which may have it already), the trace,
// and the routing's expected loads.
func compile(req Request) (*compilation, error) {
	schema := req.schema()
	if schema == nil {
		return nil, fmt.Errorf("%w (job %q)", ErrNoSchema, req.Name)
	}
	if req.Pair == nil {
		return nil, fmt.Errorf("%w (job %q)", ErrNoPairFunc, req.Name)
	}
	c := &compilation{req: req, schema: schema}
	var sh shape
	switch schema.Problem {
	case core.ProblemA2A:
		c.in = sizedSource{src: NewSliceSource(req.Inputs), sizes: payloadSizes(req.Inputs)}
		if req.Source != nil {
			if req.Inputs != nil {
				return nil, fmt.Errorf("%w: Source and Inputs are mutually exclusive (job %q)", ErrBadInputs, req.Name)
			}
			if len(req.InputSizes) == 0 {
				return nil, fmt.Errorf("%w: Source requires InputSizes (job %q)", ErrBadInputs, req.Name)
			}
			c.in = sizedSource{src: req.Source, sizes: req.InputSizes, clone: true}
		}
		if len(c.in.sizes) == 0 || req.XInputs != nil || req.YInputs != nil {
			return nil, fmt.Errorf("%w: A2A jobs take Inputs only (job %q)", ErrBadInputs, req.Name)
		}
		sh = shape{numA: len(c.in.sizes)}
	case core.ProblemX2Y:
		if req.Source != nil {
			return nil, fmt.Errorf("%w: streaming input (Source) supports A2A jobs only (job %q)", ErrBadInputs, req.Name)
		}
		if len(req.XInputs) == 0 || len(req.YInputs) == 0 || req.Inputs != nil {
			return nil, fmt.Errorf("%w: X2Y jobs take XInputs and YInputs (job %q)", ErrBadInputs, req.Name)
		}
		recs := slices.Concat(req.XInputs, req.YInputs)
		c.in = sizedSource{src: NewSliceSource(recs), sizes: payloadSizes(recs)}
		sh = shape{numX: len(req.XInputs), numY: len(req.YInputs)}
	default:
		return nil, fmt.Errorf("exec: unknown problem %v (job %q)", schema.Problem, req.Name)
	}
	idx, outcome, err := req.Compiler.index(schema, sh)
	if err != nil {
		return nil, err
	}
	outcome.Inc()
	c.idx = idx
	c.in.name = req.Name
	c.trace = newTrace(schema.NumReducers())
	c.computeExpectedLoads()
	return c, nil
}

// payloadSizes returns the byte size of every record.
func payloadSizes(recs [][]byte) []int {
	sizes := make([]int, len(recs))
	for i, data := range recs {
		sizes[i] = len(data)
	}
	return sizes
}

// computeExpectedLoads derives, per reducer, the exact byte load the
// schema's routing produces — the declared size of every copy sent to it,
// which is the reducer's load in the schema's own units when the declared
// sizes are the schema's — and the number of copies (the engine's buffer
// pre-sizing hints).
func (c *compilation) computeExpectedLoads() {
	n := c.schema.NumReducers()
	loads := make([]int64, n)
	copies := make([]int, n)
	for i, rs := range c.idx.routes {
		for _, r := range rs {
			loads[r] += int64(c.in.sizes[i])
			copies[r]++
		}
	}
	c.expectedLoads = loads
	c.expectedCopies = copies
}

// job assembles the engine job: routing by the schema's inverted index,
// owner-elected pair reduction, and the engine-level capacity bound derived
// from the compiled routing.
func (c *compilation) job() *engineJob {
	return &engineJob{
		name:     c.req.Name,
		reducers: c.schema.NumReducers(),
		route:    func(i int) []int { return c.idx.routes[i] },
		reduce:   c.reduce,
		capacity: slices.Max(c.expectedLoads),
		hints:    c.expectedCopies,
	}
}

// sizedSource checks every record of the run's input stream against its
// declared size. The schema (and its audit) were planned for the declared
// sizes, so a mismatch fails fast rather than executing a job whose routing
// no longer matches its inputs. A caller's Source may reuse its buffer, and
// the engine keeps records until they are reduced, so clone copies each one.
type sizedSource struct {
	src   Source
	sizes []int // of every record, in stream order
	name  string
	clone bool
	i     int
}

func (s *sizedSource) Next() ([]byte, error) {
	rec, err := s.src.Next()
	if err != nil {
		if errors.Is(err, io.EOF) && s.i != len(s.sizes) {
			return nil, fmt.Errorf("exec: source for job %q ended after %d of %d declared records", s.name, s.i, len(s.sizes))
		}
		return nil, err
	}
	if s.i >= len(s.sizes) {
		return nil, fmt.Errorf("exec: source for job %q produced more than the %d declared records", s.name, len(s.sizes))
	}
	if len(rec) != s.sizes[s.i] {
		return nil, fmt.Errorf("exec: record %d of job %q is %d bytes, declared %d", s.i, s.name, len(rec), s.sizes[s.i])
	}
	s.i++
	if s.clone {
		rec = bytes.Clone(rec)
	}
	return rec, nil
}

// reduce takes one reducer's copies, whose IDs are stream indexes — input i
// of the A2A set, or of the X side below numX — and rewrites the Y side's to
// Y input IDs (index i is Y input i-numX), then elects this reducer's owned
// pairs, checks them against its owned-pair list, and applies the user
// PairFunc.
//
// The copies must be exactly the reducer's schema members, as the engine
// routes them; any other set fails the run (errForeignCopies). Owner election
// is then one bit per pair of the reducer's class bitmap (schemaIndex.elect),
// derived from the membership rows independently of the auditor's sweep (two
// derivations, one cross-check).
//
// Each pair is compared with the next entry of the sweep's list for this
// reducer as it is processed. While they agree the call stores nothing, and
// when it succeeds it publishes the prefix of the list it matched, capped so
// no append can reach the shared list. At the first disagreement it copies
// that prefix into a log of its own and appends every pair from there on, so
// the shard is always exactly what the reducer processed, in order.
func (c *compilation) reduce(self int, copies []Record, emit func([]byte)) error {
	aRecs := sortAndDedupeRecords(copies) // A2A uses aRecs only; X2Y splits it by side
	bRecs := aRecs
	a2a := c.schema.Problem == core.ProblemA2A
	if !a2a {
		k, _ := slices.BinarySearchFunc(aRecs, c.idx.numX, func(r Record, id int) int { return cmp.Compare(r.ID, id) })
		aRecs, bRecs = aRecs[:k], aRecs[k:]
		for i := range bRecs {
			bRecs[i].ID -= c.idx.numX
		}
	}
	e := c.idx.election(self)
	if !e.holds(aRecs, bRecs) {
		return fmt.Errorf("%w: reducer %d", errForeignCopies, self)
	}
	owned, pair := c.idx.ownedBy(self), c.req.Pair
	n := 0              // while log is nil, owned[:n] is what the reducer processed
	var log []pairEntry // what it processed, once it left owned
	for i, a := range aRecs {
		j := 0
		if a2a {
			j = i + 1
		}
		owns := e.row(i)
		for ; j < len(bRecs); j++ {
			if !owns.has(j) {
				continue
			}
			b := bRecs[j]
			p := pairEntry{int32(a.ID), int32(b.ID)}
			switch {
			case log == nil && n < len(owned) && owned[n] == p:
				n++
			case log == nil:
				log = append(owned[:n:n], p) // the cap makes append copy
			default:
				log = append(log, p)
			}
			if err := pair(a, b, emit); err != nil {
				if a2a {
					return fmt.Errorf("exec: pair (%d,%d): %w", a.ID, b.ID, err)
				}
				return fmt.Errorf("exec: pair (x=%d,y=%d): %w", a.ID, b.ID, err)
			}
		}
	}
	if log == nil {
		log = owned[:n:n]
	}
	c.trace.publish(self, log)
	return nil
}

// sortAndDedupeRecords orders records by ID so pair enumeration is
// deterministic and drops duplicate copies of the same input (a corrupted
// schema can list an input twice in one reducer; the extra copy must not
// double-process pairs — duplicate processing is the audit's signal for a
// pair covered at two owners, not for a doubled assignment).
func sortAndDedupeRecords(recs []Record) []Record {
	slices.SortFunc(recs, func(x, y Record) int { return cmp.Compare(x.ID, y.ID) })
	return slices.CompactFunc(recs, func(x, y Record) bool { return x.ID == y.ID })
}
