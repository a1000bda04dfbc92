package assign

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/planner"
)

// Option configures one Plan or Execute call.
type Option func(*request)

// request accumulates the options of one call.
type request struct {
	name       string
	problem    Problem
	problemSet bool

	// Abstract instances (Plan): input sizes only.
	sizes, xSizes, ySizes []Size
	// Concrete instances (Execute, or Plan deriving sizes from payloads).
	data, xData, yData [][]byte
	hasData            bool

	capacity Size

	noCache bool

	pair    PairFunc
	noAudit bool

	// Streaming surface (see Source, Each, MemoryBudget, SpillDir).
	src       RecordSource
	srcSizes  []Size
	each      func(rec []byte) error
	memBudget int64
	spillDir  string

	// Session-only options (see session.go).
	migrationBudget  Size
	rebuildThreshold float64
	headroom         Size
	journal          SessionJournal

	errs []error
}

func (r *request) fail(err error) { r.errs = append(r.errs, err) }

func (r *request) setProblem(p Problem) {
	if r.problemSet && r.problem != p {
		r.fail(fmt.Errorf("assign: conflicting options: instance given as both %v and %v", r.problem, p))
		return
	}
	r.problem, r.problemSet = p, true
}

// A2A describes an all-to-all instance by its input sizes: every pair of
// inputs must meet at some reducer.
func A2A(sizes []Size) Option {
	return func(r *request) {
		r.setProblem(ProblemA2A)
		r.sizes = sizes
	}
}

// X2Y describes an X-to-Y instance by its two sides' input sizes: every
// cross pair of one X input and one Y input must meet at some reducer.
func X2Y(xSizes, ySizes []Size) Option {
	return func(r *request) {
		r.setProblem(ProblemX2Y)
		r.xSizes, r.ySizes = xSizes, ySizes
	}
}

// Inputs describes a concrete all-to-all instance by its payloads; input
// sizes are the payload byte lengths, so the planned capacity bound is about
// the very bytes Execute shuffles. Plan accepts it too, planning over the
// derived sizes.
func Inputs(payloads [][]byte) Option {
	return func(r *request) {
		r.setProblem(ProblemA2A)
		r.data, r.hasData = payloads, true
	}
}

// XYInputs describes a concrete X-to-Y instance by its two sides' payloads.
func XYInputs(x, y [][]byte) Option {
	return func(r *request) {
		r.setProblem(ProblemX2Y)
		r.xData, r.yData, r.hasData = x, y, true
	}
}

// Source describes a concrete all-to-all instance as a record stream plus
// its declared sizes: record i of the stream is input i and must be exactly
// sizes[i] bytes (the planner shards by declared size, so a mismatch fails
// the run). Unlike Inputs, the records are pulled through the pipeline one
// at a time and never materialized as a whole — combined with MemoryBudget
// this executes instances far larger than memory. Streaming input is
// A2A-only.
//
// The run pulls src from one goroutine and starts no pull after Execute has
// returned, so from then on the caller owns src again. What is not waited for
// is a Next call in flight when the run fails or is cancelled: Execute
// returns without it, its result is dropped, and the goroutine that made it
// exits when it returns. A Next that can block forever therefore parks that
// one goroutine behind every cancelled run; give such a source a way to be
// unblocked (a deadline, or closing what it reads from) and use it once
// Execute is back.
func Source(src RecordSource, sizes []Size) Option {
	return func(r *request) {
		r.setProblem(ProblemA2A)
		r.src, r.srcSizes = src, sizes
	}
}

// Each streams Execute's output: fn is called once per emitted record as
// reduce partitions complete, instead of materializing Execution.Output.
// Records of one partition arrive in deterministic order; partitions
// interleave. The engine serializes the calls, so fn needs no locking. An
// error from fn fails the run: Execute stops the pipeline, removes any spill
// files and returns that error.
func Each(fn func(rec []byte) error) Option {
	return func(r *request) { r.each = fn }
}

// MemoryBudget bounds the in-memory shuffle bytes of Execute's map phase.
// When a copy crosses it, the reducer buffer the copy went to is appended to
// the run's spill file and read back at reduce time; output is unchanged.
// Spill volume is reported in Execution.Spill* and the pland_exec_spill_*
// metrics. Zero (the default) means unbounded.
func MemoryBudget(bytes int64) Option {
	return func(r *request) { r.memBudget = bytes }
}

// SpillDir sets where a run that spills keeps its spill file; "" (the
// default) uses the OS temp dir. A run keeps one file, holding every spilled
// run of every reducer, in a private mr-spill-* subdirectory, removed when
// the run ends.
func SpillDir(dir string) Option {
	return func(r *request) { r.spillDir = dir }
}

// Capacity sets the reducer capacity q. It is required and must be positive.
func Capacity(q Size) Option {
	return func(r *request) { r.capacity = q }
}

// Deterministic is accepted for compatibility and changes nothing: the
// portfolio members run in order, each bounded on its own (the greedy
// baseline by its input ceiling, exact search by its input and node caps), so
// the plan for one instance is the same whatever the host load. To bound how
// long a call may take, cancel its context.
func Deterministic() Option { return func(*request) {} }

// NoCache skips the canonicalization cache for this Plan or Execute call. The
// instance is still canonicalized, so the result is identical to the cached
// path. NewSession and RestoreSession accept it and ignore it: a session's
// replans always go through the planner cache, which returns the same schema.
func NoCache() Option {
	return func(r *request) { r.noCache = true }
}

// Pair supplies Execute's per-pair user logic; Execute requires it. Records
// emitted by the logic become the execution output.
func Pair(fn PairFunc) Option {
	return func(r *request) { r.pair = fn }
}

// NoAudit skips Execute's post-run conformance audit of the trace and the
// loads; Execution.Audited reports false. The reducers check the pairs they
// process against the schema's owners either way, and a healthy run stores
// nothing per pair, so what it saves is small.
func NoAudit() Option {
	return func(r *request) { r.noAudit = true }
}

// Named labels the call in errors and engine accounting.
func Named(name string) Option {
	return func(r *request) { r.name = name }
}

// Result is the outcome of one Plan call: the winning Schema over the
// instance's original input IDs (owned by the caller), its Cost, the Winner
// that produced it, the proved LowerBoundReducers with the Gap to it (0 means
// provably optimal), how many Candidates ran and produced a schema, whether
// the plan was a CacheHit or rode a SharedFlight, and the Elapsed planning
// time. The set of Winner names is not part of the compatibility contract.
type Result = planner.Result

// ErrNoInstance is returned when a call names no instance (none of A2A,
// X2Y, Inputs, XYInputs was given).
var ErrNoInstance = errors.New("assign: no instance given (use A2A, X2Y, Inputs, or XYInputs)")

// ErrNoPair is returned by Execute when no Pair logic was given.
var ErrNoPair = errors.New("assign: Execute requires Pair logic")

// build applies the options and validates the shared (Plan ∩ Execute)
// surface.
func build(opts []Option) (*request, error) {
	r := &request{}
	for _, o := range opts {
		o(r)
	}
	if len(r.errs) > 0 {
		return nil, errors.Join(r.errs...)
	}
	if !r.problemSet {
		return nil, ErrNoInstance
	}
	if r.src != nil && r.hasData {
		return nil, errors.New("assign: Source and Inputs are mutually exclusive")
	}
	if r.capacity <= 0 {
		return nil, fmt.Errorf("assign: capacity must be positive, got %d (use Capacity)", r.capacity)
	}
	return r, nil
}

// sizesOf derives an input set from payloads.
func sizesOf(field string, payloads [][]byte) (*InputSet, error) {
	sizes := make([]Size, len(payloads))
	for i, p := range payloads {
		sizes[i] = Size(len(p))
	}
	set, err := NewInputSet(sizes)
	if err != nil {
		return nil, fmt.Errorf("assign: %s: %w", field, err)
	}
	return set, nil
}

// requestOf applies the options and translates them into the internal
// planner's request.
func requestOf(opts []Option) (planner.Request, error) {
	r, err := build(opts)
	if err != nil {
		return planner.Request{}, err
	}
	return r.plannerRequest()
}

// plannerRequest translates the accumulated options into the internal
// planner's request.
func (r *request) plannerRequest() (planner.Request, error) {
	req := planner.Request{
		Problem:  r.problem,
		Capacity: r.capacity,
		NoCache:  r.noCache,
	}
	var err error
	switch r.problem {
	case ProblemA2A:
		if r.src != nil {
			if req.Set, err = NewInputSet(r.srcSizes); err != nil {
				err = fmt.Errorf("assign: source sizes: %w", err)
			}
		} else if r.hasData {
			req.Set, err = sizesOf("inputs", r.data)
		} else if req.Set, err = NewInputSet(r.sizes); err != nil {
			err = fmt.Errorf("assign: sizes: %w", err)
		}
	case ProblemX2Y:
		if r.hasData {
			if req.X, err = sizesOf("x inputs", r.xData); err == nil {
				req.Y, err = sizesOf("y inputs", r.yData)
			}
		} else {
			if req.X, err = NewInputSet(r.xSizes); err != nil {
				err = fmt.Errorf("assign: x sizes: %w", err)
			} else if req.Y, err = NewInputSet(r.ySizes); err != nil {
				err = fmt.Errorf("assign: y sizes: %w", err)
			}
		}
	}
	if err != nil {
		return req, err
	}
	return req, nil
}

// Plan plans a mapping schema for the instance described by the options,
// using the shared process-wide planner. The instance (A2A, X2Y, Inputs, or
// XYInputs) and Capacity are required; everything else has defaults.
func Plan(ctx context.Context, opts ...Option) (*Result, error) {
	return Default.Plan(ctx, opts...)
}

// Plan plans on this planner. See the package-level Plan.
func (pl *Planner) Plan(ctx context.Context, opts ...Option) (*Result, error) {
	preq, err := requestOf(opts)
	if err != nil {
		return nil, err
	}
	return pl.p.Plan(ctx, preq)
}

// Key returns the key under which a planner caches the instance the options
// describe — the same for every reordering of the inputs and, for X2Y, for
// the two sides swapped — so that the nodes of a pland fleet agree on the one
// node that solves and holds it. It is "" when no planner caches the
// instance: NoCache is among the options, or the instance has more than
// 20,000 inputs.
func Key(opts ...Option) (string, error) {
	preq, err := requestOf(opts)
	if err != nil {
		return "", err
	}
	return planner.Key(preq)
}
