package assign

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
)

// Execution is the outcome of one Execute call: the planning result plus the
// audited run of the planned schema on the MapReduce engine.
type Execution struct {
	// Plan is the planning outcome the run was driven by.
	Plan *Result
	// Output holds every record the Pair logic emitted, in deterministic
	// partition order. It is nil when the output was streamed to Each
	// instead.
	Output [][]byte
	// PairsProcessed is how many required pairs the reducers processed; the
	// conformance audit checks it is exactly the instance's pair count, each
	// pair at its owning reducer.
	PairsProcessed int64
	// Audited reports whether the conformance harness checked the run
	// (false only under NoAudit).
	Audited bool
	// ShuffleRecords and ShuffleBytes describe the input copies sent to
	// reducers: ShuffleBytes is the total of their payload bytes and nothing
	// else — the realized communication cost, Plan.Cost.Communication.
	ShuffleRecords int64
	ShuffleBytes   int64
	// ReducerLoads holds the payload bytes received per reducer — reducer
	// r's entry is the schema's Reducers[r].Load, in the same units — and
	// MaxReducerLoad the largest entry, the realized parallelism bound,
	// never above the capacity q.
	ReducerLoads   []int64
	MaxReducerLoad int64
	// SpillRuns, SpillPartitions, and SpillBytes describe spill-to-disk
	// activity under MemoryBudget: runs written, distinct reducers that
	// spilled, and the bytes written to the run's one spill file (payloads
	// plus a record index and length per copy). All zero for unbounded
	// runs.
	SpillRuns       int64
	SpillPartitions int64
	SpillBytes      int64
	// Elapsed is the wall-clock time of the whole call (planning plus
	// execution).
	Elapsed time.Duration
}

// Execute plans the instance and runs the planned schema on the streaming
// MapReduce engine using the shared process-wide planner: every record is
// replicated to the reducers its schema assignment names, the Pair logic
// runs exactly once per required pair at the pair's owning reducer, and the
// run is audited against the schema unless NoAudit is given. The instance
// must be concrete (Inputs, XYInputs, or Source) and Capacity and Pair are
// required. Cancelling the context stops the run mid-pipeline and cleans up
// any spill files.
func Execute(ctx context.Context, opts ...Option) (*Execution, error) {
	return Default.Execute(ctx, opts...)
}

// Execute plans and runs on this planner. See the package-level Execute.
func (pl *Planner) Execute(ctx context.Context, opts ...Option) (*Execution, error) {
	start := time.Now()
	r, err := build(opts)
	if err != nil {
		return nil, err
	}
	if r.pair == nil {
		return nil, ErrNoPair
	}
	if !r.hasData && r.src == nil {
		return nil, fmt.Errorf("assign: Execute needs concrete payloads (use Inputs, XYInputs, or Source, not A2A/X2Y sizes)")
	}
	preq, err := r.plannerRequest()
	if err != nil {
		return nil, err
	}
	plan, err := pl.p.Plan(ctx, preq)
	if err != nil {
		return nil, err
	}
	name := r.name
	if name == "" {
		name = "assign-execute"
	}
	req := exec.Request{
		Ctx:          ctx,
		Name:         name,
		Schema:       plan.Schema,
		Inputs:       r.data,
		XInputs:      r.xData,
		YInputs:      r.yData,
		Pair:         r.pair,
		NoAudit:      r.noAudit,
		Sink:         r.each,
		MemoryBudget: r.memBudget,
		SpillDir:     r.spillDir,
		Compiler:     pl.compiler,
	}
	if r.src != nil {
		req.Inputs = nil
		req.Source = r.src
		req.InputSizes = make([]int, len(r.srcSizes))
		for i, s := range r.srcSizes {
			req.InputSizes[i] = int(s)
		}
	}
	res, err := exec.Run(req)
	if err != nil {
		return nil, err
	}
	return &Execution{
		Plan:            plan,
		Output:          res.Output,
		PairsProcessed:  res.PairsProcessed,
		Audited:         res.Audited,
		ShuffleRecords:  res.Counters.ShuffleRecords,
		ShuffleBytes:    res.Counters.ShuffleBytes,
		ReducerLoads:    res.Counters.ReducerLoads,
		MaxReducerLoad:  res.Counters.MaxReducerLoad,
		SpillRuns:       res.Counters.SpillRuns,
		SpillPartitions: res.Counters.SpillPartitions,
		SpillBytes:      res.Counters.SpillBytes,
		Elapsed:         time.Since(start),
	}, nil
}
