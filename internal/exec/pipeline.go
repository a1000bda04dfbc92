package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Source yields the input records of a run one at a time, so a run never
// needs the whole input materialized. Next returns the next record, or
// io.EOF after the last one. A run calls Next from a single goroutine and
// starts no call after Run has returned. A call still in flight when the run
// fails or is cancelled is not waited for, and its result is dropped. Run
// copies each record a Request.Source returns, so Next may reuse its buffer.
type Source interface {
	Next() ([]byte, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() ([]byte, error)

// Next implements Source.
func (f SourceFunc) Next() ([]byte, error) { return f() }

// SliceSource streams an in-memory record slice.
type SliceSource struct {
	recs [][]byte
	i    int
}

// NewSliceSource returns a Source over the given records.
func NewSliceSource(recs [][]byte) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() ([]byte, error) {
	if s.i >= len(s.recs) {
		return nil, io.EOF
	}
	rec := s.recs[s.i]
	s.i++
	return rec, nil
}

// Counters are the engine's measurements of one run. Shuffle figures count
// the bytes of the record copies sent to reducers, and nothing else: the
// paper's communication cost, the total amount of data transmitted from the
// map phase to the reduce phase.
type Counters struct {
	// ShuffleRecords and ShuffleBytes describe the copies sent to reducers.
	// ShuffleBytes is the communication cost.
	ShuffleRecords int64
	ShuffleBytes   int64
	// SpillRuns, SpillPartitions, and SpillBytes describe spill-to-disk
	// activity of a run under a memory budget: how many runs were written,
	// how many distinct reducers spilled at least once, and the total spill
	// file bytes written. All three stay zero for unbounded runs.
	SpillRuns       int64
	SpillPartitions int64
	SpillBytes      int64
	// ReducerLoads holds the shuffle bytes received by each reducer.
	ReducerLoads []int64
	// MaxReducerLoad is the largest entry of ReducerLoads.
	MaxReducerLoad int64
	// MapWall and ReduceWall are the wall-clock durations of the phases.
	MapWall    time.Duration
	ReduceWall time.Duration
}

// LoadImbalance returns MaxReducerLoad divided by the mean reducer load; 1.0
// is perfectly balanced. It returns 0 when nothing was shuffled.
func (c *Counters) LoadImbalance() float64 {
	if len(c.ReducerLoads) == 0 || c.ShuffleBytes == 0 {
		return 0
	}
	mean := float64(c.ShuffleBytes) / float64(len(c.ReducerLoads))
	if mean == 0 {
		return 0
	}
	return float64(c.MaxReducerLoad) / mean
}

// engineJob is what the engine runs: a reducer count, a route from a
// record's index in the source stream to its reducers, and a reduce over one
// reducer's copies. Each reduce task runs once: the first that returns an
// error fails the run, which wraps that error.
type engineJob struct {
	// name labels the job in errors.
	name string
	// reducers is the number of reducers.
	reducers int
	// route returns the reducers record i of the source is copied to, one
	// copy each. It is called once per record, in index order, from one
	// goroutine; a reducer outside [0, reducers) fails the run.
	route func(i int) []int
	// reduce runs once per reducer that received at least one copy, with the
	// copies in index order, each a Record whose ID is its index in the
	// source stream, and emits the reducer's output records. Up to one reduce
	// call per processor (GOMAXPROCS) runs at a time.
	reduce func(r int, recs []Record, emit func([]byte)) error
	// capacity, when positive, fails the run if any reducer receives more
	// than this many bytes.
	capacity int64
	// hints pre-sizes each reducer's buffer: the number of copies routed to
	// it, one entry per reducer.
	hints []int
}

// errEngineOverCapacity is the engine's own capacity check, made copy by copy
// as the reader routes; the audit's ErrOverCapacity judges the schema.
var errEngineOverCapacity = errors.New("exec: reducer exceeds the engine capacity")

// The states of pipeline.srcGate: the reader moves it from idle to inNext
// around every Source.Next call, and a cancelled map phase closes it on the
// way out.
const (
	srcIdle int32 = iota
	srcInNext
	srcClosed
)

// pipeline is the state of one engine run.
type pipeline struct {
	ctx    context.Context
	cancel context.CancelFunc
	req    *Request // MemoryBudget, SpillDir and Sink
	sp     *obs.Span
	job    *engineJob
	src    Source

	srcGate atomic.Int32 // srcIdle, srcInNext or srcClosed

	// The reader owns everything below until the map phase ends; the reduce
	// phase gives each reduce call its own partition and output slot.
	parts   []partition
	outs    [][][]byte // each reducer's output, collected when req.Sink is nil
	memUsed int64      // copy bytes held in buffers across reducers
	spill   *spillFile // nil until the first spill
	pulled  int        // records pulled from the source

	spillRuns, spillBytes, spillPartitions int64

	start, mapDone time.Time

	sinkMu sync.Mutex

	errOnce sync.Once
	err     error
}

// partition is one reducer's input.
type partition struct {
	// buf holds the copies that arrived since the last spill, in arrival
	// order; memBytes is what they charge against the memory budget.
	buf      []Record
	memBytes int64
	runs     []spillRun // spilled so far, in spill order

	load    int64 // shuffle bytes received
	records int64 // copies received
}

// runJob executes job over src under req's context, memory budget, spill
// directory and sink: records are pulled from src and routed to their
// reducers' buffers, and output records go to req.Sink as reducers complete,
// or, when it is nil, into the Result's Output in reducer order. The context
// cancels the run in either phase. When runJob returns, the spill file is
// removed and every goroutine it started has exited — req.Sink is not called
// and src is not pulled again — except a reader blocked inside a src.Next
// call, which exits, without another pull, when that call returns.
func runJob(req *Request, job *engineJob, src Source) (*Result, error) {
	p := newPipeline(req, job, src)
	defer p.close()
	if err := p.mapPhase(); err != nil {
		return nil, err
	}
	if err := p.reducePhase(); err != nil {
		return nil, err
	}
	return p.result(), nil
}

// newPipeline readies a run of job over src; runJob drives its phases.
func newPipeline(req *Request, job *engineJob, src Source) *pipeline {
	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	p := &pipeline{
		ctx:    runCtx,
		cancel: cancel,
		req:    req,
		sp:     obs.SpanFrom(ctx),
		job:    job,
		src:    src,
		parts:  make([]partition, job.reducers),
	}
	for r := range p.parts {
		p.parts[r].buf = make([]Record, 0, job.hints[r])
	}
	if req.Sink == nil {
		p.outs = make([][][]byte, job.reducers)
	}
	return p
}

// close ends the run: it releases the context and removes the spill file.
// Either phase returns only once the goroutines that could touch the file are
// gone.
func (p *pipeline) close() {
	p.cancel()
	if p.spill != nil {
		p.spill.remove()
	}
}

// fail records the first error and cancels the run.
func (p *pipeline) fail(err error) {
	p.errOnce.Do(func() {
		p.err = err
		p.cancel()
	})
}

// cancelled reports, without blocking, whether the run has been cancelled or
// has failed.
func (p *pipeline) cancelled() bool {
	select {
	case <-p.ctx.Done():
		return true
	default:
		return false
	}
}

// failure returns the run's first error, or the parent context's when the
// run was cancelled from outside before any stage failed.
func (p *pipeline) failure() error {
	if !p.cancelled() {
		return nil
	}
	p.fail(p.ctx.Err()) // a no-op when a stage failed first
	return p.err
}

// mapPhase runs the reader until the input ends, the run fails, or it is
// cancelled.
func (p *pipeline) mapPhase() error {
	p.start = time.Now()
	endMap := p.sp.Stage("exec_map")
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		p.read()
	}()
	// The one thing not waited for is a Next call in flight, which may never
	// return: closing the gate stops the reader from starting another, and
	// it exits when that call does, touching nothing. A reader that is not
	// in Next is routing or spilling, and is waited for.
	select {
	case <-readerDone:
	case <-p.ctx.Done():
		if p.srcGate.Swap(srcClosed) == srcIdle {
			<-readerDone
		}
	}
	p.mapDone = time.Now()
	endMap()
	return p.failure()
}

// read pulls the source record by record and routes every record's copies.
// It checks for cancellation before every pull, so a failed run stops reading
// at once, and passes the source gate around it, so no pull starts after the
// run has returned. At the end of the input it writes out the spill file.
func (p *pipeline) read() {
	for i := 0; !p.cancelled() && p.srcGate.CompareAndSwap(srcIdle, srcInNext); i++ {
		rec, err := p.src.Next()
		if !p.srcGate.CompareAndSwap(srcInNext, srcIdle) {
			return // the run is gone; nobody is left to take the record or the error
		}
		if errors.Is(err, io.EOF) {
			if p.spill != nil {
				if err := p.spill.finish(); err != nil {
					p.fail(err)
				}
			}
			return
		}
		if err != nil {
			p.fail(fmt.Errorf("reading input record %d: %w", i, err))
			return
		}
		p.pulled++
		for _, r := range p.job.route(i) {
			if err := p.insert(r, Record{ID: i, Data: rec}); err != nil {
				p.fail(err)
				return
			}
		}
	}
}

// insert appends one copy to reducer r's buffer, enforcing the engine
// capacity, and spills the buffer when the copy crosses the memory budget.
func (p *pipeline) insert(r int, rec Record) error {
	job := p.job
	if r < 0 || r >= len(p.parts) {
		return fmt.Errorf("record %d routed to reducer %d of %d (job %q)", rec.ID, r, len(p.parts), job.name)
	}
	pt := &p.parts[r]
	size := int64(len(rec.Data))
	pt.records++
	pt.load += size
	if job.capacity > 0 && pt.load > job.capacity {
		return fmt.Errorf("%w: reducer %d holds %d bytes > capacity %d (job %q)",
			errEngineOverCapacity, r, pt.load, job.capacity, job.name)
	}
	pt.buf = append(pt.buf, rec)
	pt.memBytes += size
	p.memUsed += size
	if budget := p.req.MemoryBudget; budget > 0 && p.memUsed > budget && pt.memBytes > 0 {
		return p.spillPartition(r)
	}
	return nil
}

// spillPartition appends reducer r's buffer to the spill file as one run and
// empties it. The first spill creates the file.
func (p *pipeline) spillPartition(r int) error {
	if p.spill == nil {
		s, err := createSpillFile(p.req.SpillDir)
		if err != nil {
			return err
		}
		p.spill = s
	}
	pt := &p.parts[r]
	run, err := p.spill.appendRun(pt.buf)
	if err != nil {
		return err
	}
	if len(pt.runs) == 0 {
		p.spillPartitions++
	}
	pt.runs = append(pt.runs, run)
	// The budget is a promise about resident bytes: drop the references, not
	// just the length, so the spilled data can be collected.
	clear(pt.buf)
	pt.buf = pt.buf[:0]
	p.memUsed -= pt.memBytes
	pt.memBytes = 0
	p.spillRuns++
	p.spillBytes += run.bytes
	// A spill is an instant event in the trace, a counter in /metrics.
	p.sp.Stage("spill")()
	obsSpillRuns.Inc()
	obsSpillBytes.Add(uint64(run.bytes))
	return nil
}

// reducePhase runs the reduce task of every reducer that received a copy on
// one worker per processor (GOMAXPROCS), each taking the next reducer until
// none is left or the run has failed. Reduce tasks are CPU work, so a
// goroutine per reducer would gain nothing over this; it would read every
// reducer's copies back at once, so the heap would peak at the whole shuffle
// and a run's time would depend on when the collector ran during that peak.
func (p *pipeline) reducePhase() error {
	endReduce := p.sp.Stage("exec_reduce")
	var todo []int
	for r := range p.parts {
		if p.parts[r].records > 0 {
			todo = append(todo, r)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(len(todo), runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(todo) || p.cancelled() {
					return
				}
				if err := p.reduce(todo[k]); err != nil {
					p.fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	endReduce()
	return p.failure()
}

// reduce reads reducer r's copies back, reduces them, and delivers the
// output.
func (p *pipeline) reduce(r int) error {
	if p.cancelled() {
		return nil
	}
	pt := &p.parts[r]
	recs := pt.buf
	if len(pt.runs) > 0 {
		var err error
		recs, err = p.spill.readRuns(make([]Record, 0, pt.records), pt.runs, p.pulled)
		if err != nil {
			return err
		}
		recs = append(recs, pt.buf...)
		if int64(len(recs)) != pt.records {
			return fmt.Errorf("reading spill run: reducer %d read back %d copies, %d were routed to it", r, len(recs), pt.records)
		}
	}
	var out [][]byte
	if err := p.job.reduce(r, recs, func(rec []byte) { out = append(out, rec) }); err != nil {
		return fmt.Errorf("reduce partition %d: %w", r, err)
	}
	if p.req.Sink == nil {
		p.outs[r] = out
		return nil
	}
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	for _, rec := range out {
		if p.cancelled() {
			return nil
		}
		if err := p.req.Sink(rec); err != nil {
			return fmt.Errorf("sink write (partition %d): %w", r, err)
		}
	}
	return nil
}

// result is the run's output, reducer by reducer, and its counters.
func (p *pipeline) result() *Result {
	res := &Result{Output: slices.Concat(p.outs...)}
	c := &res.Counters
	c.MapWall = p.mapDone.Sub(p.start)
	c.ReduceWall = time.Since(p.mapDone)
	c.ReducerLoads = make([]int64, len(p.parts))
	for r := range p.parts {
		pt := &p.parts[r]
		c.ReducerLoads[r] = pt.load
		c.MaxReducerLoad = max(c.MaxReducerLoad, pt.load)
		c.ShuffleRecords += pt.records
		c.ShuffleBytes += pt.load
	}
	c.SpillRuns = p.spillRuns
	c.SpillBytes = p.spillBytes
	c.SpillPartitions = p.spillPartitions
	return res
}
