package mr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A run has two phases. In the map phase one goroutine, the reader, pulls the
// source's records in order, asks the job's Route where each one goes, and
// appends a copy to the buffer of every reducer it names — spilling the
// buffer a copy lands in when the memory budget is crossed. In the reduce
// phase one worker per processor takes the reducers that received a copy one
// after another: it reads the reducer's spilled runs back, in order, then
// takes what is left in its buffer, and hands them to Reduce. One goroutine
// routes, so copies reach every buffer in index order, and no buffer is
// shared.

// The states of pipeline.srcGate: the reader moves it from idle to inNext
// around every Source.Next call, and Run closes it on the way out.
const (
	srcIdle int32 = iota
	srcInNext
	srcClosed
)

// pipeline is the state of one Run call.
type pipeline struct {
	ctx    context.Context
	cancel context.CancelFunc
	job    *Job
	src    Source
	sink   Sink
	opts   StreamOptions
	res    *Result

	srcGate atomic.Int32 // srcIdle, srcInNext or srcClosed

	// The reader owns everything below until the map phase ends; the reduce
	// phase gives each reducer goroutine its own partition.
	parts     []partition
	memUsed   int64      // copy bytes held in buffers across reducers
	spill     *spillFile // nil until the first spill
	inRecords int64

	spillRuns, spillBytes, spillPartitions int64

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

	outRecords, outBytes int64
}

// Run executes the job: records are pulled from src and routed to their
// reducers' buffers, and output records are pushed to sink as reducers
// complete. When sink is nil the output is collected per reducer into the
// Result. The context cancels the run in either phase. When Run returns, the
// spill file is removed and every goroutine it started has exited — sink is
// not written and src is not pulled again — except a reader blocked inside a
// src.Next call, which exits, without another pull, when that call returns.
func Run(ctx context.Context, job *Job, src Source, sink Sink, opts StreamOptions) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if src == nil {
		src = NewSliceSource(nil)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := &pipeline{
		ctx:    runCtx,
		cancel: cancel,
		job:    job,
		src:    src,
		sink:   sink,
		opts:   opts,
		res:    &Result{},
		parts:  make([]partition, job.NumReducers),
	}
	for r := range p.parts {
		p.parts[r].buf = make([]Record, 0, job.hint(r))
	}
	return p.run()
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

// run drives both phases to completion.
func (p *pipeline) run() (*Result, error) {
	start := time.Now()
	endMap := p.opts.stage("map")
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
	mapDone := time.Now()
	endMap()
	if p.spill != nil {
		defer p.spill.remove()
	}
	if err := p.failure(); err != nil {
		return nil, err
	}

	endReduce := p.opts.stage("reduce")
	if p.sink == nil {
		p.res.Output = make([][][]byte, len(p.parts))
	}
	p.reducePhase()
	endReduce()
	if err := p.failure(); err != nil {
		return nil, err
	}
	p.collectCounters(start, mapDone)
	return p.res, nil
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

// read pulls the source record by record and routes every record's copies.
// It checks for cancellation before every pull, so a failed run stops reading
// at once, and passes the source gate around it, so no pull starts after Run
// has returned. At the end of the input it writes out the spill file.
func (p *pipeline) read() {
	job := p.job
	for i := 0; !p.cancelled() && p.srcGate.CompareAndSwap(srcIdle, srcInNext); i++ {
		rec, err := p.src.Next()
		if !p.srcGate.CompareAndSwap(srcInNext, srcIdle) {
			return // Run is gone; nobody is left to take the record or the error
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
			p.fail(fmt.Errorf("mr: reading input record %d: %w", i, err))
			return
		}
		p.inRecords++
		for _, r := range job.Route(i) {
			if err := p.insert(r, Record{Index: i, Data: rec}); err != nil {
				p.fail(err)
				return
			}
		}
	}
}

// insert appends one copy to reducer r's buffer, enforcing the reducer
// capacity, and spills the buffer when the copy crosses the memory budget.
func (p *pipeline) insert(r int, rec Record) error {
	job := p.job
	if r < 0 || r >= len(p.parts) {
		return fmt.Errorf("mr: record %d routed to reducer %d of %d (job %q)", rec.Index, r, len(p.parts), job.Name)
	}
	pt := &p.parts[r]
	size := int64(len(rec.Data))
	pt.records++
	pt.load += size
	if job.ReducerCapacity > 0 && pt.load > job.ReducerCapacity {
		return fmt.Errorf("%w: reducer %d holds %d bytes > capacity %d (job %q)",
			ErrOverCapacity, r, pt.load, job.ReducerCapacity, job.Name)
	}
	pt.buf = append(pt.buf, rec)
	pt.memBytes += size
	p.memUsed += size
	if p.opts.MemoryBudget > 0 && p.memUsed > p.opts.MemoryBudget && pt.memBytes > 0 {
		return p.spillPartition(r)
	}
	return nil
}

// spillPartition appends reducer r's buffer to the spill file as one run and
// empties it. The first spill creates the file.
func (p *pipeline) spillPartition(r int) error {
	if p.spill == nil {
		s, err := createSpillFile(p.opts.SpillDir)
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
	if p.opts.OnSpill != nil {
		p.opts.OnSpill(r, run.bytes)
	}
	return nil
}

// reducePhase runs the reduce task of every reducer that received a copy on
// one worker per processor (GOMAXPROCS), each taking the next reducer until
// none is left or the run has failed. Reduce tasks are CPU work, so a
// goroutine per reducer would gain nothing over this; it would read every
// reducer's copies back at once, so the heap would peak at the whole shuffle
// and a run's time would depend on when the collector ran during that peak.
func (p *pipeline) reducePhase() {
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
		recs, err = p.spill.readRuns(make([]Record, 0, pt.records), pt.runs)
		if err != nil {
			return err
		}
		recs = append(recs, pt.buf...)
		if int64(len(recs)) != pt.records {
			return fmt.Errorf("mr: reading spill run: reducer %d read back %d copies, %d were routed to it", r, len(recs), pt.records)
		}
	}
	var out [][]byte
	if err := p.job.Reduce(r, recs, func(rec []byte) { out = append(out, rec) }); err != nil {
		return fmt.Errorf("mr: reduce partition %d: %w", r, err)
	}
	pt.outRecords = int64(len(out))
	for _, rec := range out {
		pt.outBytes += int64(len(rec))
	}
	if p.sink == nil {
		p.res.Output[r] = out
		return nil
	}
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	for _, rec := range out {
		if p.cancelled() {
			return nil
		}
		if err := p.sink.Write(r, rec); err != nil {
			return fmt.Errorf("mr: sink write (partition %d): %w", r, err)
		}
	}
	return nil
}

// collectCounters folds the partitions into the result counters.
func (p *pipeline) collectCounters(start, mapDone time.Time) {
	c := &p.res.Counters
	c.MapInputRecords = p.inRecords
	c.MapWall = mapDone.Sub(start)
	c.ReduceWall = time.Since(mapDone)
	c.ReducerLoads = make([]int64, len(p.parts))
	for r := range p.parts {
		pt := &p.parts[r]
		c.ReducerLoads[r] = pt.load
		c.MaxReducerLoad = max(c.MaxReducerLoad, pt.load)
		c.ShuffleRecords += pt.records
		c.ShuffleBytes += pt.load
		c.ReduceOutputRecords += pt.outRecords
		c.ReduceOutputBytes += pt.outBytes
	}
	c.SpillRuns = p.spillRuns
	c.SpillBytes = p.spillBytes
	c.SpillPartitions = p.spillPartitions
}
