package mr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The streaming pipeline: a reader goroutine pulls records from the Source
// and hands them, a chunk at a time, to the map workers through a bounded
// channel; the workers apply the mapper and collect each emitted pair in a
// chunk for its partition, handing full chunks to that partition's bounded
// channel; and one goroutine per reduce partition accumulates pairs in a
// pre-sized buffer — spilling it as a sorted run to disk when the run's
// memory budget is exceeded — then sorts what is left, merges it with the
// partition's runs into key groups, and reduces them, emitting output to the
// Sink (or the collected Result). Every channel operation selects on the run
// context, so cancellation tears the whole pipeline down promptly.
//
// Records cross stage boundaries in chunks so that a channel operation — a
// lock, and often a goroutine wake-up — is paid once per chunk, not once per
// record. A chunk is closed by record count or by bytes, whichever comes
// first, and partial chunks are flushed when the input ends.

const (
	// chunkRecords is how many records (reader side) or pairs (map side) one
	// chunk holds at most. StreamOptions.BufferSize below it shrinks chunks
	// to BufferSize, so BufferSize 1 is a record-at-a-time pipeline.
	chunkRecords = 64
	// chunkBytes closes a chunk early once its payload reaches this many
	// bytes, so chunks of large records stay small in memory.
	chunkBytes = 64 << 10
)

// The states of pipeline.srcGate: the reader moves it from idle to inNext
// around every Source.Next call, and Run closes it on the way out.
const (
	srcIdle int32 = iota
	srcInNext
	srcClosed
)

// recordChunk is a run of consecutive input records; recs[i] is input record
// first+i.
type recordChunk struct {
	first int64
	recs  [][]byte
}

// pairChunk is one map worker's pending pairs for one partition.
type pairChunk struct {
	pairs []streamPair
	bytes int64
}

// pipeline is the state of one Run call.
type pipeline struct {
	ctx    context.Context
	cancel context.CancelFunc
	job    *Job
	src    Source
	sink   Sink
	opts   StreamOptions
	res    *Result

	chunkLen int // records per chunk: min(chunkRecords, BufferSize)

	srcGate atomic.Int32 // srcIdle, srcInNext or srcClosed

	parts  []chan []streamPair
	states []*partitionState

	memUsed atomic.Int64 // in-memory shuffle bytes across partitions

	spillMu  sync.Mutex
	spillDir string // lazily created; "" until the first spill

	sinkMu sync.Mutex

	errOnce sync.Once
	err     error

	mapRecords atomic.Int64 // map output records
	mapBytes   atomic.Int64 // map output bytes
	inRecords  atomic.Int64 // map input records

	spillRuns       atomic.Int64
	spillBytes      atomic.Int64
	spillPartitions atomic.Int64
}

// partitionState accumulates one reduce partition.
type partitionState struct {
	part int
	// buf holds the pairs that arrived since the last spill, in arrival
	// order; memBytes is what they charge against the memory budget.
	buf      []streamPair
	memBytes int64
	spill    *spillFile // the runs spilled so far; nil until the first
	mem      memCursor  // over buf, at reduce time

	load    int64 // shuffle bytes received
	records int64 // shuffle records received

	// Reduce results, folded into the run counters at the end.
	reduceKeys int64
	outRecords int64
	outBytes   int64
}

// Run executes the job as a streaming pipeline: records are pulled from src,
// shuffled through bounded per-partition channels, and output records are
// pushed to sink as reduce partitions complete. When sink is nil the output
// is collected per partition into the Result. The context cancels the run
// mid-pipeline. When Run returns, the run's spill files are removed and every
// goroutine it started has exited — sink is not written and src is not pulled
// again — except a reader blocked inside a src.Next call, which exits, without
// another pull, when that call returns.
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
	}
	defer p.removeSpillDir()
	return p.run()
}

// fail records the first error and cancels the pipeline.
func (p *pipeline) fail(err error) {
	p.errOnce.Do(func() {
		p.err = err
		p.cancel()
	})
}

// cancelled reports, without blocking, whether the run has been cancelled or
// has failed. Stages poll it between the records of a chunk, so a chunk does
// not delay cancellation.
func (p *pipeline) cancelled() bool {
	select {
	case <-p.ctx.Done():
		return true
	default:
		return false
	}
}

// run drives the pipeline to completion.
func (p *pipeline) run() (*Result, error) {
	job := p.job
	n := job.NumReducers
	p.parts = make([]chan []streamPair, n)
	p.states = make([]*partitionState, n)
	// Channels carry chunks, so their capacity is BufferSize divided by the
	// chunk length: a channel still parks at most BufferSize records.
	p.chunkLen = min(chunkRecords, p.opts.bufferSize())
	buf := p.opts.bufferSize() / p.chunkLen
	for i := range p.parts {
		p.parts[i] = make(chan []streamPair, buf)
		p.states[i] = &partitionState{part: i, buf: make([]streamPair, 0, job.hint(i).Records)}
	}

	start := time.Now()
	endMap := p.opts.stage("map")

	// Stage 1: reader. Stage 2: map workers. Mapping is CPU work, so by
	// default there is one worker per processor (and never more than one per
	// partition).
	mapIn := make(chan recordChunk, buf)
	workers := job.MapParallelism
	if workers <= 0 {
		workers = min(n, runtime.GOMAXPROCS(0))
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		p.readSource(mapIn)
	}()
	var mapWG sync.WaitGroup
	mapWG.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer mapWG.Done()
			p.mapWorker(mapIn)
		}()
	}

	// Stage 3: one pipeline per reduce partition. Accumulation runs fully
	// parallel; the reduce step (user code over materialized key groups) is
	// gated by ReduceParallelism.
	reduceWorkers := job.ReduceParallelism
	if reduceWorkers <= 0 || reduceWorkers > n {
		reduceWorkers = n
	}
	reduceSem := make(chan struct{}, reduceWorkers)
	var partWG sync.WaitGroup
	for i := range p.parts {
		partWG.Add(1)
		go func(i int) {
			defer partWG.Done()
			p.partitionWorker(p.states[i], p.parts[i], reduceSem)
		}(i)
	}

	// Close the partition channels when every map worker is done; this is
	// the end of the map stage.
	var mapDone time.Time
	mapClosed := make(chan struct{})
	go func() {
		defer close(mapClosed)
		mapWG.Wait()
		mapDone = time.Now()
		endMap()
		for _, ch := range p.parts {
			close(ch)
		}
	}()

	// The partition workers leave early when the run fails or is cancelled;
	// the map workers and the reader must be gone too before the caller gets
	// its Source back. The one thing not waited for is a Next call already in
	// flight, which may never return: closing the gate stops the reader from
	// starting another, and it exits when that call does.
	partWG.Wait()
	<-mapClosed
	if p.srcGate.Swap(srcClosed) == srcIdle {
		<-readerDone
	}
	p.opts.stage("reduce")()

	if p.err != nil {
		return nil, p.err
	}
	if err := p.ctx.Err(); err != nil {
		// The parent context was cancelled (no internal stage failed first).
		return nil, err
	}
	p.collectCounters(start, mapDone)
	return p.res, nil
}

// readSource pulls records from the source into the map stage, a chunk at a
// time; the last, partial chunk goes out when the input ends. It checks for
// cancellation before every pull, so a failed run stops reading at once, and
// passes the source gate around it, so no pull starts after Run has returned.
func (p *pipeline) readSource(mapIn chan<- recordChunk) {
	defer close(mapIn)
	chunk := recordChunk{recs: make([][]byte, 0, p.chunkLen)}
	var bytes int
	send := func() bool {
		select {
		case mapIn <- chunk:
			p.inRecords.Add(int64(len(chunk.recs)))
			chunk = recordChunk{first: chunk.first + int64(len(chunk.recs)), recs: make([][]byte, 0, p.chunkLen)}
			bytes = 0
			return true
		case <-p.ctx.Done():
			return false
		}
	}
	for !p.cancelled() && p.srcGate.CompareAndSwap(srcIdle, srcInNext) {
		rec, err := p.src.Next()
		if !p.srcGate.CompareAndSwap(srcInNext, srcIdle) {
			return // Run is gone; nobody is left to take the record or the error
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				p.fail(fmt.Errorf("mr: reading input record %d: %w", chunk.first+int64(len(chunk.recs)), err))
				return
			}
			if len(chunk.recs) > 0 {
				send()
			}
			return
		}
		chunk.recs = append(chunk.recs, rec)
		bytes += len(rec)
		if (len(chunk.recs) >= p.chunkLen || bytes >= chunkBytes) && !send() {
			return
		}
	}
}

// mapWorker maps records and routes the emissions to their partitions. It
// keeps one pending chunk per partition, hands a chunk over when it is full,
// and flushes the partial ones once the input is exhausted.
func (p *pipeline) mapWorker(mapIn <-chan recordChunk) {
	job := p.job
	part := job.partitioner()
	n := job.NumReducers
	pending := make([]pairChunk, n)
	send := func(idx int) bool {
		select {
		case p.parts[idx] <- pending[idx].pairs:
			pending[idx] = pairChunk{}
			return true
		case <-p.ctx.Done():
			return false
		}
	}
	var emitted []Pair // reused across records
	emit := func(pr Pair) { emitted = append(emitted, pr) }
	for {
		var chunk recordChunk
		var ok bool
		select {
		case chunk, ok = <-mapIn:
		case <-p.ctx.Done():
			return
		}
		if !ok {
			break
		}
		var records, bytes int64
		for i, rec := range chunk.recs {
			if p.cancelled() {
				return
			}
			recIdx := chunk.first + int64(i)
			emitted = emitted[:0]
			if err := job.Mapper.Map(rec, emit); err != nil {
				p.fail(fmt.Errorf("mr: map task over record %d: %w", recIdx, err))
				return
			}
			for e, pr := range emitted {
				idx := part(pr.Key, n)
				if idx < 0 || idx >= n {
					idx = 0
				}
				pc := &pending[idx]
				if pc.pairs == nil {
					pc.pairs = make([]streamPair, 0, p.pendingCap(idx))
				}
				size := int64(pr.Size())
				pc.pairs = append(pc.pairs, streamPair{Pair: pr, rec: recIdx, emit: int32(e)})
				pc.bytes += size
				bytes += size
				if (len(pc.pairs) >= p.chunkLen || pc.bytes >= chunkBytes) && !send(idx) {
					return
				}
			}
			records += int64(len(emitted))
		}
		p.mapRecords.Add(records)
		p.mapBytes.Add(bytes)
	}
	for idx := range pending {
		if len(pending[idx].pairs) > 0 && !send(idx) {
			return
		}
	}
}

// pendingCap sizes a fresh pending chunk: a full chunk, or the partition's
// whole declared input when that is smaller.
func (p *pipeline) pendingCap(part int) int {
	if r := p.job.hint(part).Records; r > 0 && r < p.chunkLen {
		return r
	}
	return p.chunkLen
}

// partitionWorker accumulates one partition's pairs (spilling under memory
// pressure), then groups and reduces them.
func (p *pipeline) partitionWorker(st *partitionState, in <-chan []streamPair, reduceSem chan struct{}) {
	defer func() {
		// Whatever happened, stop charging this partition's buffer against
		// the budget, and give back its spill file's descriptor.
		p.memUsed.Add(-st.memBytes)
		st.memBytes = 0
		if st.spill != nil {
			st.spill.close()
		}
	}()
	job := p.job
	for {
		var chunk []streamPair
		var ok bool
		select {
		case chunk, ok = <-in:
		case <-p.ctx.Done():
			return
		}
		if !ok {
			break
		}
		// Pairs arrive in chunks but are inserted — and the capacity bound
		// and the memory budget checked — one at a time, exactly as if each
		// had crossed the channel alone.
		for i := range chunk {
			size := int64(chunk[i].Size())
			st.records++
			st.load += size
			if job.ReducerCapacity > 0 && st.load > job.ReducerCapacity {
				p.fail(fmt.Errorf("%w: partition %d holds %d bytes > capacity %d (job %q)",
					ErrOverCapacity, st.part, st.load, job.ReducerCapacity, job.Name))
				return
			}
			st.buf = append(st.buf, chunk[i])
			st.memBytes += size
			if p.memUsed.Add(size) > p.opts.MemoryBudget && p.opts.MemoryBudget > 0 && st.memBytes > 0 {
				if err := p.spill(st); err != nil {
					p.fail(err)
					return
				}
				if p.cancelled() {
					return
				}
			}
		}
	}

	// Input complete: group and reduce. The reduce step materializes one key
	// group at a time and runs user code, so it is bounded by the
	// reduce-parallelism semaphore.
	select {
	case reduceSem <- struct{}{}:
	case <-p.ctx.Done():
		return
	}
	defer func() { <-reduceSem }()
	if err := p.reducePartition(st); err != nil {
		p.fail(err)
	}
}

// spill appends the partition's buffer to its spill file as one sorted run
// and empties it. The first spill creates the file.
func (p *pipeline) spill(st *partitionState) error {
	if st.spill == nil {
		dir, err := p.ensureSpillDir()
		if err != nil {
			return err
		}
		if st.spill, err = createSpillFile(dir, st.part); err != nil {
			return err
		}
		p.spillPartitions.Add(1)
	}
	run, err := st.spill.appendRun(st.buf)
	if err != nil {
		return err
	}
	// The budget is a promise about resident bytes: drop the references, not
	// just the length, so the spilled payloads can be collected.
	clear(st.buf)
	st.buf = st.buf[:0]
	p.memUsed.Add(-st.memBytes)
	st.memBytes = 0
	p.spillRuns.Add(1)
	p.spillBytes.Add(run.bytes)
	if p.opts.OnSpill != nil {
		p.opts.OnSpill(st.part, run.bytes)
	}
	return nil
}

// ensureSpillDir creates the run's private spill directory on first use.
func (p *pipeline) ensureSpillDir() (string, error) {
	p.spillMu.Lock()
	defer p.spillMu.Unlock()
	if p.spillDir != "" {
		return p.spillDir, nil
	}
	dir, err := os.MkdirTemp(p.opts.SpillDir, "mr-spill-")
	if err != nil {
		return "", fmt.Errorf("mr: creating spill directory: %w", err)
	}
	p.spillDir = dir
	return dir, nil
}

// removeSpillDir deletes the run's spill directory, if one was created.
func (p *pipeline) removeSpillDir() {
	p.spillMu.Lock()
	dir := p.spillDir
	p.spillDir = ""
	p.spillMu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// cursors opens what the partition's key groups merge from: the sorted
// buffer plus every spilled run. mergePairs closes them.
func (st *partitionState) cursors() []pairCursor {
	sortPairs(st.buf)
	st.mem.pairs = st.buf
	cursors := []pairCursor{&st.mem}
	if st.spill != nil {
		cursors = slices.Grow(cursors, len(st.spill.runs))
		for _, run := range st.spill.runs {
			cursors = append(cursors, st.spill.open(run))
		}
	}
	return cursors
}

// reducePartition reduces one completed partition, key group by key group in
// (key, then provenance) order, streaming its output.
func (p *pipeline) reducePartition(st *partitionState) error {
	job := p.job
	var collected [][]byte
	err := mergePairs(st.cursors(), func(key string, values [][]byte) error {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		st.reduceKeys++
		var out [][]byte
		if err := job.Reducer.Reduce(key, values, func(rec []byte) { out = append(out, rec) }); err != nil {
			return fmt.Errorf("mr: reduce partition %d key %q: %w", st.part, key, err)
		}
		for _, rec := range out {
			st.outRecords++
			st.outBytes += int64(len(rec))
		}
		if p.sink == nil {
			collected = append(collected, out...)
			return nil
		}
		p.sinkMu.Lock()
		defer p.sinkMu.Unlock()
		for _, rec := range out {
			if err := p.sink.Write(st.part, rec); err != nil {
				return fmt.Errorf("mr: sink write (partition %d): %w", st.part, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if p.sink == nil {
		p.sinkMu.Lock()
		if p.res.Output == nil {
			p.res.Output = make([][][]byte, job.NumReducers)
		}
		p.res.Output[st.part] = collected
		p.sinkMu.Unlock()
	}
	return nil
}

// collectCounters folds the per-partition states into the result counters.
func (p *pipeline) collectCounters(start, mapDone time.Time) {
	c := &p.res.Counters
	job := p.job
	c.MapInputRecords = p.inRecords.Load()
	c.MapOutputRecords = p.mapRecords.Load()
	c.MapOutputBytes = p.mapBytes.Load()
	c.MapWall = mapDone.Sub(start)
	c.ReduceWall = time.Since(mapDone)
	c.ReducerLoads = make([]int64, job.NumReducers)
	for _, st := range p.states {
		c.ReducerLoads[st.part] = st.load
		if st.load > c.MaxReducerLoad {
			c.MaxReducerLoad = st.load
		}
		c.ShuffleRecords += st.records
		c.ShuffleBytes += st.load
		c.ReduceInputKeys += st.reduceKeys
		c.ReduceOutputRecords += st.outRecords
		c.ReduceOutputBytes += st.outBytes
	}
	c.SpillRuns = p.spillRuns.Load()
	c.SpillBytes = p.spillBytes.Load()
	c.SpillPartitions = p.spillPartitions.Load()
	if p.sink == nil && p.res.Output == nil {
		p.res.Output = make([][][]byte, job.NumReducers)
	}
}
