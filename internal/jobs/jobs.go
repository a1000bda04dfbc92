// Package jobs runs expensive work asynchronously behind a bounded queue: a
// fixed worker pool drains submitted jobs, results are retained for a TTL so
// clients can poll for them, cancellation propagates through each job's
// context, and a full queue pushes back instead of buffering without bound.
//
// There is no janitor goroutine. Finished jobs wait in finish order, and
// since every one expires a constant TTL after it finished, that is also
// expiry order: each Submit, Restore, Get, Cancel and Stats first pops the
// expired ones off the head. The table only grows through Submit and
// Restore, which both sweep first, so it never holds an expired job past
// the next call that could add one; an idle manager frees expired results
// at its next call.
// cmd/pland's v2 API is built on it — combinatorial solves (large n, tight
// q, exact search) belong behind an asynchronous, budget-aware interface,
// not a blocking request/response call.
//
// A job may carry an opaque journal payload (Restore's last argument), set
// in the critical section that enqueues it and reported by its snapshots
// until OnFinish has seen it finish; cmd/pland marks its journaled jobs so,
// and journals them from OnEnqueue, in that same critical section.
//
// Each Manager counts in its own pland_jobs_* series, registered when New
// builds it: Stats reads its counts from them, and WritePrometheus hands
// them to a scrape.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is a job's lifecycle position. Transitions are strictly
// queued → running → {succeeded, failed, canceled}, except that a queued job
// may move straight to canceled (client cancel) or failed (shutdown).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Func is the work of one job. It must honor ctx: cancellation (client
// DELETE or manager shutdown) arrives as ctx.Done().
type Func func(ctx context.Context) (any, error)

// Manager errors.
var (
	// ErrQueueFull is returned by Submit when the queue is at capacity; HTTP
	// front ends map it to 429.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrShutdown is returned by Submit after Shutdown began, and is the
	// failure reason of jobs the shutdown drained.
	ErrShutdown = errors.New("jobs: manager is shutting down")
	// ErrNotFound is returned for unknown (or already-expired) job IDs.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished is returned by Cancel on a job that already reached a
	// terminal state.
	ErrFinished = errors.New("jobs: job already finished")
)

// Config configures New. The zero value uses the defaults.
type Config struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many submitted jobs may wait for a worker;
	// 0 means 256. Submit returns ErrQueueFull beyond it.
	QueueDepth int
	// ResultTTL is how long a finished job (and its result) is retained for
	// polling; 0 means 15 minutes. The manager's next call after that
	// evicts it.
	ResultTTL time.Duration
	// OnEnqueue, when non-nil, observes every job Submit or Restore
	// enqueues, with its queued snapshot, before any worker can run it. It
	// runs under the manager lock, as OnFinish does. cmd/pland uses it to
	// append a journaled job's submit record, so the record precedes the
	// job's done record and no checkpoint falls between the enqueue and it.
	OnEnqueue func(Snapshot)
	// OnFinish, when non-nil, observes every terminal transition with the
	// job's final snapshot. It runs under the manager lock — implementations
	// must be fast and must not call back into the Manager. cmd/pland uses
	// it to mark journaled jobs (those with a Payload) done in the WAL.
	OnFinish func(Snapshot)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	return c
}

// Snapshot is an immutable view of one job, safe to hold across the job's
// further transitions.
type Snapshot struct {
	// ID addresses the job in Get and Cancel.
	ID string
	// Kind is the caller-supplied job type label.
	Kind string
	// State is the lifecycle position at snapshot time.
	State State
	// Result is the Func's return value once State is StateSucceeded.
	Result any
	// Err is the failure or cancellation reason once State is StateFailed
	// or StateCanceled.
	Err error
	// Created, Started, and Finished stamp the transitions (zero until
	// reached).
	Created, Started, Finished time.Time
	// ExpiresAt is when a finished job is evicted; zero while unfinished.
	ExpiresAt time.Time
	// Payload is the journal payload Restore enqueued the job with. It is
	// reported until the job finishes and OnFinish has seen it; a finished
	// job's later snapshots carry none.
	Payload []byte
}

// job is the mutable record behind a Snapshot; mu of the owning Manager
// guards every field below fn.
type job struct {
	id      string
	kind    string
	fn      Func
	seq     uint64 // creation order, drawn under the lock
	payload []byte

	state           State
	result          any
	err             error
	created         time.Time
	started         time.Time
	finished        time.Time
	expiresAt       time.Time
	cancelRequested bool
	cancel          context.CancelFunc // non-nil while running
}

func (j *job) snapshot() Snapshot {
	return Snapshot{
		ID:        j.id,
		Kind:      j.kind,
		State:     j.state,
		Result:    j.result,
		Err:       j.err,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		ExpiresAt: j.expiresAt,
		Payload:   j.payload,
	}
}

// Manager owns the queue, the worker pool, and the retained results. Create
// with New; a Manager is safe for concurrent use.
type Manager struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond // signals workers that pending grew or closed flipped
	jobs map[string]*job
	// pending is the waiting line, oldest first. A canceled queued job is
	// removed immediately, so its slot frees for new submits right away.
	pending []*job
	// finished holds the finished jobs still in jobs, in finish order, which
	// is expiry order; expireLocked pops from its head.
	finished []*job
	seq      uint64 // last job's creation number
	closed   bool

	rootCtx    context.Context
	rootCancel context.CancelFunc
	workers    sync.WaitGroup

	metrics series
}

// New builds a Manager and starts its workers, the only goroutines it runs.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, jobs: make(map[string]*job), metrics: newSeries()}
	m.cond = sync.NewCond(&m.mu)
	m.rootCtx, m.rootCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

// Submit enqueues fn as a new job under a freshly drawn ID and returns its
// queued snapshot. It never blocks: a full queue returns ErrQueueFull
// immediately.
func (m *Manager) Submit(kind string, fn Func) (Snapshot, error) {
	return m.Restore(obs.NewTraceID(), kind, fn, nil)
}

// Restore enqueues fn as a job under a caller-chosen ID, carrying payload
// (nil for none) as its journal payload — the path for journaled
// submissions, and for those that never finished before a crash, which must
// come back under the IDs clients already hold. It behaves like Submit
// otherwise; an ID already present is rejected.
func (m *Manager) Restore(id, kind string, fn Func, payload []byte) (Snapshot, error) {
	if id == "" {
		return Snapshot{}, fmt.Errorf("jobs: empty job ID")
	}
	if fn == nil {
		return Snapshot{}, fmt.Errorf("jobs: nil Func")
	}
	j := &job{id: id, kind: kind, fn: fn, payload: payload, state: StateQueued, created: time.Now()}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Snapshot{}, ErrShutdown
	}
	m.expireLocked(time.Now())
	if _, dup := m.jobs[id]; dup {
		m.mu.Unlock()
		return Snapshot{}, fmt.Errorf("jobs: job %s already exists", id)
	}
	if len(m.pending) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		m.metrics.rejected.Inc()
		return Snapshot{}, ErrQueueFull
	}
	m.seq++
	j.seq = m.seq
	m.pending = append(m.pending, j)
	m.jobs[j.id] = j
	m.metrics.submitted.Inc()
	m.metrics.queueDepth.Inc()
	snap := j.snapshot()
	if m.cfg.OnEnqueue != nil {
		m.cfg.OnEnqueue(snap)
	}
	m.cond.Signal()
	m.mu.Unlock()
	return snap, nil
}

// Get returns the job's current snapshot; a finished job older than the TTL
// reports ErrNotFound.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(time.Now())
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// Cancel requests cancellation. A queued job is canceled immediately; a
// running job has its context canceled and reports StateCanceled once its
// Func returns (poll Get to observe it). Canceling a finished job returns
// its snapshot with ErrFinished.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(time.Now())
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		// Remove it from the waiting line so its queue slot frees
		// immediately instead of occupying capacity until a worker skips it.
		for i, p := range m.pending {
			if p == j {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				m.metrics.queueDepth.Dec()
				break
			}
		}
		j.cancelRequested = true
		m.finishLocked(j, StateCanceled, nil, context.Canceled)
		return j.snapshot(), nil
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		return j.snapshot(), nil
	default:
		return j.snapshot(), ErrFinished
	}
}

// Unfinished returns the snapshots of every queued and running job, in
// creation order.
func (m *Manager) Unfinished() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var live []*job
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			live = append(live, j)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	out := make([]Snapshot, len(live))
	for i, j := range live {
		out[i] = j.snapshot()
	}
	return out
}

// Stats is a point-in-time census of the manager.
type Stats struct {
	// QueueDepth and QueueCapacity describe the waiting line.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Retained is how many jobs (any state) are currently addressable.
	Retained int `json:"retained"`
	// Running is how many jobs are executing right now.
	Running int `json:"running"`
	// Submitted, Succeeded, Failed, and Canceled are lifetime totals.
	Submitted int64 `json:"submitted"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
}

// Stats reads the manager's series and its table. It sweeps expired jobs
// first, as Get does, so Retained never counts a job Get would report
// ErrNotFound for.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(time.Now())
	return Stats{
		QueueDepth:    int(m.metrics.queueDepth.Value()),
		QueueCapacity: m.cfg.QueueDepth,
		Workers:       m.cfg.Workers,
		Retained:      len(m.jobs),
		Running:       int(m.metrics.inFlight.Value()),
		Submitted:     int64(m.metrics.submitted.Value()),
		Succeeded:     int64(m.metrics.succeeded.Value()),
		Failed:        int64(m.metrics.failed.Value()),
		Canceled:      int64(m.metrics.canceled.Value()),
	}
}

// Shutdown stops intake, cancels every running job's context, waits for the
// workers up to ctx's deadline, and marks every job that did not finish in
// time failed with ErrShutdown — jobs are never silently dropped. It returns
// ctx.Err() when the drain deadline cut the wait short.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.cond.Broadcast() // wake idle workers so they observe closed and exit
	m.mu.Unlock()

	m.rootCancel() // running jobs see ctx.Done()

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}

	// Whatever is still queued or running at this point is failed with a
	// reason instead of being dropped.
	m.mu.Lock()
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			if j.state == StateQueued {
				m.metrics.queueDepth.Dec() // never dequeued; keep the gauge truthful
			}
			m.finishLocked(j, StateFailed, nil, ErrShutdown)
		}
	}
	m.mu.Unlock()
	return drainErr
}

// worker drains the waiting line until shutdown.
func (m *Manager) worker() {
	defer m.workers.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.metrics.queueDepth.Dec()
		m.mu.Unlock()
		m.run(j)
	}
}

// run executes one dequeued job.
func (m *Manager) run(j *job) {
	m.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.rootCtx)
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	fn := j.fn
	m.metrics.waitSeconds.ObserveDuration(j.started.Sub(j.created))
	m.metrics.inFlight.Inc()
	m.mu.Unlock()
	defer cancel()

	result, err := fn(ctx)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics.inFlight.Dec()
	m.metrics.runSeconds.ObserveSince(j.started)
	if j.state != StateRunning {
		return // shutdown already failed it
	}
	switch {
	case err == nil:
		m.finishLocked(j, StateSucceeded, result, nil)
	case j.cancelRequested && errors.Is(err, context.Canceled):
		m.finishLocked(j, StateCanceled, nil, err)
	case m.rootCtx.Err() != nil && errors.Is(err, context.Canceled):
		m.finishLocked(j, StateFailed, nil, fmt.Errorf("%w: %v", ErrShutdown, err))
	default:
		m.finishLocked(j, StateFailed, nil, err)
	}
}

// finishLocked moves a job to a terminal state. m.mu must be held.
func (m *Manager) finishLocked(j *job, s State, result any, err error) {
	j.state = s
	j.result = result
	j.err = err
	j.finished = time.Now()
	j.expiresAt = j.finished.Add(m.cfg.ResultTTL)
	j.fn = nil // release the closure and whatever it captured
	j.cancel = nil
	m.finished = append(m.finished, j)
	switch s {
	case StateSucceeded:
		m.metrics.succeeded.Inc()
	case StateFailed:
		m.metrics.failed.Inc()
	case StateCanceled:
		m.metrics.canceled.Inc()
	}
	if m.cfg.OnFinish != nil {
		m.cfg.OnFinish(j.snapshot())
	}
	j.payload = nil
}

// expireLocked evicts the finished jobs whose TTL has passed by now. They
// sit at the head of m.finished; m.mu must be held.
func (m *Manager) expireLocked(now time.Time) {
	for len(m.finished) > 0 && now.After(m.finished[0].expiresAt) {
		delete(m.jobs, m.finished[0].id)
		m.metrics.expired.Inc()
		m.finished[0] = nil // let the result go with the job
		m.finished = m.finished[1:]
	}
}
