package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Flight-recorder retention series. Kept reasons are why a trace was
// retained (error, slow, sampled); dropped reasons why not (unsampled at the
// tail, evicted by the ring later).
var (
	obsTraceKept = Default.CounterVec("pland_trace_kept_total",
		"Completed traces the flight recorder retained, by reason (error, slow, sampled).", "reason")
	obsTraceDropped = Default.CounterVec("pland_trace_dropped_total",
		"Completed traces the flight recorder let go, by reason (unsampled, evicted).", "reason")
)

// TraceRecord is one retained trace tree as recorded on one node: the root
// span's snapshot plus the identity a reader filters on.
type TraceRecord struct {
	TraceID    string       `json:"trace_id"`
	RequestID  string       `json:"request_id,omitempty"`
	Node       string       `json:"node,omitempty"`
	Route      string       `json:"route"`
	Start      time.Time    `json:"start"`
	DurationUS int64        `json:"duration_us"`
	Error      bool         `json:"error,omitempty"`
	Reason     string       `json:"reason"`
	Root       SpanSnapshot `json:"root"`
}

// TraceSummary is the listing view of a retained trace — everything but the
// span tree, so GET /debug/traces stays cheap at any buffer size.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	RequestID  string    `json:"request_id,omitempty"`
	Node       string    `json:"node,omitempty"`
	Route      string    `json:"route"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Error      bool      `json:"error,omitempty"`
	Reason     string    `json:"reason"`
}

// TraceFilter narrows a List call.
type TraceFilter struct {
	// Route keeps only traces whose root route matches exactly ("" keeps all).
	Route string
	// ErrorsOnly keeps only traces whose root failed.
	ErrorsOnly bool
	// MinDuration keeps only traces at least this long.
	MinDuration time.Duration
	// Limit caps the newest-first result (<= 0 means 100).
	Limit int
}

// RecorderConfig shapes a Recorder.
type RecorderConfig struct {
	// Capacity is how many traces the ring retains (<= 0 means 512). Memory
	// is fixed: once full, each new trace evicts the oldest.
	Capacity int
	// SampleRate is the fraction of fast, successful traces kept, in [0, 1].
	// The decision is deterministic in the trace ID, so every node of a fleet
	// keeps or drops the same distributed trace.
	SampleRate float64
	// SlowThreshold is the duration at or above which a trace is always kept
	// (<= 0 means 250ms).
	SlowThreshold time.Duration
	// Node annotates every record with this node's identity (its advertised
	// URL in a fleet).
	Node string
}

// Recorder is the tail-sampling flight recorder: a fixed-memory ring of
// completed trace trees. Retention is decided at trace end — errored and
// slow traces always kept, the fast-OK rest sampled — which is what makes
// "why was this one request slow" answerable after the fact without paying
// for head-sampling everything. One mutex guards the ring, its index and the
// stored count; only retained traces take it.
type Recorder struct {
	cfg   RecorderConfig
	keptN atomic.Uint64
	dropN atomic.Uint64

	mu     sync.Mutex
	ring   []*TraceRecord // Capacity slots; next is the oldest once full
	next   int
	stored int
	byID   map[string][]*TraceRecord
}

// NewRecorder builds a recorder; zero config fields take the documented
// defaults.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	return &Recorder{
		cfg:  cfg,
		ring: make([]*TraceRecord, cfg.Capacity),
		byID: make(map[string][]*TraceRecord, cfg.Capacity),
	}
}

// offer is called by a root span's End: decide retention, snapshot only if
// kept.
func (r *Recorder) offer(root *Span) {
	root.mu.Lock()
	end := root.end
	failed := root.failed
	root.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	dur := end.Sub(root.start)
	var reason string
	switch {
	case failed:
		reason = "error"
	case dur >= r.cfg.SlowThreshold:
		reason = "slow"
	case sampleKeep(root.traceID, r.cfg.SampleRate):
		reason = "sampled"
	default:
		r.dropN.Add(1)
		obsTraceDropped.With("unsampled").Inc()
		return
	}
	rec := &TraceRecord{
		TraceID:    root.traceID,
		RequestID:  root.reqID,
		Node:       r.cfg.Node,
		Route:      root.name,
		Start:      root.start,
		DurationUS: dur.Microseconds(),
		Error:      failed,
		Reason:     reason,
		Root:       root.snapshot(end),
	}
	r.put(rec)
	r.keptN.Add(1)
	obsTraceKept.With(reason).Inc()
}

// put stores rec in the oldest slot, evicting the record there.
func (r *Recorder) put(rec *TraceRecord) {
	r.mu.Lock()
	if old := r.ring[r.next]; old != nil {
		r.dropFromIndex(old)
		r.dropN.Add(1)
		obsTraceDropped.With("evicted").Inc()
	} else {
		r.stored++
	}
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	r.byID[rec.TraceID] = append(r.byID[rec.TraceID], rec)
	r.mu.Unlock()
}

// dropFromIndex removes one evicted record from the byID index; the caller
// holds r.mu.
func (r *Recorder) dropFromIndex(old *TraceRecord) {
	list := r.byID[old.TraceID]
	for i, rec := range list {
		if rec == old {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(r.byID, old.TraceID)
	} else {
		r.byID[old.TraceID] = list
	}
}

// sampleKeep is the deterministic tail-sampling decision: the trace ID's low
// 32 bits against the rate, so both ends of a forwarded request agree.
func sampleKeep(traceID string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 || len(traceID) < 8 {
		return false
	}
	v, err := strconv.ParseUint(traceID[len(traceID)-8:], 16, 64)
	if err != nil {
		return false
	}
	return float64(v) < rate*float64(1<<32)
}

// Get returns copies of every retained record of one trace — several when
// the trace has multiple local roots (a request plus the job it enqueued).
func (r *Recorder) Get(traceID string) []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.byID[traceID]
	out := make([]TraceRecord, 0, len(list))
	for _, rec := range list {
		out = append(out, *rec)
	}
	return out
}

// List returns summaries of retained traces matching f, newest first.
func (r *Recorder) List(f TraceFilter) []TraceSummary {
	if r == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	var out []TraceSummary
	r.mu.Lock()
	for _, rec := range r.ring {
		if rec == nil {
			continue
		}
		if f.Route != "" && rec.Route != f.Route {
			continue
		}
		if f.ErrorsOnly && !rec.Error {
			continue
		}
		if rec.DurationUS < f.MinDuration.Microseconds() {
			continue
		}
		out = append(out, TraceSummary{
			TraceID:    rec.TraceID,
			RequestID:  rec.RequestID,
			Node:       rec.Node,
			Route:      rec.Route,
			Start:      rec.Start,
			DurationUS: rec.DurationUS,
			Error:      rec.Error,
			Reason:     rec.Reason,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// RecorderStats is the trace block of GET /v1/stats.
type RecorderStats struct {
	Capacity        int     `json:"capacity"`
	Stored          int     `json:"stored"`
	Kept            uint64  `json:"kept"`
	Dropped         uint64  `json:"dropped"`
	SampleRate      float64 `json:"sample_rate"`
	SlowThresholdMS int64   `json:"slow_threshold_ms"`
}

// Stats snapshots the recorder's counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	stored := r.stored
	r.mu.Unlock()
	return RecorderStats{
		Capacity:        len(r.ring),
		Stored:          stored,
		Kept:            r.keptN.Load(),
		Dropped:         r.dropN.Load(),
		SampleRate:      r.cfg.SampleRate,
		SlowThresholdMS: r.cfg.SlowThreshold.Milliseconds(),
	}
}
