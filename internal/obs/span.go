package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// NewRequestID returns a fresh 16-hex-char request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID beats a
		// panic on an observability path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

type ctxKey int

const (
	requestIDKey ctxKey = iota
	spanKey
	traceParentKey
	recorderKey
)

// WithRequestID returns ctx carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the request ID carried by ctx, or "".
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// StageTiming is one named stage's recorded duration within a span.
type StageTiming struct {
	Name     string
	Duration time.Duration
}

// Attr is one bounded key/value annotation on a span. Keys come from a fixed
// vocabulary (see the package doc); values are free-form but short.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Bounds that keep one trace's memory fixed no matter what a request does:
// spans past the caps are counted, not stored.
const (
	maxSpanAttrs    = 16
	maxSpanChildren = 128
)

// Span is one node of a trace tree: a named, timed operation with a parent
// link, bounded attributes, an error status, and child spans. A nil *Span is
// valid everywhere — every method no-ops or returns a zero value — so
// instrumented code never has to check whether tracing is on.
type Span struct {
	name     string
	reqID    string
	traceID  string
	spanID   string
	parentID string
	remote   bool // parentID names a span on another process
	start    time.Time
	root     *Span
	rec      *Recorder // set on roots only; offered the tree at End

	mu         sync.Mutex
	end        time.Time
	attrs      []Attr
	attrDrops  int
	errMsg     string
	failed     bool
	children   []*Span
	childDrops int
}

// StartSpan starts a span named name and attaches it to ctx. With a span
// already in ctx the new span is its child; otherwise it is a trace root —
// joining the remote trace installed by WithTraceContext when one is present,
// minting a fresh trace ID when not — and it reuses (or generates) the
// context's request ID. Call End (or the closure Stage returns) when the
// operation finishes; ending a root offers the whole tree to the recorder in
// ctx, if any.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent := SpanFrom(ctx); parent != nil {
		sp := parent.child(name, time.Now())
		return context.WithValue(ctx, spanKey, sp), sp
	}
	id := RequestID(ctx)
	if id == "" {
		id = NewRequestID()
		ctx = WithRequestID(ctx, id)
	}
	sp := &Span{name: name, reqID: id, spanID: NewSpanID(), start: time.Now()}
	sp.root = sp
	if tc, ok := ctx.Value(traceParentKey).(TraceContext); ok && tc.Valid() {
		sp.traceID = tc.TraceID
		sp.parentID = tc.SpanID
		sp.remote = true
	} else {
		sp.traceID = NewTraceID()
	}
	sp.rec = RecorderFrom(ctx)
	return context.WithValue(ctx, spanKey, sp), sp
}

// SpanFrom returns the span carried by ctx, or nil. nil is safe to use.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// child creates and registers a child span starting at start.
func (s *Span) child(name string, start time.Time) *Span {
	c := &Span{
		name:     name,
		reqID:    s.reqID,
		traceID:  s.traceID,
		spanID:   NewSpanID(),
		parentID: s.spanID,
		start:    start,
		root:     s.root,
	}
	s.mu.Lock()
	if len(s.children) < maxSpanChildren {
		s.children = append(s.children, c)
	} else {
		s.childDrops++
	}
	s.mu.Unlock()
	return c
}

// Stage starts a child span named name and returns the closure that ends it:
//
//	done := obs.SpanFrom(ctx).Stage("canonicalize")
//	... work ...
//	done()
func (s *Span) Stage(name string) func() {
	if s == nil {
		return func() {}
	}
	return s.child(name, time.Now()).End
}

// StageAt is Stage with an explicit start time, for operations (a job's wait
// on the queue, say) that began before the span tree reached them.
func (s *Span) StageAt(name string, start time.Time) func() {
	if s == nil {
		return func() {}
	}
	return s.child(name, start).End
}

// SetAttr records a key/value annotation, dropping (and counting) anything
// past the per-span bound. Safe from concurrent goroutines.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.attrs) < maxSpanAttrs {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	} else {
		s.attrDrops++
	}
	s.mu.Unlock()
}

// SetError marks the span failed. The first message sticks; the flight
// recorder always retains traces whose root failed.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.failed {
		s.failed = true
		s.errMsg = msg
	}
	s.mu.Unlock()
}

// Failed reports whether SetError was called.
func (s *Span) Failed() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// End stamps the span's end time (idempotent: the first End wins). Ending a
// root span offers the completed tree to the recorder it was started with.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	s.mu.Unlock()
	if s.rec != nil && s.root == s {
		s.rec.offer(s)
	}
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// RequestID returns the span's request ID ("" for nil).
func (s *Span) RequestID() string {
	if s == nil {
		return ""
	}
	return s.reqID
}

// TraceID returns the span's trace ID ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's own ID ("" for nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// TraceContext returns the span's position for outbound propagation: its
// trace ID with itself as the parent.
func (s *Span) TraceContext() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.traceID, SpanID: s.spanID, Sampled: true}
}

// Elapsed returns the span's duration: end minus start once ended, time since
// start while running (0 for nil).
func (s *Span) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Stages returns the ended direct children as stage timings, in end order —
// the flat per-stage view request logs render.
func (s *Span) Stages() []StageTiming {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	type endedStage struct {
		st  StageTiming
		end time.Time
	}
	ended := make([]endedStage, 0, len(children))
	for _, c := range children {
		c.mu.Lock()
		if !c.end.IsZero() {
			ended = append(ended, endedStage{
				st:  StageTiming{Name: c.name, Duration: c.end.Sub(c.start)},
				end: c.end,
			})
		}
		c.mu.Unlock()
	}
	sort.SliceStable(ended, func(i, j int) bool { return ended[i].end.Before(ended[j].end) })
	out := make([]StageTiming, len(ended))
	for i, e := range ended {
		out[i] = e.st
	}
	return out
}

// LogAttrs renders the span as slog attributes: request ID, trace ID, total
// elapsed, and one stage_<name> attr per ended direct child — the shape
// request logs want.
func (s *Span) LogAttrs() []slog.Attr {
	if s == nil {
		return nil
	}
	attrs := []slog.Attr{
		slog.String("request_id", s.reqID),
		slog.String("trace_id", s.traceID),
		slog.Duration("elapsed", s.Elapsed()),
	}
	for _, st := range s.Stages() {
		attrs = append(attrs, slog.Duration("stage_"+st.Name, st.Duration))
	}
	return attrs
}

// SpanSnapshot is one immutable span of a recorded trace tree, JSON-shaped
// for GET /debug/traces/{id}.
type SpanSnapshot struct {
	Name            string         `json:"name"`
	SpanID          string         `json:"span_id"`
	ParentID        string         `json:"parent_span_id,omitempty"`
	Remote          bool           `json:"remote_parent,omitempty"`
	Start           time.Time      `json:"start"`
	DurationUS      int64          `json:"duration_us"`
	Attrs           []Attr         `json:"attrs,omitempty"`
	Error           string         `json:"error,omitempty"`
	Failed          bool           `json:"failed,omitempty"`
	Children        []SpanSnapshot `json:"children,omitempty"`
	DroppedChildren int            `json:"dropped_children,omitempty"`
}

// snapshot freezes the subtree. Spans still running (a stage of a request
// that gave up waiting, say) are clamped to asOf so the tree stays
// well-formed.
func (s *Span) snapshot(asOf time.Time) SpanSnapshot {
	s.mu.Lock()
	snap := SpanSnapshot{
		Name:            s.name,
		SpanID:          s.spanID,
		ParentID:        s.parentID,
		Remote:          s.remote,
		Start:           s.start,
		Attrs:           append([]Attr(nil), s.attrs...),
		Error:           s.errMsg,
		Failed:          s.failed,
		DroppedChildren: s.childDrops,
	}
	end := s.end
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if end.IsZero() {
		end = asOf
	}
	if d := end.Sub(s.start); d > 0 {
		snap.DurationUS = d.Microseconds()
	}
	for _, c := range children {
		snap.Children = append(snap.Children, c.snapshot(end))
	}
	return snap
}
