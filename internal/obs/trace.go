package obs

import "context"

// TraceparentHeader is the W3C Trace Context header every inbound request is
// parsed for and every outbound fleet call carries, so one client call keeps
// one trace ID across every node it touches.
const TraceparentHeader = "traceparent"

// NewTraceID returns a fresh 32-hex-char (128-bit) trace ID. Job IDs are
// drawn the same way.
func NewTraceID() string { return randomHex(16) }

// NewSpanID returns a fresh 16-hex-char (64-bit) span ID.
func NewSpanID() string { return randomHex(8) }

// TraceContext is the wire identity of one position in a trace: the trace it
// belongs to and the span that is the parent of whatever happens next.
type TraceContext struct {
	// TraceID is 32 lowercase hex chars, not all zero.
	TraceID string
	// SpanID is 16 lowercase hex chars, not all zero. On an inbound header it
	// is the caller's span — the parent of the span this node starts.
	SpanID string
	// Sampled mirrors the traceparent sampled flag. It is carried verbatim;
	// retention here is tail-based, decided by the flight recorder at span end.
	Sampled bool
}

// Valid reports whether both IDs are well-formed.
func (tc TraceContext) Valid() bool {
	return isHexID(tc.TraceID, 32) && isHexID(tc.SpanID, 16)
}

// Traceparent renders the context as a version-00 W3C traceparent header
// value ("" when invalid).
func (tc TraceContext) Traceparent() string {
	if !tc.Valid() {
		return ""
	}
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//
// Per the spec, hex fields are lowercase; the all-zero trace or span ID is
// invalid; version ff is invalid; version 00 admits no trailing fields, while
// unknown future versions are read by the 00 layout and may carry a
// "-"-separated suffix. Anything malformed returns ok == false — a bad header
// never breaks a request, it just starts a fresh trace.
func ParseTraceparent(h string) (tc TraceContext, ok bool) {
	// "vv-" + 32 + "-" + 16 + "-" + 2 = 55 chars minimum.
	const fixedLen = 55
	if len(h) < fixedLen {
		return TraceContext{}, false
	}
	version := h[0:2]
	if !isHexField(version) || version == "ff" {
		return TraceContext{}, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	if len(h) > fixedLen && (version == "00" || h[fixedLen] != '-') {
		return TraceContext{}, false
	}
	tc.TraceID = h[3:35]
	tc.SpanID = h[36:52]
	flags := h[53:55]
	if !isHexID(tc.TraceID, 32) || !isHexID(tc.SpanID, 16) || !isHexField(flags) {
		return TraceContext{}, false
	}
	tc.Sampled = hexDigitLowBit(flags[1])
	return tc, true
}

// hexDigitLowBit returns the low bit of one (pre-validated) hex digit.
func hexDigitLowBit(c byte) bool {
	switch {
	case c >= '0' && c <= '9':
		return (c-'0')&1 == 1
	default: // a-f, validated lowercase
		return (c-'a'+10)&1 == 1
	}
}

// isHexID reports whether s is exactly n lowercase hex chars and not all
// zero (the spec's invalid sentinel for trace and span IDs).
func isHexID(s string, n int) bool {
	if len(s) != n || !isHexField(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false
}

// isHexField reports whether s is non-empty lowercase hex.
func isHexField(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// WithTraceContext returns ctx carrying tc as the remote parent: the next
// StartSpan that opens a root joins tc's trace as a child of tc.SpanID
// instead of minting a fresh trace ID. Invalid contexts are dropped.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceParentKey, tc)
}

// TraceContextFrom returns the trace position ctx represents: the current
// span's identity when one is active, else the remote parent installed by
// WithTraceContext. This is what outbound calls inject as traceparent.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	if sp := SpanFrom(ctx); sp != nil {
		return sp.TraceContext(), true
	}
	if ctx != nil {
		if tc, ok := ctx.Value(traceParentKey).(TraceContext); ok {
			return tc, true
		}
	}
	return TraceContext{}, false
}

// WithRecorder returns ctx carrying the flight recorder completed root spans
// are offered to. Without one, spans still time their tree — they are just
// never retained.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey, r)
}

// RecorderFrom returns the recorder carried by ctx, or nil.
func RecorderFrom(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}
