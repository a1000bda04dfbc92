package main

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// HTTP surface series on obs.Default. Route labels are the routing table's
// (see routeLabels).
var (
	obsHTTPRequests = obs.Default.CounterVec("pland_http_requests_total",
		"HTTP requests served, by normalized route and status code.", "route", "status")
	obsHTTPSeconds = obs.Default.HistogramVec("pland_http_request_seconds",
		"HTTP request latency, by normalized route.", obs.LatencyBuckets, "route")
	obsHTTPInFlight = obs.Default.Gauge("pland_http_in_flight",
		"HTTP requests currently being served.")
)

// requestIDHeader is the correlation header: honored when the client sends a
// sane value, generated otherwise, and always echoed on the response so a
// client can quote it when reporting a failure.
const requestIDHeader = "X-Request-ID"

// validRequestID accepts inbound correlation IDs that are short and plain
// ASCII; anything else (empty, oversized, control bytes, quote/backslash that
// would need escaping in logs and headers) is replaced by a generated ID.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// statusWriter captures what a handler wrote without changing how it writes.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// withObs wraps next with the observability spine: request-ID propagation, a
// per-request trace-root span that stage spans report into (joining the
// inbound traceparent's trace when one arrives), per-route request counters
// and latency histograms, the flight recorder, and one structured log line
// per request. It wraps the mux rather than each route so that the replies
// the mux writes itself (a redirect to the clean path) carry a request ID and
// are counted too; the route is the label of the pattern the mux will match.
func withObs(logger *slog.Logger, rec *obs.Recorder, next *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		_, pattern := next.Handler(r)
		route, ok := routeLabels[pattern]
		if !ok {
			route = "other"
		}

		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), id)
		if tc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx = obs.WithTraceContext(ctx, tc)
		}
		ctx = obs.WithRecorder(ctx, rec)
		ctx, sp := obs.StartSpan(ctx, route)
		if from := r.Header.Get(headerForwarded); from != "" {
			sp.SetAttr("forwarded_from", from)
		}
		w.Header().Set(requestIDHeader, id)
		w.Header().Set(obs.TraceparentHeader, sp.TraceContext().Traceparent())

		sw := &statusWriter{ResponseWriter: w}
		obsHTTPInFlight.Inc()
		next.ServeHTTP(sw, r.WithContext(ctx))
		obsHTTPInFlight.Dec()

		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing; net/http sends 200
		}
		elapsed := time.Since(start)
		obsHTTPRequests.With(route, strconv.Itoa(status)).Inc()
		obsHTTPSeconds.With(route).ObserveDuration(elapsed)

		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", status),
			slog.Int64("bytes", sw.bytes),
		}
		attrs = append(attrs, sp.LogAttrs()...)
		logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)

		// End after the log line so LogAttrs sees a live span; failed/slow
		// retention in the recorder triggers here.
		if status >= 400 {
			sp.SetError("HTTP " + strconv.Itoa(status))
		}
		sp.End()
	})
}

// debugMux builds the standalone handler the -debug-addr listener serves:
// the routing table's debug rows, which sit on the main listener otherwise.
func (s *server) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	s.mount(mux, true)
	return mux
}
