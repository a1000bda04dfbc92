// Package obs is the observability spine of the repo: a dependency-free
// metrics registry with Prometheus text-format exposition, and a
// dependency-free distributed tracer — context-propagated span trees that
// thread one request ID and one W3C trace ID through a request's layers and
// across node boundaries, with a tail-sampling flight recorder for
// after-the-fact retrieval via GET /debug/traces.
//
// # Why it exists
//
// The paper's contribution is a cost model — replication and communication
// bounds for multiway-join reducer assignment — and a cost model you cannot
// measure in a running system is unfalsifiable. The planner, job queue,
// session maintenance, and executor each expose counters, gauges, and
// latency histograms; cmd/pland serves them at GET /metrics so per-request
// latency, cache behavior, queue depth, migration bytes, and audit
// violations become scrapeable series instead of one-off log lines.
//
// The module has zero dependencies and this package keeps it that way:
// exposition is hand-written Prometheus text format v0.0.4, and every hot
// counter is a plain atomic — no locks on the Plan/Verify/delta paths.
//
// # Metric naming conventions
//
// Every metric is named
//
//	pland_<subsystem>_<name>_<unit>
//
// where <subsystem> is one of planner, jobs, stream, exec, http, or process,
// and the trailing unit follows the Prometheus conventions:
//
//   - counters end in _total (e.g. pland_planner_requests_total); byte
//     counters end in _bytes_total
//   - gauges carry a bare unit or none (pland_jobs_queue_depth,
//     pland_stream_sessions)
//   - histograms of durations end in _seconds and observe time.Duration
//     values converted to seconds (pland_http_request_seconds); p50/p99 are
//     derivable by any scraper from the exponential _bucket series
//
// Label sets are small and bounded by construction: routes are normalized
// templates ("/v2/jobs/{id}"), solver names come from the fixed portfolio,
// audit classes from the five violation sentinels. Never label by request
// ID, session ID, or anything else unbounded.
//
// # Registration
//
// Metrics are created and registered in one call, and registration is
// idempotent — asking a registry for a name it already holds returns the
// existing collector, provided the type and label arity match (a mismatch
// panics: it is a programming error, not an operational condition).
// A subsystem whose state lives in instances — a planner, a job manager —
// registers its series on its own registry when the instance is built, and
// those series are its only counters: its Stats reads them back, and a
// process running several instances (tests) counts each one's events once,
// where they happened. The process-wide series of the executor, sessions,
// the WAL, the fleet, the HTTP surface and the tracer are package-level
// vars on Default. cmd/pland's scrape writes Default, then its planner's
// series, then its job manager's.
//
// # Tracing
//
// StartSpan(ctx, name) opens a span: a child of the span already in ctx, or
// a trace root when there is none. Roots join the remote trace installed by
// WithTraceContext (the cmd/pland middleware parses the inbound W3C
// traceparent header into it) or mint a fresh 128-bit trace ID. Outbound
// calls render TraceContextFrom(ctx) back into a traceparent header, so a
// forwarded fleet RPC is one trace spanning sender and owner. A nil *Span is
// safe everywhere — instrumented code never checks whether tracing is on —
// and a benchmark running on context.Background() pays only the nil checks.
//
// # Span naming conventions
//
// Root spans are named by the normalized route template ("/v1/plan",
// "/v2/sessions/{id}") — the same vocabulary as the http metrics — or
// "job:<kind>" for async job execution. Child spans use fixed lowercase
// stage names from a closed set: canonicalize, cache, race, solve:<member>
// (portfolio members are a fixed set), exec_compile, audit, replan, swap,
// delta, rebuild, wal_append, queue_wait, run, forward, handoff. Adding a stage name is fine; generating one per request is not.
//
// # Attribute conventions
//
// Span attributes (SetAttr) are bounded per span (16) and follow the same
// key discipline as metric labels: keys come from a fixed vocabulary (peer,
// solver, job_id, session_id, forwarded_from, error_code...). VALUES may be
// unbounded — a peer URL, a job ID — because attributes live on one retained
// trace, not on a metric series. The no-unbounded-labels rule is about
// METRIC label values: never copy a span attribute value into a metric
// label. Trace cardinality is bounded by the flight recorder's ring; metric
// cardinality is forever.
//
// # The flight recorder
//
// A Recorder is a fixed-memory ring of completed trace trees under one
// mutex, holding exactly the newest Capacity retained traces, with
// tail-based retention decided when the root span ends: errored roots
// and roots at or above the slow threshold are always kept; the fast-OK rest
// are sampled deterministically from the trace ID (both nodes of a forwarded
// request keep or drop the same trace). Retention is observable as
// pland_trace_kept_total{reason} (error, slow, sampled) and
// pland_trace_dropped_total{reason} (unsampled, evicted). cmd/pland wires
// the -trace-sample, -trace-slow, and -trace-buffer flags to RecorderConfig
// and serves the ring at GET /debug/traces (+ /debug/traces/{id},
// ?format=chrome for Perfetto).
package obs
