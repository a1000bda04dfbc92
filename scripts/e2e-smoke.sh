#!/usr/bin/env bash
# Boots a real pland binary, drives a plan / execute / job / session round
# trip through the HTTP surface, then scrapes /metrics and asserts the series
# the observability spine promises are present and non-zero. Run from the
# repo root; CI runs it after the unit suites.
set -euo pipefail

ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
LOG="$WORK/pland.log"
BIN="$WORK/pland"

cleanup() {
  [ -n "${PLAND_PID:-}" ] && kill "$PLAND_PID" 2>/dev/null || true
  [ -n "${PLAND_PID:-}" ] && wait "$PLAND_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "e2e: $*" >&2
  echo "--- pland log ---" >&2
  cat "$LOG" >&2 || true
  exit 1
}

go build -o "$BIN" ./cmd/pland

# -trace-sample 1 keeps every trace so the flight-recorder assertions below
# are deterministic. TMPDIR confines the execution engine's spill-run
# directories to $SPILL so the cleanup assertion below can see leftovers.
SPILL="$WORK/spill"
mkdir -p "$SPILL"
TMPDIR="$SPILL" "$BIN" -addr "$ADDR" -log-format json -trace-sample 1 >"$LOG" 2>&1 &
PLAND_PID=$!

for i in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && fail "pland never became healthy on $ADDR"
  sleep 0.1
done

# Synchronous plan; the response must carry a request ID, a traceparent, and
# a schema.
curl -fsS -D "$WORK/plan.headers" -o "$WORK/plan.json" "$BASE/v1/plan" \
  -d '{"problem":"A2A","capacity":10,"sizes":[3,3,2,2,4,1]}'
rid=$(tr -d '\r' <"$WORK/plan.headers" | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')
[ -n "$rid" ] || fail "no X-Request-ID on /v1/plan"
# traceparent is 00-<trace-id>-<span-id>-<flags>; field 2 is the trace ID.
tid=$(tr -d '\r' <"$WORK/plan.headers" | awk -F': ' 'tolower($1)=="traceparent"{print $2}' | awk -F- '{print $2}')
[ -n "$tid" ] || fail "no traceparent on /v1/plan"
grep -q '"schema"' "$WORK/plan.json" || fail "plan response has no schema"

# Plan-and-run: the execution must come back audited. The same instance goes
# in three times: the executor's compile cache retains a schema the second
# time it sees it, so the third run is a hit (asserted on /metrics below).
for i in 1 2 3; do
  curl -fsS "$BASE/v1/execute" \
    -d '{"problem":"A2A","capacity":10,"inputs":["aaa","bbb","cc","d"]}' |
    grep -q '"audited":true' || fail "execute $i was not audited"
done

# One input requires no pair and runs nothing; it is an audited run all the
# same.
curl -fsS "$BASE/v1/execute" \
  -d '{"problem":"A2A","capacity":10,"inputs":["alone"]}' |
  grep -q '"audited":true' || fail "one-input execute was not audited"

# Streamed execute: a memory budget far below the shuffle volume forces the
# pipelined engine to spill: it appends every run to the execution's one spill
# file, reads each reducer's runs back in index order (there is nothing to
# sort or merge), and reports the realized spill volume — still audited, same
# output contract.
curl -fsS -o "$WORK/exec-stream.json" "$BASE/v1/execute" \
  -d '{"problem":"A2A","capacity":10,"inputs":["aaa","bbb","cc","d","ee","fff"],"memory_budget":16}'
grep -q '"audited":true' "$WORK/exec-stream.json" || fail "spilling execute was not audited"
grep -q '"spill_runs":' "$WORK/exec-stream.json" || fail "memory_budget=16 execute reported no spill_runs"
grep -q '"spill_bytes":' "$WORK/exec-stream.json" || fail "spilling execute reported no spill_bytes"
# Spill directories are per-run temp dirs and must be gone once the response
# is out.
if compgen -G "$SPILL/mr-spill-*" >/dev/null; then
  fail "spill temp dirs left behind: $(ls "$SPILL")"
fi

# Async job round trip: submit, poll to succeeded.
job=$(curl -fsS "$BASE/v2/jobs" \
  -d '{"type":"plan","plan":{"problem":"A2A","capacity":10,"sizes":[4,4,2]}}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$job" ] || fail "job submit returned no ID"
state=""
for i in $(seq 1 100); do
  state=$(curl -fsS "$BASE/v2/jobs/$job" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  [ "$state" = succeeded ] && break
  { [ "$state" = failed ] || [ "$state" = canceled ]; } && fail "job ended $state"
  sleep 0.1
done
[ "$state" = succeeded ] || fail "job never finished (state=$state)"

# Session round trip: create, patch a delta batch, delete.
sid=$(curl -fsS "$BASE/v2/sessions" -d '{"capacity":20,"sizes":[5,3,7]}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$sid" ] || fail "session create returned no ID"
curl -fsS -X PATCH "$BASE/v2/sessions/$sid" \
  -d '{"deltas":[{"op":"add","size":4},{"op":"resize","id":0,"size":9}]}' |
  grep -q '"applied":2' || fail "session patch did not apply both deltas"
curl -fsS -X DELETE "$BASE/v2/sessions/$sid" >/dev/null || fail "session delete failed"

# Scrape /metrics and assert the spine's series moved.
ct=$(curl -fsS -o "$WORK/metrics.txt" -w '%{content_type}' "$BASE/metrics")
[ "$ct" = "text/plain; version=0.0.4; charset=utf-8" ] || fail "metrics content type: $ct"

assert_nonzero() {
  # $1: a sample-line prefix; passes when some sample of it has value > 0.
  awk -v p="$1" 'index($0, p) == 1 && $NF + 0 > 0 { found = 1 } END { exit found ? 0 : 1 }' \
    "$WORK/metrics.txt" || fail "series $1 is missing or zero"
}
assert_nonzero 'pland_http_requests_total{route="/v1/plan",status="200"}'
assert_nonzero 'pland_http_request_seconds_count'
assert_nonzero 'pland_planner_requests_total'
assert_nonzero 'pland_planner_plan_seconds_count'
assert_nonzero 'pland_jobs_submitted_total'
assert_nonzero 'pland_jobs_finished_total{state="succeeded"}'
assert_nonzero 'pland_jobs_run_seconds_count'
assert_nonzero 'pland_exec_runs_total{outcome="ok"}'
assert_nonzero 'pland_exec_pairs_total'
assert_nonzero 'pland_exec_compile_total{outcome="hit"}'
grep -q '^pland_exec_compile_cache_bytes ' "$WORK/metrics.txt" || fail "no pland_exec_compile_cache_bytes gauge"
assert_nonzero 'pland_exec_spill_runs_total'
assert_nonzero 'pland_exec_spill_bytes_total'
assert_nonzero 'pland_exec_spill_partitions_total'
grep -q '^pland_exec_pipeline_depth ' "$WORK/metrics.txt" || fail "no pland_exec_pipeline_depth gauge"
assert_nonzero 'pland_stream_deltas_total'
grep -q '^pland_stream_sessions ' "$WORK/metrics.txt" || fail "no pland_stream_sessions gauge"

assert_nonzero 'pland_trace_kept_total'

# pprof sits on the main mux when no -debug-addr is given.
curl -fsS "$BASE/debug/pprof/cmdline" >/dev/null || fail "pprof not mounted"

# The structured request log carries the plan call's request ID.
grep -q "$rid" "$LOG" || fail "request ID $rid absent from the request log"

# Tracing: the response header, the flight recorder, and the request log must
# all agree on the plan call's trace ID.
curl -fsS "$BASE/debug/traces/$tid" >"$WORK/trace.json" || fail "GET /debug/traces/$tid failed"
grep -q "$tid" "$WORK/trace.json" || fail "retained trace does not carry its own ID"
grep -q '"name":"canonicalize"' "$WORK/trace.json" || fail "plan trace has no canonicalize stage span"
grep -q "$tid" "$LOG" || fail "trace ID $tid absent from the request log"
curl -fsS "$BASE/debug/traces?route=/v1/plan" | grep -q "$tid" ||
  fail "/debug/traces?route=/v1/plan does not list trace $tid"
curl -fsS "$BASE/debug/traces/$tid?format=chrome" | grep -q '"traceEvents"' ||
  fail "chrome export has no traceEvents"

kill -TERM "$PLAND_PID"
wait "$PLAND_PID" || fail "pland did not exit cleanly"
PLAND_PID=""
echo "e2e smoke OK"
