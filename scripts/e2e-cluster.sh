#!/usr/bin/env bash
# Boots a 3-node pland ring, drives mixed traffic through every node with
# cmd/loadgen, SIGTERMs one node mid-run, and asserts the clustering
# contract: one node's solve serves the other nodes as a fleet cache hit, the
# killed node drains gracefully and hands its sessions to the ring successor,
# the handed-off sessions keep serving with byte-identical fingerprints, and
# the load run passes its latency/error/loss gates across the failover. Run
# from the repo root; CI runs it next to the smoke and crash-recovery scripts.
set -euo pipefail

PORTS=(18091 18092 18093)
URLS=()
for p in "${PORTS[@]}"; do URLS+=("http://127.0.0.1:$p"); done
PEERS=$(IFS=,; echo "${URLS[*]}")
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "e2e-cluster: $*" >&2
  for i in 0 1 2; do
    echo "--- node$i log ---" >&2
    cat "$WORK/node$i.log" >&2 || true
  done
  [ -f "$WORK/report.json" ] && { echo "--- load report ---" >&2; cat "$WORK/report.json" >&2; }
  exit 1
}

go build -o "$WORK/pland" ./cmd/pland
go build -o "$WORK/loadgen" ./cmd/loadgen

# Boot the ring. Every node advertises itself in -peers; the aggressive
# health cadence keeps the routing reaction inside the test's timescale.
for i in 0 1 2; do
  "$WORK/pland" -addr "127.0.0.1:${PORTS[$i]}" -log-format json \
    -data-dir "$WORK/data$i" -self "${URLS[$i]}" -peers "$PEERS" \
    -health-interval 200ms -health-fail 2 -drain-grace 600ms -drain 20s \
    -trace-sample 1 -trace-buffer 4096 \
    >>"$WORK/node$i.log" 2>&1 &
  PIDS+=($!)
done
for i in 0 1 2; do
  ok=""
  for _ in $(seq 1 50); do
    curl -fsS "${URLS[$i]}/readyz" >/dev/null 2>&1 && { ok=1; break; }
    sleep 0.1
  done
  [ -n "$ok" ] || fail "node$i never became ready"
done

# The fleet plan cache: a plan request is forwarded to the owner of its
# canonical key, which solves it and serves every isomorphic request from its
# planner. When node0 owns the instance, its solve is served, reordered,
# through node1 and through node2 as a fleet hit, while node0's own repeat is
# a plain cache hit. When another node owns it, that owner's own request is a
# plain hit, so each attempt plans a fresh instance (its capacity moves) until
# node0 is the owner.
fleet_ok=""
for k in $(seq 0 9); do
  q=$((30 + k))
  curl -fsS "${URLS[0]}/v1/plan" \
    -d "{\"problem\":\"A2A\",\"capacity\":$q,\"sizes\":[9,4,7,2,6,3,5,8]}" >/dev/null ||
    fail "fleet plan on node0 failed"
  sleep 0.2
  hits=0
  for i in 1 2; do
    resp=$(curl -fsS "${URLS[$i]}/v1/plan" \
      -d "{\"problem\":\"A2A\",\"capacity\":$q,\"sizes\":[8,5,3,6,2,7,4,9]}") ||
      fail "reordered plan on node$i failed"
    grep -q '"fleet_cache_hit":true' <<<"$resp" && hits=$((hits + 1))
  done
  if [ "$hits" -eq 2 ]; then
    resp=$(curl -fsS "${URLS[0]}/v1/plan" \
      -d "{\"problem\":\"A2A\",\"capacity\":$q,\"sizes\":[9,4,7,2,6,3,5,8]}") ||
      fail "repeat plan on node0 failed"
    grep -q '"cache_hit":true' <<<"$resp" && ! grep -q '"fleet_cache_hit":true' <<<"$resp" ||
      fail "node0's repeat of its own solve is not a plain cache hit: $resp"
    fleet_ok=1
    break
  fi
done
[ -n "$fleet_ok" ] || fail "node1 and node2 never both served node0's solve as a fleet hit in 10 instances"

# Plant probe sessions through node0 until at least two land on the victim
# (node2). Placement follows the ID's ring position, so this takes a handful
# of draws. Record each probe's fingerprint — the handoff must preserve it.
VICTIM="${URLS[2]}"
PROBE_IDS=()
PROBE_FPS=()
for _ in $(seq 1 60); do
  resp=$(curl -fsS "${URLS[0]}/v2/sessions" \
    -d '{"capacity":24,"sizes":[5,3,7,2,6]}') || fail "probe create failed"
  node=$(sed -n 's/.*"node":"\([^"]*\)".*/\1/p' <<<"$resp")
  sid=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$resp")
  fp=$(sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p' <<<"$resp")
  [ -n "$sid" ] && [ -n "$node" ] && [ -n "$fp" ] ||
    fail "probe create response lacks id/node/fingerprint: $resp"
  if [ "$node" = "$VICTIM" ]; then
    # Churn it first so the handed-off state is more than its creation shape.
    curl -fsS -X PATCH "${URLS[0]}/v2/sessions/$sid" \
      -d '{"deltas":[{"op":"add","size":4}]}' >/dev/null ||
      fail "probe delta on $sid failed"
    fp=$(curl -fsS "${URLS[1]}/v2/sessions/$sid" |
      sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p')
    [ -n "$fp" ] || fail "probe $sid readback lost its fingerprint"
    PROBE_IDS+=("$sid")
    PROBE_FPS+=("$fp")
    [ "${#PROBE_IDS[@]}" -ge 2 ] && break
  fi
done
[ "${#PROBE_IDS[@]}" -ge 2 ] ||
  fail "could not place 2 probe sessions on the victim in 60 draws"

# One more forwarded create, this time capturing the response headers: the
# traceparent names a single trace whose span records must exist on BOTH the
# entry node and the owner, and GET /debug/traces/{id} on the entry node must
# merge the two halves. This has to run before the victim dies — its half of
# the trace lives in its in-memory flight recorder.
TID=""
for _ in $(seq 1 60); do
  resp=$(curl -fsS -D "$WORK/probe.headers" "${URLS[0]}/v2/sessions" \
    -d '{"capacity":24,"sizes":[5,3,7,2,6]}') || fail "traced probe create failed"
  node=$(sed -n 's/.*"node":"\([^"]*\)".*/\1/p' <<<"$resp")
  if [ "$node" = "$VICTIM" ]; then
    TID=$(tr -d '\r' <"$WORK/probe.headers" |
      awk -F': ' 'tolower($1)=="traceparent"{print $2}' | awk -F- '{print $2}')
    break
  fi
done
[ -n "$TID" ] || fail "no forwarded create produced a traceparent in 60 draws"
# The entry node's record commits as its handler returns, which can race the
# client seeing the response — retry the fetch briefly.
trace_ok=""
for _ in $(seq 1 20); do
  if curl -fsS "${URLS[0]}/debug/traces/$TID" >"$WORK/trace.json" 2>/dev/null &&
     grep -q '"name":"forward"' "$WORK/trace.json" &&
     grep -q "\"node\":\"${URLS[0]}\"" "$WORK/trace.json" &&
     grep -q "\"node\":\"$VICTIM\"" "$WORK/trace.json"; then
    trace_ok=1
    break
  fi
  sleep 0.1
done
[ -n "$trace_ok" ] ||
  fail "trace $TID never merged forward + both-node records on node0: $(cat "$WORK/trace.json" 2>/dev/null)"
grep -q "$TID" "$WORK/node0.log" || fail "trace $TID absent from node0's log"
grep -q "$TID" "$WORK/node2.log" || fail "trace $TID absent from node2's log"

# Drive mixed traffic through all three nodes while the victim goes away.
# The gates encode the acceptance bar: bounded p99 across the failover, a
# small error budget, and zero acknowledged sessions lost. The rate is sized
# for a small CI runner — a cold A2A solve costs ~50ms of CPU and all three
# nodes share the same machine, so ~6 cold solves/s keeps the fleet loaded
# without drowning it in queueing delay that would only measure the runner.
"$WORK/loadgen" -targets "$PEERS" -rate 12 -duration 12s \
  -mix plan=5,execute=3,churn=2 -capacity 24 -inputs 8 -seed 42 \
  -max-p99 2500ms -max-error-rate 0.02 -require-zero-lost -lost-timeout 5s \
  -out "$WORK/report.json" >>"$WORK/loadgen.log" 2>&1 &
LG_PID=$!

sleep 4
kill -TERM "${PIDS[2]}"
if ! wait "${PIDS[2]}"; then fail "victim node did not drain cleanly on SIGTERM"; fi
PIDS=("${PIDS[0]}" "${PIDS[1]}")

# The victim's sessions must now be served by the survivors, fingerprints
# intact.
for j in "${!PROBE_IDS[@]}"; do
  sid="${PROBE_IDS[$j]}"
  want="${PROBE_FPS[$j]}"
  resp=$(curl -fsS "${URLS[0]}/v2/sessions/$sid") ||
    fail "probe $sid unreachable after the victim drained"
  got=$(sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p' <<<"$resp")
  node=$(sed -n 's/.*"node":"\([^"]*\)".*/\1/p' <<<"$resp")
  [ "$got" = "$want" ] ||
    fail "probe $sid fingerprint changed across handoff: $want -> $got"
  [ "$node" != "$VICTIM" ] || fail "probe $sid still claims the dead node"
  # ...and it must still take writes on its new home.
  curl -fsS -X PATCH "${URLS[1]}/v2/sessions/$sid" \
    -d '{"deltas":[{"op":"add","size":2}]}' |
    grep -q '"applied":1' || fail "probe $sid refused a delta after handoff"
done

# At least one survivor must have booked the received handoffs.
received=0
for i in 0 1; do
  curl -fsS -o "$WORK/metrics$i.txt" "${URLS[$i]}/metrics" ||
    fail "metrics scrape of node$i failed"
  n=$(awk '/^pland_cluster_handoffs_total\{outcome="received"\}/ { s += $NF } END { print s + 0 }' \
    "$WORK/metrics$i.txt")
  received=$((received + n))
done
[ "$received" -ge "${#PROBE_IDS[@]}" ] ||
  fail "survivors report $received received handoffs, want >= ${#PROBE_IDS[@]}"

# The load run must pass its own gates (loadgen exits 1 on violation).
if ! wait "$LG_PID"; then
  echo "--- loadgen log ---" >&2
  cat "$WORK/loadgen.log" >&2 || true
  fail "load run violated its gates"
fi
echo "--- load report ---"
cat "$WORK/report.json"

# Survivors drain cleanly too.
for pid in "${PIDS[@]}"; do
  kill -TERM "$pid"
  wait "$pid" || fail "survivor did not exit cleanly"
done
PIDS=()
echo "e2e cluster failover OK"
