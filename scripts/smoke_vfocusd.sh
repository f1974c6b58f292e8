#!/usr/bin/env bash
# Smoke-test the vfocusd daemon end to end, from outside the process:
#
#   1. start vfocusd on a private port
#   2. submit a (golden, buggy-candidate-pool) job and stream it to a
#      completed terminal event with at least one ranked cluster
#   3. submit a second job and cancel it mid-flight by ID
#   4. SIGTERM the daemon and require a clean drain (exit code 0)
#
# In-tree tests (internal/serve) already drive the same paths with
# deterministic fault injection and a zero-goroutine-leak check; this script
# is the black-box complement proving the built binary wires them together.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
LOG="$(mktemp)"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/vfocusd"
STOREDIR=""
PID=""

# On every exit: kill a daemon still running, print its log, and remove what
# this script made under the temp dir (log, built binary, store directory).
cleanup() {
    if [ -n "$PID" ]; then kill -9 "$PID" 2>/dev/null || true; fi
    cat "$LOG"
    rm -rf "$LOG" "$BINDIR" ${STOREDIR:+"$STOREDIR"}
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/vfocusd

# VFOCUSD_SLOW_BATCH_MS throttles every rank batch through the daemon's
# fault-injection harness so the cancel below reliably lands while the job
# is live; it does not change any result, only pacing.
VFOCUSD_SLOW_BATCH_MS=300 \
    "$BIN" -addr "127.0.0.1:${PORT}" -workers 1 -queue-cap 8 -drain-timeout 8s >"$LOG" 2>&1 &
PID=$!

for _ in $(seq 1 100); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null

# --- happy path: explicit candidate pool, streamed to completion ----------
cand() { printf 'module top_module(\\n input a,\\n input b,\\n output y\\n);\\n assign y = %s;\\nendmodule\\n' "$1"; }
SUBMIT=$(curl -fsS -X POST "$BASE/jobs" -d "{
  \"id\": \"smoke-ok\",
  \"task_id\": \"cmb_gate_00_and2\",
  \"seed\": 7,
  \"candidates\": [\"$(cand 'a & b')\", \"$(cand 'a | b')\", \"$(cand 'a | b')\", \"$(cand 'a ^ b')\"]
}")
echo "submit: $SUBMIT"
STREAM=$(curl -fsS --max-time 60 "$BASE/jobs/smoke-ok/stream")
echo "$STREAM"
grep -q '"type":"cluster"' <<<"$STREAM" || { echo "FAIL: no cluster events"; exit 1; }
tail -n1 <<<"$STREAM" | grep -q '"status":"completed"' || { echo "FAIL: job did not complete"; exit 1; }

# --- cancel mid-flight ----------------------------------------------------
# With the batch throttle on and one worker, the generated-pool job stays
# mid-compute for seconds; the queued job behind it is cancelled while
# provably live, then the running one is cancelled mid-batch.
curl -fsS -X POST "$BASE/jobs" -d '{"id":"smoke-busy","task_id":"seq_cnt_00_bin4","samples":200,"seed":11}' >/dev/null
curl -fsS -X POST "$BASE/jobs" -d '{"id":"smoke-cancel","task_id":"seq_cnt_00_bin4","samples":200,"seed":13}' >/dev/null
# Cancel the running job first (mid-batch), then the queued one; both are
# provably live at cancel time. Streams are drained afterwards — the queued
# job's terminal event only lands once a worker pops it.
for ID in smoke-busy smoke-cancel; do
    CANCELLED=$(curl -fsS -X POST "$BASE/jobs/$ID/cancel")
    echo "cancel $ID: $CANCELLED"
    grep -q '"cancelled":true' <<<"$CANCELLED" || { echo "FAIL: $ID was not live at cancel time"; exit 1; }
done
for ID in smoke-busy smoke-cancel; do
    TERM_EV=$(curl -fsS --max-time 60 "$BASE/jobs/$ID/stream" | tail -n1)
    echo "terminal $ID: $TERM_EV"
    grep -q '"status":"cancelled"' <<<"$TERM_EV" || { echo "FAIL: cancelled job $ID did not report cancelled"; exit 1; }
done

# --- graceful shutdown ----------------------------------------------------
kill -TERM "$PID"
if ! wait "$PID"; then
    echo "FAIL: vfocusd exited non-zero on SIGTERM"
    exit 1
fi
PID=""
grep -q "drained cleanly" "$LOG" || { echo "FAIL: no clean-drain log line"; exit 1; }

# --- warm restart via the persistent result store -------------------------
# Run the same job in two daemon processes sharing one -store-dir. The first
# simulates and publishes fingerprints; the second must complete the job with
# ZERO simulations — every fingerprint comes off disk — which /statsz makes
# externally observable.
STOREDIR="$(mktemp -d)"

start_store_daemon() {
    "$BIN" -addr "127.0.0.1:${PORT}" -workers 1 -store disk -store-dir "$STOREDIR" >"$LOG" 2>&1 &
    PID=$!
    for _ in $(seq 1 100); do
        curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
        sleep 0.1
    done
    curl -fsS "$BASE/healthz" >/dev/null
}

run_store_job() { # $1 job id -> streams the fixed job to completion
    curl -fsS -X POST "$BASE/jobs" -d "{
      \"id\": \"$1\",
      \"task_id\": \"cmb_gate_00_and2\",
      \"seed\": 7,
      \"candidates\": [\"$(cand 'a & b')\", \"$(cand 'a | b')\", \"$(cand 'a | b')\", \"$(cand 'a ^ b')\"]
    }" >/dev/null
    STREAM=$(curl -fsS --max-time 60 "$BASE/jobs/$1/stream")
    tail -n1 <<<"$STREAM" | grep -q '"status":"completed"' || { echo "FAIL: $1 did not complete"; exit 1; }
}

statsz() { # $1 field name -> value
    curl -fsS "$BASE/statsz" | sed -E "s/.*\"$1\":([0-9]+).*/\1/"
}

start_store_daemon
run_store_job smoke-store-cold
COLD_SIMS=$(statsz fp_sims)
COLD_PUTS=$(statsz store_puts)
echo "cold daemon: fp_sims=$COLD_SIMS store_puts=$COLD_PUTS"
# The shipped binary wires the LLM-backend and remote-tier counters into
# /statsz (default backend: the hermetic simulated client).
curl -fsS "$BASE/statsz" | grep -q '"llm_backend":"sim"' \
    || { echo "FAIL: /statsz missing llm_backend"; exit 1; }
curl -fsS "$BASE/statsz" | grep -q '"remote_retries"' \
    || { echo "FAIL: /statsz missing remote-tier counters"; exit 1; }
[ "$COLD_SIMS" -gt 0 ] || { echo "FAIL: cold daemon simulated nothing"; exit 1; }
[ "$COLD_PUTS" -gt 0 ] || { echo "FAIL: cold daemon published nothing to the store"; exit 1; }
kill -TERM "$PID"
wait "$PID" || { echo "FAIL: store daemon exited non-zero on SIGTERM"; exit 1; }
PID=""

start_store_daemon
run_store_job smoke-store-warm
WARM_SIMS=$(statsz fp_sims)
WARM_HITS=$(statsz store_hits)
echo "warm-restarted daemon: fp_sims=$WARM_SIMS store_hits=$WARM_HITS"
[ "$WARM_SIMS" -eq 0 ] || { echo "FAIL: warm-restarted daemon simulated ($WARM_SIMS sims)"; exit 1; }
[ "$WARM_HITS" -gt 0 ] || { echo "FAIL: warm-restarted daemon reported no store hits"; exit 1; }
kill -TERM "$PID"
wait "$PID" || { echo "FAIL: store daemon exited non-zero on SIGTERM"; exit 1; }
PID=""

echo "PASS: vfocusd smoke"
