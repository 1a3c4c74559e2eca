#!/usr/bin/env bash
# Serving-layer smoke (DESIGN.md §11): boots qf_server on an ephemeral
# loopback port, drives it with qf_loadgen (4 connections of pipelined Zipf
# ingest, ~5 s), performs a drain -> checkpoint -> restart round trip over
# a --wal-dir (the final checkpoint of a clean shutdown), and
# validates the Prometheus expositions with qf_top --check-prom. CI's
# serve-smoke job runs exactly this script.
#
# Usage: tools/serve_smoke.sh [build_dir] [items] [expect_rate]
#   build_dir    cmake build tree holding tools/ binaries (default: build)
#   items        total items for the main load phase (default: 4000000)
#   expect_rate  if > 0, fail unless loadgen sustains this items/s (default 0;
#                hosted CI runners are too noisy for the 1M/s acceptance gate,
#                which is checked on dedicated hardware instead)
set -euo pipefail

BUILD="${1:-build}"
ITEMS="${2:-4000000}"
EXPECT_RATE="${3:-0}"
for bin in qf_server qf_loadgen qf_top; do
  [[ -x "${BUILD}/tools/${bin}" ]] || {
    echo "serve_smoke: ${BUILD}/tools/${bin} not built" >&2; exit 2; }
done

TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [[ -n "${SERVER_PID}" ]] && kill "${SERVER_PID}" 2>/dev/null || true
  rm -rf "${TMP}"
}
trap cleanup EXIT

start_server() {  # $1 = log file; extra args pass through
  local log="$1"; shift
  "${BUILD}/tools/qf_server" --port=0 --shards=4 "$@" > "${log}" 2>&1 &
  SERVER_PID=$!
  # --port=0 binds an ephemeral port; parse it from the listening banner.
  PORT=""
  for _ in $(seq 1 100); do
    # The background shell may not have created the log yet: not yet.
    if [[ -f "${log}" ]]; then
      PORT="$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "${log}" | head -1)"
    fi
    [[ -n "${PORT}" ]] && return 0
    kill -0 "${SERVER_PID}" 2>/dev/null || break
    sleep 0.1
  done
  echo "serve_smoke: server failed to report a port" >&2
  if [[ -f "${log}" ]]; then cat "${log}" >&2; fi
  exit 1
}

echo "== phase 1: load + drain + checkpoint =="
# A clean shutdown of a --wal-dir server writes a final checkpoint.
start_server "${TMP}/server1.log" --wal-dir="${TMP}/wal1" \
  --metrics-prom="${TMP}/server.prom" --metrics-interval-ms=200
LOADGEN_ARGS=(--port="${PORT}" --connections=4 --items="${ITEMS}"
              --drain --stats --shutdown
              --metrics-prom="${TMP}/loadgen.prom")
[[ "${EXPECT_RATE}" -gt 0 ]] && LOADGEN_ARGS+=(--expect-rate="${EXPECT_RATE}")
"${BUILD}/tools/qf_loadgen" "${LOADGEN_ARGS[@]}"
wait "${SERVER_PID}"; SERVER_PID=""
cat "${TMP}/server1.log"
ls "${TMP}/wal1"/ckpt-*.qfck > /dev/null 2>&1 || {
  echo "serve_smoke: no checkpoint written" >&2; exit 1; }

echo "== phase 2: restart from checkpoint =="
start_server "${TMP}/server2.log" --wal-dir="${TMP}/wal1"
"${BUILD}/tools/qf_loadgen" --port="${PORT}" --connections=1 --items=100000 \
  --drain --stats --shutdown
wait "${SERVER_PID}"; SERVER_PID=""
cat "${TMP}/server2.log"
grep -q "checkpoint restored" "${TMP}/server2.log" || {
  echo "serve_smoke: restart did not restore the checkpoint" >&2; exit 1; }

echo "== phase 3: multi-reactor serving (SO_REUSEPORT) =="
# A 2-reactor server must survive concurrent ingest + a global quiesce
# (drain) + protocol shutdown; conservation is checked server-side by
# qf_loadgen --stats (ingested == processed after the drain).
start_server "${TMP}/server3.log" --reactors=2
"${BUILD}/tools/qf_loadgen" --port="${PORT}" --connections=4 \
  --items=200000 --drain --stats --shutdown
wait "${SERVER_PID}"; SERVER_PID=""
cat "${TMP}/server3.log"
grep -q "2 reactors" "${TMP}/server3.log" || {
  echo "serve_smoke: server did not boot 2 reactors" >&2; exit 1; }

echo "== phase 4: validate Prometheus expositions =="
"${BUILD}/tools/qf_top" --check-prom="${TMP}/server.prom"
"${BUILD}/tools/qf_top" --check-prom="${TMP}/loadgen.prom"

echo "== phase 5: durable WAL crash recovery (kill -9 mid-load) =="
# A 2-reactor server logging to a WAL, with background checkpoints, dies
# hard mid-ingest; the restart must restore the newest checkpoint, replay
# the log tail past it (DESIGN.md §14) and then serve a clean drain with
# conservation intact (checked server-side by qf_loadgen --stats).
WAL="${TMP}/wal"
start_server "${TMP}/server5.log" --reactors=2 --wal-dir="${WAL}" \
  --checkpoint-interval=100000
# Far more items than one second serves, so the kill lands mid-load with a
# log tail past the newest checkpoint.
"${BUILD}/tools/qf_loadgen" --port="${PORT}" --connections=2 \
  --items=50000000 > "${TMP}/loadgen5.log" 2>&1 &
LOADGEN_PID=$!
sleep 1
kill -9 "${SERVER_PID}"; SERVER_PID=""
wait "${LOADGEN_PID}" || true  # the load dies with the server: expected
ls "${WAL}"/seg-*.qfwal > /dev/null 2>&1 || {
  echo "serve_smoke: no WAL segments written before the kill" >&2; exit 1; }

start_server "${TMP}/server6.log" --reactors=2 --wal-dir="${WAL}"
"${BUILD}/tools/qf_loadgen" --port="${PORT}" --connections=1 --items=100000 \
  --drain --stats --shutdown
wait "${SERVER_PID}"; SERVER_PID=""
cat "${TMP}/server6.log"
grep -Eq "recovered: replayed [1-9][0-9]* records" "${TMP}/server6.log" || {
  echo "serve_smoke: restart did not replay the WAL tail" >&2; exit 1; }
grep -q "checkpoint restored" "${TMP}/server6.log" || {
  echo "serve_smoke: restart did not restore a background checkpoint" >&2
  exit 1; }
echo "serve_smoke: ok"
