#!/usr/bin/env bash
# Cluster smoke (DESIGN.md §16; the CI cluster-smoke job): three durable
# qf_server backends behind a qf_cluster coordinator, loadgen through the
# proxy with one live slot migration mid-load, then a kill -9 of one
# backend and a restart over the same WAL directory. Asserts:
#   - cluster-summed conservation via --stats (every acked item processed)
#   - the migration flipped ownership (topology epoch advanced)
#   - QUERY answers through the proxy are bit-identical to a single-process
#     mirror server fed the exact same stream, before AND after the crash.
#
# Usage: cluster_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD=${1:-build}
SERVER="$BUILD/tools/qf_server"
CLUSTER="$BUILD/tools/qf_cluster"
LOADGEN="$BUILD/tools/qf_loadgen"
WORK=$(mktemp -d)
SLOTS=6
ITEMS=1000000
SAMPLE=2000
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_port() { # logfile -> sets PORT
  PORT=""
  for _ in $(seq 100); do
    # The background shell may not have created the log yet; a missing
    # file means "not yet", not a failed sed (which set -e + pipefail
    # would turn into an exit).
    if [ -f "$1" ]; then
      PORT=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$1" | head -1)
    fi
    [ -n "$PORT" ] && return 0
    sleep 0.1
  done
  echo "cluster_smoke: no listening banner in $1" >&2
  if [ -f "$1" ]; then cat "$1" >&2; fi
  return 1
}

wait_ready() { # coordinator port
  for _ in $(seq 100); do
    if [ "$("$CLUSTER" --connect=127.0.0.1:"$1" --topology \
          | grep -c ' ready$')" -eq 3 ]; then
      return 0
    fi
    sleep 0.2
  done
  echo "cluster_smoke: backends never all ready" >&2
  "$CLUSTER" --connect=127.0.0.1:"$1" --topology >&2 || true
  return 1
}

# --- Boot three durable backends + the coordinator -----------------------
BPORTS=()
for i in 0 1 2; do
  "$SERVER" --port=0 --shards=$SLOTS --wal-dir="$WORK/b$i" \
      > "$WORK/b$i.log" 2>&1 &
  PIDS+=($!)
  wait_port "$WORK/b$i.log"
  BPORTS+=("$PORT")
done
"$CLUSTER" --port=0 --slots=$SLOTS \
    --backends="127.0.0.1:${BPORTS[0]},127.0.0.1:${BPORTS[1]},127.0.0.1:${BPORTS[2]}" \
    > "$WORK/coord.log" 2>&1 &
COORD_PID=$!
PIDS+=("$COORD_PID")
wait_port "$WORK/coord.log"
CPORT=$PORT
wait_ready "$CPORT"

# --- Load through the proxy, migrating slot 0 mid-load -------------------
# One connection: the per-shard substream order is deterministic, so the
# mirror comparison below is exact (see tests/cluster_e2e_test.cc).
"$LOADGEN" --port="$CPORT" --connections=1 --items=$ITEMS \
    --batch=256 --window=8 > "$WORK/load.log" 2>&1 &
LOAD_PID=$!
# Migrate early enough to land while the load is still streaming (the load
# takes ~1 s locally; the e2e gtest asserts the mid-load property exactly).
sleep 0.1
"$CLUSTER" --connect=127.0.0.1:"$CPORT" --migrate=0:1
wait "$LOAD_PID"
cat "$WORK/load.log"

# Conservation via the summed stats. The durable catch-up path re-ingests
# shipped WAL records into the migration recipient, so ingested can exceed
# the client stream; the invariant is processed == ingested >= ITEMS (the
# strong check is the bit-identity below).
"$CLUSTER" --connect=127.0.0.1:"$CPORT" --drain --stats \
    | tee "$WORK/stats.txt"
read -r ING PROC <<< "$(sed -n \
    's/^cluster: \([0-9]*\) ingested, \([0-9]*\) processed.*/\1 \2/p' \
    "$WORK/stats.txt")"
[ -n "$ING" ] && [ "$ING" -ge "$ITEMS" ] && [ "$ING" -eq "$PROC" ] \
  || { echo "cluster_smoke: conservation failed ($ING/$PROC/$ITEMS)" >&2; exit 1; }
"$CLUSTER" --connect=127.0.0.1:"$CPORT" --topology | tee "$WORK/topo.txt"
grep -q "slot   0 -> backend 1" "$WORK/topo.txt" \
  || { echo "cluster_smoke: migration did not flip slot 0" >&2; exit 1; }

# --- Mirror: one single-process server, same geometry, same stream -------
"$SERVER" --port=0 --shards=$SLOTS > "$WORK/mirror.log" 2>&1 &
PIDS+=($!)
wait_port "$WORK/mirror.log"
MPORT=$PORT
"$LOADGEN" --port="$MPORT" --connections=1 --items=$ITEMS \
    --batch=256 --window=8 --drain > "$WORK/mirror_load.log" 2>&1

# --items=0 is a wrap-up-only pass: query the sample keys, mutate nothing,
# so the comparison can repeat after the crash.
checksum() { # port
  "$LOADGEN" --port="$1" --items=0 --query-sample=$SAMPLE \
      | sed -n 's/.*checksum \([0-9a-f]*\)$/\1/p'
}
MIRROR_SUM=$(checksum "$MPORT")
PROXY_SUM=$(checksum "$CPORT")
echo "cluster_smoke: proxy $PROXY_SUM vs mirror $MIRROR_SUM (post-migration)"
[ -n "$PROXY_SUM" ] && [ "$PROXY_SUM" = "$MIRROR_SUM" ] \
  || { echo "cluster_smoke: answers diverged after migration" >&2; exit 1; }

# --- Crash one backend hard, restart over the same WAL, recheck ----------
kill -9 "${PIDS[2]}"
sleep 0.3
"$SERVER" --port="${BPORTS[2]}" --shards=$SLOTS --wal-dir="$WORK/b2" \
    > "$WORK/b2_restart.log" 2>&1 &
PIDS+=($!)
wait_port "$WORK/b2_restart.log"
wait_ready "$CPORT"

PROXY_SUM=$(checksum "$CPORT")
echo "cluster_smoke: proxy $PROXY_SUM vs mirror $MIRROR_SUM (post-crash)"
[ -n "$PROXY_SUM" ] && [ "$PROXY_SUM" = "$MIRROR_SUM" ] \
  || { echo "cluster_smoke: answers diverged after crash+restart" >&2; exit 1; }

echo "cluster_smoke: PASS"
