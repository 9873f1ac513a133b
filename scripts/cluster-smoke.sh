#!/usr/bin/env bash
# Smoke-test the multi-process cluster the way an operator would: start a
# kkcoord coordinator and three kkrank workers over localhost TCP, SIGKILL
# one worker mid-run, offer a replacement, and require (a) the coordinator
# to report exactly the failover, (b) the job to finish, and (c) the merged
# per-rank walk dump to be byte-identical to an uninterrupted
# single-process kkwalk run of the same job.
# Used by CI; runnable locally with `scripts/cluster-smoke.sh`.
set -euo pipefail

DIR="$(mktemp -d)"
WORKER_PIDS=()
COORD_PID=""
trap 'kill "$COORD_PID" "${WORKER_PIDS[@]}" 2>/dev/null || true; rm -rf "$DIR"' EXIT

go build -o "$DIR/kkgen" ./cmd/kkgen
go build -o "$DIR/kkwalk" ./cmd/kkwalk
go build -o "$DIR/kkcoord" ./cmd/kkcoord
go build -o "$DIR/kkrank" ./cmd/kkrank

"$DIR/kkgen" -kind powerlaw -n 3000 -min 2 -cap 200 -alpha 2.1 -o "$DIR/g.txt"

ARGS=(-graph "$DIR/g.txt" -alg deepwalk -length 400 -walkers 3000 -seed 42)

# Reference: same job, one process, same partition count.
"$DIR/kkwalk" "${ARGS[@]}" -nodes 3 -dump "$DIR/ref.txt" -quiet

"$DIR/kkcoord" "${ARGS[@]}" -ranks 3 \
    -checkpoint-dir "$DIR/ckpt" -checkpoint-every 16 \
    -dump-dir "$DIR/dumps" \
    -addr-file "$DIR/coord.addr" \
    -gather-timeout 60s -net-timeout 10s \
    -json >"$DIR/summary.json" 2>"$DIR/coord.log" &
COORD_PID=$!

for i in $(seq 1 50); do
    [ -s "$DIR/coord.addr" ] && break
    if ! kill -0 "$COORD_PID" 2>/dev/null; then
        echo "cluster-smoke: kkcoord exited before binding; log:" >&2
        cat "$DIR/coord.log" >&2
        exit 1
    fi
    sleep 0.1
done
COORD_ADDR="$(cat "$DIR/coord.addr")"

for i in 1 2 3; do
    "$DIR/kkrank" -coord "$COORD_ADDR" 2>"$DIR/rank$i.log" &
    WORKER_PIDS+=($!)
done

# Wait until the run is past its first committed checkpoint (a ckpt-*/
# MANIFEST, which appears only when the checkpoint commits), then SIGKILL one
# worker and offer a replacement process.
for i in $(seq 1 1200); do
    if compgen -G "$DIR/ckpt/ckpt-*/MANIFEST" >/dev/null; then break; fi
    kill -0 "$COORD_PID" 2>/dev/null || break
    sleep 0.05
done
kill -9 "${WORKER_PIDS[1]}" 2>/dev/null \
    || { echo "cluster-smoke: run finished before the kill; lengthen the walk" >&2; exit 1; }

"$DIR/kkrank" -coord "$COORD_ADDR" 2>"$DIR/rank4.log" &
WORKER_PIDS+=($!)

if ! wait "$COORD_PID"; then
    echo "cluster-smoke: kkcoord failed; log:" >&2
    cat "$DIR/coord.log" >&2
    exit 1
fi
COORD_PID=""

grep -q '"failovers":1' "$DIR/summary.json" \
    || { echo "cluster-smoke: expected exactly one failover; summary: $(cat "$DIR/summary.json")" >&2; exit 1; }
grep -q 'resume superstep' "$DIR"/rank*.log \
    || { echo "cluster-smoke: no rank logged a checkpoint resume" >&2; exit 1; }

# Determinism: merge the per-rank dumps (sort by walker ID, strip the ID
# column) and compare byte-for-byte with the uninterrupted reference.
cat "$DIR"/dumps/walks-rank*.txt | sort -n -k1,1 | cut -d' ' -f2- >"$DIR/merged.txt"
if ! cmp -s "$DIR/merged.txt" "$DIR/ref.txt"; then
    echo "cluster-smoke: recovered cluster dump differs from uninterrupted reference" >&2
    exit 1
fi

echo "cluster-smoke: OK (failover + checkpoint resume, dump bit-identical)"
