#!/usr/bin/env bash
# Smoke-test the kkserve walk service end to end the way an operator
# would: start the daemon with a preloaded graph, submit a node2vec job
# over HTTP, poll it to completion, fetch the JSON report, check that an
# identical resubmission returns identical walk statistics, and cancel a
# long-running job (it must reach `cancelled` in under 2 seconds).
# Then exercises live ingest: edges posted mid-job must not change a
# pinned job's result, a later job observes the new epoch, and explicit
# compaction folds the overlay. Finally submits a traced job and
# validates the Perfetto trace served at /jobs/{id}/trace.
# Used by CI; runnable locally with `scripts/serve-smoke.sh`.
set -euo pipefail

PORT="${SERVE_SMOKE_PORT:-19754}"
BASE="http://127.0.0.1:$PORT"
DIR="$(mktemp -d)"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

go build -o "$DIR/kkgen" ./cmd/kkgen
go build -o "$DIR/kkserve" ./cmd/kkserve

"$DIR/kkgen" -kind powerlaw -n 2000 -min 2 -cap 200 -alpha 2.1 -o "$DIR/g.txt"

"$DIR/kkserve" -addr "127.0.0.1:$PORT" -workers 2 -graph "pl2000=$DIR/g.txt" \
    2>"$DIR/serve.log" &
SERVE_PID=$!

for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "serve-smoke: kkserve exited before answering; log:" >&2
        cat "$DIR/serve.log" >&2
        exit 1
    fi
    sleep 0.2
done

curl -sf "$BASE/graphs" | grep -q '"pl2000"' \
    || { echo "serve-smoke: preloaded graph missing from /graphs" >&2; exit 1; }

job_id() { grep -o '"id": "[^"]*"' | head -1 | cut -d'"' -f4; }

submit() { curl -sf -X POST "$BASE/jobs" -d "$1"; }

# Poll a job until it reaches the wanted terminal state.
await() { # id want timeout_iters
    local id="$1" want="$2" iters="${3:-150}"
    for i in $(seq 1 "$iters"); do
        STATE="$(curl -sf "$BASE/jobs/$id" | grep -o '"state": "[^"]*"' | cut -d'"' -f4)"
        case "$STATE" in
        "$want") return 0 ;;
        done | failed | cancelled)
            echo "serve-smoke: job $id ended $STATE, want $want" >&2
            return 1
            ;;
        esac
        sleep 0.1
    done
    echo "serve-smoke: job $id still $STATE, want $want" >&2
    return 1
}

N2V='{"graph":"pl2000","alg":"node2vec","length":20,"p":2,"q":0.5,"seed":42,"walkers":2000}'

ID1="$(submit "$N2V" | job_id)"
[ -n "$ID1" ] || { echo "serve-smoke: submission returned no job id" >&2; exit 1; }
await "$ID1" done

curl -sf "$BASE/jobs/$ID1/result" >"$DIR/r1.json"
grep -q '"algorithm": "node2vec"' "$DIR/r1.json" \
    || { echo "serve-smoke: result missing algorithm" >&2; cat "$DIR/r1.json" >&2; exit 1; }
STEPS="$(grep -o '"steps": [0-9]*' "$DIR/r1.json" | head -1 | grep -o '[0-9]*')"
if [ -z "$STEPS" ] || [ "$STEPS" -eq 0 ]; then
    echo "serve-smoke: result reports zero steps" >&2
    exit 1
fi

# Determinism through the service: an identical (graph, seed, params)
# submission must return identical walk statistics (wall-clock fields
# aside).
ID2="$(submit "$N2V" | job_id)"
await "$ID2" done
curl -sf "$BASE/jobs/$ID2/result" >"$DIR/r2.json"
strip() {
    python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))["report"]
for k in list(r):
    if k.endswith("seconds") or k == "steps_per_second":
        del r[k]
print(json.dumps(r, sort_keys=True))
' "$1"
}
if [ "$(strip "$DIR/r1.json")" != "$(strip "$DIR/r2.json")" ]; then
    echo "serve-smoke: identical submissions returned different statistics" >&2
    diff <(strip "$DIR/r1.json") <(strip "$DIR/r2.json") >&2 || true
    exit 1
fi

# Cancellation: a job with an absurd walk length must reach `cancelled`
# within 2 seconds of the DELETE.
LONG='{"graph":"pl2000","alg":"deepwalk","length":10000000,"seed":7,"walkers":2000}'
ID3="$(submit "$LONG" | job_id)"
await "$ID3" running
T0="$(date +%s%N)"
curl -sf -X DELETE "$BASE/jobs/$ID3" >/dev/null
await "$ID3" cancelled
T1="$(date +%s%N)"
MS=$(((T1 - T0) / 1000000))
if [ "$MS" -ge 2000 ]; then
    echo "serve-smoke: cancellation took ${MS}ms, want < 2000ms" >&2
    exit 1
fi

# Fetch the page once and grep the file: `curl | grep -q` under
# pipefail dies of SIGPIPE when grep exits at the first match.
curl -sf "$BASE/metrics" >"$DIR/metrics.txt"
grep -q '^kk_serve_jobs_completed_total 2' "$DIR/metrics.txt" \
    || { echo "serve-smoke: /metrics completed count wrong" >&2; exit 1; }
grep -q '^kk_serve_jobs_cancelled_total 1' "$DIR/metrics.txt" \
    || { echo "serve-smoke: /metrics cancelled count wrong" >&2; exit 1; }

# Live ingest with epoch pinning: a job admitted before an ingest must
# return the exact pre-ingest statistics, while a job submitted after it
# observes the new epoch.
PIN='{"graph":"pl2000","alg":"deepwalk","length":400,"seed":99,"walkers":2000}'
IDA="$(submit "$PIN" | job_id)"
await "$IDA" done
curl -sf "$BASE/jobs/$IDA/result" >"$DIR/rA.json"

# Submit the same spec (pinned to epoch 0 at admission), then ingest a
# batch while it is queued or running.
IDB="$(submit "$PIN" | job_id)"
EDGES='{"edges":[{"src":0,"dst":1500},{"src":1,"dst":1501},{"src":2,"dst":1502},{"src":3,"dst":1503},{"src":4,"dst":1504}]}'
curl -sf -X POST "$BASE/graphs/pl2000/edges" -d "$EDGES" >"$DIR/ingest.json"
grep -q '"epoch": 1' "$DIR/ingest.json" \
    || { echo "serve-smoke: ingest did not publish epoch 1" >&2; cat "$DIR/ingest.json" >&2; exit 1; }
# An ingest epoch is identified by the O(batch) delta-log hash; its
# content hash would cost a full-graph pass, so it is not reported.
grep -q '"epoch_log_fingerprint"' "$DIR/ingest.json" \
    || { echo "serve-smoke: ingest response missing epoch_log_fingerprint" >&2; exit 1; }
if grep -q '"epoch_fingerprint"' "$DIR/ingest.json"; then
    echo "serve-smoke: ingest response carries a content fingerprint" >&2
    exit 1
fi
await "$IDB" done
curl -sf "$BASE/jobs/$IDB/result" >"$DIR/rB.json"
if [ "$(strip "$DIR/rA.json")" != "$(strip "$DIR/rB.json")" ]; then
    echo "serve-smoke: mid-job ingest changed a pinned job's result" >&2
    diff <(strip "$DIR/rA.json") <(strip "$DIR/rB.json") >&2 || true
    exit 1
fi
curl -sf "$BASE/jobs/$IDB" | grep -q '"epoch": 0' \
    || { echo "serve-smoke: pinned job does not report admission epoch 0" >&2; exit 1; }

# A job submitted after the ingest pins epoch 1 and walks the bigger
# view: its report's edge count grows by exactly the net overlay delta.
DELTA="$(curl -sf "$BASE/graphs" | python3 -c 'import json,sys
print([g for g in json.load(sys.stdin)["graphs"] if g["name"]=="pl2000"][0]["delta_edges"])')"
IDC="$(submit "$PIN" | job_id)"
curl -sf "$BASE/jobs/$IDC" | grep -q '"epoch": 1' \
    || { echo "serve-smoke: post-ingest job not pinned to epoch 1" >&2; exit 1; }
await "$IDC" done
curl -sf "$BASE/jobs/$IDC/result" >"$DIR/rC.json"
python3 -c '
import json, sys
a = json.load(open(sys.argv[1]))["report"]["edges"]
c = json.load(open(sys.argv[2]))["report"]["edges"]
delta = int(sys.argv[3])
assert c == a + delta, f"post-ingest job saw {c} edges, want {a} + {delta}"
' "$DIR/rA.json" "$DIR/rC.json" "$DELTA"

# Explicit compaction folds the overlay into a fresh CSR (epoch 2).
curl -sf -X POST "$BASE/graphs/pl2000/compact" >"$DIR/compact.json"
grep -q '"epoch": 2' "$DIR/compact.json" \
    || { echo "serve-smoke: compaction did not publish epoch 2" >&2; cat "$DIR/compact.json" >&2; exit 1; }
grep -q '"delta_edges": 0' "$DIR/compact.json" \
    || { echo "serve-smoke: compaction left overlay deltas behind" >&2; exit 1; }
grep -q '"epoch_fingerprint"' "$DIR/compact.json" \
    || { echo "serve-smoke: compaction did not report the content fingerprint" >&2; exit 1; }

curl -sf "$BASE/metrics" >"$DIR/metrics2.txt"
grep -q '^kk_serve_ingest_batches_total 1' "$DIR/metrics2.txt" \
    || { echo "serve-smoke: /metrics ingest batch count wrong" >&2; exit 1; }
grep -q '^kk_serve_compactions_total 1' "$DIR/metrics2.txt" \
    || { echo "serve-smoke: /metrics compaction count wrong" >&2; exit 1; }

# Causal tracing through the service: a job submitted with trace:true
# serves a structurally valid Perfetto trace at /jobs/{id}/trace, its
# report carries a critical-path attribution, and untraced jobs 404.
TRACED='{"graph":"pl2000","alg":"node2vec","length":20,"p":2,"q":0.5,"seed":42,"walkers":2000,"nodes":2,"trace":true,"trace_sample":64}'
IDT="$(submit "$TRACED" | job_id)"
await "$IDT" done
curl -sf "$BASE/jobs/$IDT/trace" >"$DIR/trace.json" \
    || { echo "serve-smoke: trace fetch failed" >&2; exit 1; }
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
evs = doc["traceEvents"]
stacks, supersteps, journeys, trialed = {}, 0, 0, 0
for ev in evs:
    key = (ev["pid"], ev["tid"])
    if ev["ph"] == "B":
        stacks.setdefault(key, []).append(ev["name"])
        supersteps += ev["name"].startswith("superstep ")
    elif ev["ph"] == "E":
        top = stacks.get(key, [])
        assert top and top[-1] == ev["name"], f"unmatched E {ev['name']!r} on {key}"
        top.pop()
    elif ev["ph"] == "i" and ev["pid"] == 2:
        journeys += 1
        if ev["name"] == "step" and ev.get("args", {}).get("trials", 0) >= 1:
            trialed += 1
for key, st in stacks.items():
    assert not st, f"track {key} left spans open: {st}"
assert supersteps > 0, "no superstep spans"
assert journeys > 0, "no sampled walker journeys"
assert trialed > 0, "no journey step carries a rejection trial count"
print(f"serve-smoke: trace OK ({len(evs)} events, {supersteps} superstep spans, {journeys} journey instants, {trialed} trialed steps)")
' "$DIR/trace.json"
curl -sf "$BASE/jobs/$IDT/result" | grep -q '"critical_path"' \
    || { echo "serve-smoke: traced report missing critical_path" >&2; exit 1; }
if curl -sf "$BASE/jobs/$IDA/trace" >/dev/null 2>&1; then
    echo "serve-smoke: untraced job served a trace, want 404" >&2
    exit 1
fi
curl -sf "$BASE/metrics" | grep -q '^kk_job_queue_wait_nanos_count' \
    || { echo "serve-smoke: /metrics missing queue wait histogram" >&2; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"

echo "serve-smoke: OK (report steps $STEPS, cancel latency ${MS}ms)"
