#!/usr/bin/env bash
# Smoke test for the HTTP exposition server behind `cable serve`.
#
# Opens a small session store, starts `cable serve` on an ephemeral
# localhost port (bare port 0), and curls every endpoint. The server
# must answer with Prometheus text carrying the request counter and
# summary quantiles, health JSON reflecting the build identity and the
# store generation and journal lag, the wide-event tail on /eventz, SLO
# windows on /sloz, and a 400 for malformed ?limit= queries.
#
# The second half restarts the server with the labeling API enabled
# (`--api --store-root`) and walks the session lifecycle end to end:
# open → ingest → label → lattice → focus, plus malformed JSON → 400.
#
# Usage: scripts/serve_smoke.sh [path/to/cable]
set -euo pipefail

CABLE=${1:-target/release/cable}
work=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

"$CABLE" session open --traces testdata/stdio_violations.traces \
  --store "$work/store" > /dev/null

"$CABLE" serve --obs-listen 0 --store "$work/store" \
  > "$work/announce" 2> /dev/null &
server_pid=$!

# The bound address is the first stdout line:
#   serving http://127.0.0.1:PORT/metrics /healthz /tracez
addr=""
for _ in $(seq 1 50); do
  addr=$(sed -n 's|^serving http://\([^/]*\)/.*|\1|p' "$work/announce")
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "serve never announced its address"; exit 1; }
echo "serve bound $addr"

health=$(curl -fsS "http://$addr/healthz")
echo "$health"
echo "$health" | grep -q '"generation":0' || { echo "healthz misses generation"; exit 1; }
echo "$health" | grep -q '"journal_lag_bytes"' || { echo "healthz misses journal lag"; exit 1; }
echo "$health" | grep -q '"version"' || { echo "healthz misses build version"; exit 1; }
echo "$health" | grep -q '"uptime_seconds"' || { echo "healthz misses uptime"; exit 1; }

metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q '# TYPE obs_http_requests counter' \
  || { echo "metrics miss the request counter"; exit 1; }
echo "$metrics" | grep -q 'quantile="0.99"' \
  || { echo "metrics miss summary quantiles"; exit 1; }

curl -fsS "http://$addr/tracez" | grep -q '"recording":true' \
  || { echo "tracez does not report recording"; exit 1; }

curl -fsS "http://$addr/eventz" | grep -q '"events"' \
  || { echo "eventz does not serve the wide-event tail"; exit 1; }

sloz=$(curl -fsS "http://$addr/sloz")
echo "$sloz" | grep -q '"windows"' || { echo "sloz misses windows"; exit 1; }
echo "$sloz" | grep -q '"error_budget"' || { echo "sloz misses error budget"; exit 1; }

# ?limit= validation: well-formed limits are honoured, garbage is a 400.
curl -fsS "http://$addr/eventz?limit=5" > /dev/null \
  || { echo "eventz rejects a valid limit"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/tracez?limit=garbage")
[ "$code" = "400" ] || { echo "malformed limit answered $code, not 400"; exit 1; }

# Without --api the API surface answers 404 with a pointer at the flag.
api_miss=$(curl -s "http://$addr/api/sessions")
echo "$api_miss" | grep -q -- '--api' \
  || { echo "API 404 does not mention --api"; exit 1; }

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

# ---- The labeling API, end to end -----------------------------------

"$CABLE" serve --obs-listen 0 --api --store-root "$work/tenants" \
  > "$work/announce_api" 2> /dev/null &
server_pid=$!
addr=""
for _ in $(seq 1 50); do
  addr=$(sed -n 's|^serving http://\([^/]*\)/.*|\1|p' "$work/announce_api")
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "API serve never announced its address"; exit 1; }
echo "API serve bound $addr"

api="http://$addr/api/sessions"
post() { curl -s -o "$work/body" -w '%{http_code}' -X POST -d "$1" "$2"; }

code=$(post '{"tenant": "smoke", "session": "s", "traces": "fopen(#1) fread(#1) fclose(#1)\nfopen(#2)\n"}' "$api")
[ "$code" = "201" ] || { echo "open answered $code: $(cat "$work/body")"; exit 1; }
grep -q '"concepts"' "$work/body" || { echo "open misses concepts"; exit 1; }

code=$(post '{"tenant": "smoke", "traces": "fopen(#3) fwrite(#3) fclose(#3)\n"}' "$api/s/ingest")
[ "$code" = "200" ] || { echo "ingest answered $code: $(cat "$work/body")"; exit 1; }
grep -q '"ingested":1' "$work/body" || { echo "ingest misses count"; exit 1; }

code=$(post '{"tenant": "smoke", "concept": "c0", "selector": "unlabeled", "label": "good"}' "$api/s/label")
[ "$code" = "200" ] || { echo "label answered $code: $(cat "$work/body")"; exit 1; }
grep -q '"classes_labeled"' "$work/body" || { echo "label misses tally"; exit 1; }

lattice=$(curl -fsS "$api/s/lattice?tenant=smoke")
echo "$lattice" | grep -q '"top"' || { echo "lattice misses top"; exit 1; }
top=$(echo "$lattice" | sed -n 's|.*"top":"\([^"]*\)".*|\1|p')
[ -n "$top" ] || { echo "cannot extract top concept"; exit 1; }

curl -fsS "$api/s/focus?tenant=smoke&concept=$top" | grep -q '"concepts"' \
  || { echo "focus on $top failed"; exit 1; }

curl -fsS "$api/s/digest?tenant=smoke" | grep -q '"corpus_digest"' \
  || { echo "digest misses corpus digest"; exit 1; }

# Malformed JSON is the client's problem: a 400, never a 5xx.
code=$(post '{not json' "$api")
[ "$code" = "400" ] || { echo "malformed JSON answered $code, not 400"; exit 1; }
grep -q 'malformed' "$work/body" || { echo "400 body misses the reason"; exit 1; }

# Unknown sessions are a 404.
code=$(curl -s -o /dev/null -w '%{http_code}' "$api/ghost/digest?tenant=smoke")
[ "$code" = "404" ] || { echo "unknown session answered $code, not 404"; exit 1; }

echo "serve smoke test: PASS"
