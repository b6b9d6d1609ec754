#!/usr/bin/env bash
# End-to-end smoke test of gqserverd: build with the race detector, start on
# a random port, exercise every endpoint and error class with curl, verify
# the observability surface (/metrics agrees with /v1/statz, the slow-query
# log emits one structured record per admitted query, pprof answers on the
# debug listener, no ERROR records), exercise the streamed NDJSON surface
# (byte-identity, mid-flight kill trailer, and a slow-reader backpressure
# measurement proving O(chunk) server memory on a >100 MiB result), then
# check graceful shutdown drains an in-flight query.
set -euo pipefail

GO=${GO:-go}
workdir=$(mktemp -d)
logfile="$workdir/gqserverd.log"
pid=""
bigpid=""

cleanup() {
  if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
    kill -9 "$pid" 2>/dev/null || true
  fi
  if [[ -n "$bigpid" ]] && kill -0 "$bigpid" 2>/dev/null; then
    kill -9 "$bigpid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "serve-smoke: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$logfile" >&2 || true
  exit 1
}

echo "serve-smoke: building gqserverd (race detector on)"
$GO build -race -o "$workdir/gqserverd" ./cmd/gqserverd

# -slow-query 1ns makes every query an over-threshold query, so the log
# must carry exactly one structured record per admitted query; -query-log
# must carry one JSONL record per admitted query regardless of threshold.
# -query-log-max-bytes is set high enough that this run never rotates (the
# record-count check below relies on a single file) but the rotating-writer
# path is what every record goes through.
querylog="$workdir/query.jsonl"
"$workdir/gqserverd" -addr 127.0.0.1:0 -graphs bank,figure5-12,clique-40,clique-200,clique-300,grid-50x50 \
  -max-concurrent 4 -max-queue 4 -default-timeout 10s -parallelism 1 \
  -slow-query 1ns -query-log "$querylog" -query-log-max-bytes $((64 << 20)) -query-log-keep 2 \
  -debug-addr 127.0.0.1:0 -mutable \
  >"$logfile" 2>&1 &
pid=$!

# The daemon prints "listening on http://HOST:PORT" on stdout; scrape it.
base=""
for _ in $(seq 1 100); do
  base=$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$logfile" | head -1)
  [[ -n "$base" ]] && break
  kill -0 "$pid" 2>/dev/null || fail "daemon exited during startup"
  sleep 0.1
done
[[ -n "$base" ]] || fail "daemon never reported its address"
echo "serve-smoke: daemon up at $base"

expect() { # expect <label> <want-substring> <actual>
  case "$3" in
    *"$2"*) echo "serve-smoke: ok: $1" ;;
    *) fail "$1: wanted substring '$2' in: $3" ;;
  esac
}

expect healthz '"status":"ok"' "$(curl -fsS "$base/v1/healthz")"
expect graphs '"name":"bank"' "$(curl -fsS "$base/v1/graphs")"
expect rpq-pairs '"kind":"pairs"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"bank","query":"Transfer*"}')"
expect crpq-rows '"kind":"rows"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"bank","query":"q(x,y) :- Transfer(x,y), Transfer(y,x)"}')"
expect paths '"kind":"paths"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"figure5-12","query":"a*","from":"s","to":"t","mode":"shortest"}')"
# One query per unified language tier (DESIGN.md §14): each explicit lang
# must answer with its own response kind.
expect twoway-pairs '"kind":"pairs"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"bank","lang":"2rpq","query":"Transfer ~Transfer"}')"
expect cypher-pairs '"kind":"pairs"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"bank","lang":"cypher","query":"-[:Transfer]->"}')"
expect gql-matches '"kind":"matches"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"bank","lang":"gql","query":"(x)-[:Transfer]->(y)"}')"
expect coregql-matches '"kind":"matches"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"bank","lang":"coregql","query":"(x)-->(y)"}')"
expect pmr-paths '"kind":"paths"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"figure5-12","lang":"pmr","query":"a*","from":"s","to":"t","limit":5}')"
expect spanner-spans '"kind":"spans"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"bank","lang":"spanner","doc":"aabc","query":"x{a*}y{(b|c)*}"}')"
expect relalg-relation '"kind":"relation"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"bank","lang":"relalg","query":"REACH(Transfer) AS (x, y)"}')"
expect bag-count '"kind":"bag"' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"bank","lang":"bag","query":"Transfer Transfer"}')"
# Taxonomy must not drift across tiers: parse errors are 400
# invalid_query in every lang (422 stays reserved for budget_exceeded),
# schema violations are invalid_query, and budgets trip as 422.
expect gql-parse-error '"code":"invalid_query"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"bank","lang":"gql","query":"(x)-[:"}')"
expect spanner-parse-error '"code":"invalid_query"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"bank","lang":"spanner","doc":"ab","query":"x{("}')"
expect relalg-parse-error '"code":"invalid_query"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"bank","lang":"relalg","query":"REACH(a"}')"
expect unknown-lang '"code":"invalid_query"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"bank","lang":"sparql","query":"a"}')"
expect pmr-no-limit '"code":"invalid_query"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"figure5-12","lang":"pmr","query":"a*","from":"s","to":"t"}')"
expect anchored-lang '"code":"invalid_query"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"bank","lang":"bag","query":"Transfer","from":"a0"}')"
expect bag-budget '"code":"budget_exceeded"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"clique-200","lang":"bag","query":"a*","max_states":100}')"
expect unknown-graph '"code":"unknown_graph"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"nope","query":"a"}')"
expect invalid-query '"code":"invalid_query"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"bank","query":"((("}')"
expect timeout '"code":"timeout"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"clique-300","query":"a* a* a*","timeout_ms":50}')"
expect row-budget '"code":"budget_exceeded"' \
  "$(curl -sS "$base/v1/query" -d '{"graph":"figure5-12","query":"a*","from":"s","to":"t","max_rows":5}')"
expect statz '"accepted"' "$(curl -fsS "$base/v1/statz")"

# /metrics and /v1/statz render from the same snapshot function; with no
# query in flight the two must agree exactly. Meta endpoints (statz,
# metrics, graphs, healthz) touch no counters, so fetch order is free.
metrics=$(curl -fsS "$base/metrics")
expect metrics-counter 'gq_completed_total' "$metrics"
expect metrics-plan-cache 'gq_plan_cache_hits_total{graph="bank"}' "$metrics"
expect metrics-histogram 'gq_query_duration_seconds_bucket' "$metrics"
statz=$(curl -fsS "$base/v1/statz")
for field in accepted completed timeouts budget_exceeded errors; do
  want=$(printf '%s' "$statz" | sed -n "s/.*\"$field\":\([0-9]*\).*/\1/p")
  got=$(printf '%s\n' "$metrics" | sed -n "s/^gq_${field}_total \([0-9]*\)\$/\1/p")
  [[ -n "$want" && "$got" == "$want" ]] \
    || fail "metrics/statz drift: gq_${field}_total=$got, statz $field=$want"
done
echo "serve-smoke: ok: metrics agrees with statz"

# Per-kind completion counters: one query of every response kind ran
# above, so each label of gq_queries_total must be nonzero and must match
# the statz "kinds" object.
for kind in pairs paths rows matches spans relation bag; do
  got=$(printf '%s\n' "$metrics" | sed -n "s/^gq_queries_total{kind=\"$kind\"} \([0-9]*\)\$/\1/p")
  want=$(printf '%s' "$statz" | sed -n "s/.*\"kinds\":{[^}]*\"$kind\":\([0-9]*\).*/\1/p")
  [[ -n "$got" && "$got" -gt 0 ]] \
    || fail "gq_queries_total{kind=\"$kind\"} = '$got' after serving a $kind query"
  [[ "$got" == "$want" ]] \
    || fail "per-kind drift: gq_queries_total{kind=\"$kind\"}=$got, statz kinds.$kind=$want"
done
echo "serve-smoke: ok: per-kind counters (pairs paths rows matches spans relation bag)"

# The slow-query log: one WARN record per admitted query so far (the
# un-admitted unknown-graph request must not appear), and no ERRORs ever.
accepted=$(printf '%s' "$statz" | sed -n 's/.*"accepted":\([0-9]*\).*/\1/p')
slow_count=$(grep -c 'msg="slow query"' "$logfile" || true)
[[ "$slow_count" == "$accepted" ]] \
  || fail "slow-query records ($slow_count) != admitted queries ($accepted)"
grep -q 'msg="slow query".*outcome=ok.*plan=' "$logfile" \
  || fail "slow-query records missing outcome/plan attributes"
echo "serve-smoke: ok: slow-query log ($slow_count records)"

# Live introspection: a long-running query must be visible in /v1/queries
# with nonzero swept states, killable through its cancel endpoint, and
# reported with the distinct "killed" outcome everywhere — the query's own
# reply, /v1/queries/recent, and the query event log. The grid's all-pairs
# a* shares little (large product, long diameter), so the kill lands
# mid-batch.
kill_out="$workdir/killed.json"
kill_hdr="$workdir/killed.hdr"
curl -sS -D "$kill_hdr" "$base/v1/query" \
  -d '{"graph":"grid-50x50","query":"a*","timeout_ms":30000}' >"$kill_out" &
kill_curl=$!
qid=""
states=""
for _ in $(seq 1 100); do
  live=$(curl -fsS "$base/v1/queries")
  qid=$(printf '%s' "$live" | sed -n 's/.*"id":\([0-9]*\).*/\1/p' | head -1)
  states=$(printf '%s' "$live" | sed -n 's/.*"states":\([0-9]*\).*/\1/p' | head -1)
  [[ -n "$qid" && -n "$states" && "$states" -gt 0 ]] && break
  qid=""
  sleep 0.05
done
[[ -n "$qid" ]] || fail "slow query never appeared in /v1/queries with nonzero states"
echo "serve-smoke: ok: live query $qid visible ($states states swept)"
expect kill '"killed":true' "$(curl -sS -X POST "$base/v1/queries/$qid/cancel")"
wait "$kill_curl" || fail "killed query's connection was dropped"
expect killed-reply '"code":"killed"' "$(cat "$kill_out")"
grep -qi "^x-query-id: $qid" "$kill_hdr" \
  || fail "killed query's reply missing X-Query-ID $qid: $(cat "$kill_hdr")"
expect killed-recent '"outcome":"killed"' "$(curl -fsS "$base/v1/queries/recent")"
expect kill-unknown '"code":"unknown_query"' \
  "$(curl -sS -X POST "$base/v1/queries/999999/cancel")"
grep -q '"outcome":"killed"' "$querylog" \
  || fail "query event log has no killed record"

# The killed query's graph carries the kernel's per-graph families.
metrics=$(curl -fsS "$base/metrics")
expect metrics-neighbor-tables 'gq_runtime_neighbor_tables_built_total{graph="grid-50x50"}' "$metrics"
expect statz-neighbor-tables '"neighbor_tables_built"' "$(curl -fsS "$base/v1/statz")"
expect metrics-condensations 'gq_runtime_condensations_built_total{graph="grid-50x50"}' "$metrics"
expect statz-condensations '"condensations_built"' "$(curl -fsS "$base/v1/statz")"

# Kill a live gql query: the unified tiers ride the same in-flight
# registry and cooperative-kill plumbing as the RPQ family. The clique-40
# walk enumeration (star under max_len 3) runs for seconds under the race
# detector, so the kill lands mid-evaluation.
gkill_out="$workdir/gql_killed.json"
curl -sS "$base/v1/query" \
  -d '{"graph":"clique-40","lang":"gql","query":"(x)(()-[:a]->())*(y)","max_len":3,"timeout_ms":30000}' >"$gkill_out" &
gkill_curl=$!
gqid=""
for _ in $(seq 1 100); do
  live=$(curl -fsS "$base/v1/queries")
  gqid=$(printf '%s' "$live" | sed -n 's/.*"id":\([0-9]*\).*/\1/p' | head -1)
  [[ -n "$gqid" ]] && break
  sleep 0.05
done
[[ -n "$gqid" ]] || fail "gql query never appeared in /v1/queries"
expect gql-kill '"killed":true' "$(curl -sS -X POST "$base/v1/queries/$gqid/cancel")"
wait "$gkill_curl" || fail "killed gql query's connection was dropped"
expect gql-killed-reply '"code":"killed"' "$(cat "$gkill_out")"
echo "serve-smoke: ok: live gql query $gqid killed"

# The query event log carries exactly one JSONL record per admitted query.
accepted=$(curl -fsS "$base/v1/statz" | sed -n 's/.*"accepted":\([0-9]*\).*/\1/p')
qlog_count=$(wc -l <"$querylog")
[[ "$qlog_count" == "$accepted" ]] \
  || fail "query-log records ($qlog_count) != admitted queries ($accepted)"
echo "serve-smoke: ok: query event log ($qlog_count records)"

# Per-stage histograms: populated, and stage time never exceeds the
# whole-query wall clock it is a breakdown of. This holds by construction:
# a query's spans never overlap (delivery time is taken out of the span it
# ran inside) and the last of them, the stream drain, ends before the
# duration is observed.
metrics=$(curl -fsS "$base/metrics")
expect metrics-stage 'gq_stage_duration_seconds_count{stage="kernel"}' "$metrics"
stage_sum=$(printf '%s\n' "$metrics" \
  | sed -n 's/^gq_stage_duration_seconds_sum{[^}]*} \(.*\)$/\1/p' \
  | awk '{s+=$1} END {print s}')
total_sum=$(printf '%s\n' "$metrics" | sed -n 's/^gq_query_duration_seconds_sum \(.*\)$/\1/p')
awk -v s="$stage_sum" -v t="$total_sum" 'BEGIN {exit !(s <= t)}' \
  || fail "stage duration sum ($stage_sum) exceeds query duration sum ($total_sum)"
echo "serve-smoke: ok: stage histograms within wall clock ($stage_sum <= $total_sum)"

# EXPLAIN ANALYZE: "analyze": true returns the annotated plan tree (estimate
# vs actual with q-error) plus per-level sweep telemetry and feeds the
# q-error histogram, and /metrics exports the Go runtime health gauges.
analyze_out=$(curl -fsS "$base/v1/query" \
  -d '{"graph":"clique-40","query":"a a*","analyze":true}')
expect analyze-plan '"plan":{"name":"pairs"' "$analyze_out"
expect analyze-qerror '"q_error"' "$analyze_out"
expect analyze-sweep '"sweep"' "$analyze_out"
metrics=$(curl -fsS "$base/metrics")
expect metrics-qerror 'gq_cardest_qerror_count 1' "$metrics"
expect metrics-go-goroutines 'gq_go_goroutines' "$metrics"
expect metrics-go-heap 'gq_go_heap_alloc_bytes' "$metrics"
expect metrics-go-gc 'gq_go_gc_pause_seconds_total' "$metrics"
grep -q '"analyze":{"plan"' "$querylog" \
  || fail "query event log record missing the annotated plan for the analyze query"
echo "serve-smoke: ok: EXPLAIN ANALYZE (plan tree, q-error histogram, Go runtime gauges)"

# Live graph store: bulk-load a graph over the write surface and query it.
load_out=$(curl -sS "$base/v1/graphs" -d '{"name":"live","graph":{
  "nodes":[{"id":"n0"},{"id":"n1"},{"id":"n2"}],
  "edges":[{"id":"e0","label":"a","src":"n0","tgt":"n1"},
           {"id":"e1","label":"a","src":"n1","tgt":"n2"}]}}')
expect store-load '"version":1' "$load_out"
expect store-query-v1 '"count":1' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"live","query":"a.a"}')"

# Mutate while a heavy clique query is in flight: the write must land on a
# new version without disturbing the in-flight read (MVCC snapshots).
inflight_out="$workdir/inflight.json"
curl -sS "$base/v1/query" \
  -d '{"graph":"clique-200","query":"a* a*","timeout_ms":8000}' >"$inflight_out" &
inflight_pid=$!
sleep 0.1
expect store-mutate '"version":2' "$(curl -sS "$base/v1/graphs/live/mutate" \
  -d '{"if_version":1,"ops":[{"op":"add_edge","id":"e2","label":"a","src":"n2","tgt":"n0"}]}')"
wait "$inflight_pid" || fail "in-flight query dropped while a mutation committed"
expect store-inflight '"kind":"pairs"' "$(cat "$inflight_out")"
expect store-query-v2 '"count":3' \
  "$(curl -fsS "$base/v1/query" -d '{"graph":"live","query":"a.a"}')"
expect store-export '"e2"' "$(curl -fsS "$base/v1/graphs/live/export")"
expect store-read-only '"code":"read_only"' \
  "$(curl -sS "$base/v1/graphs/bank/mutate" -d '{"ops":[{"op":"add_node","id":"z"}]}')"
expect store-version-mismatch '"code":"version_mismatch"' \
  "$(curl -sS "$base/v1/graphs/live/mutate" -d '{"if_version":1,"ops":[{"op":"remove_edge","id":"e0"}]}')"

# The store counters in /metrics must match the /v1/statz store object
# exactly (both render from the same snapshot).
metrics=$(curl -fsS "$base/metrics")
statz=$(curl -fsS "$base/v1/statz")
for field in loads deletes mutation_batches mutation_ops; do
  want=$(printf '%s' "$statz" | sed -n "s/.*\"$field\":\([0-9]*\).*/\1/p")
  got=$(printf '%s\n' "$metrics" | sed -n "s/^gq_store_${field}_total \([0-9]*\)\$/\1/p")
  [[ -n "$want" && "$got" == "$want" ]] \
    || fail "store metrics/statz drift: gq_store_${field}_total=$got, statz $field=$want"
done
expect store-metrics-version 'gq_store_graph_version{graph="live"} 2' "$metrics"
echo "serve-smoke: ok: live store (load, mutate mid-flight, export, counters)"

# The pprof surface lives on its own listener, printed at startup.
dbgbase=$(sed -n 's#.*debug (pprof) on \(http://[0-9.:]*\)/debug/pprof/.*#\1#p' "$logfile" | head -1)
[[ -n "$dbgbase" ]] || fail "daemon never reported its debug (pprof) address"
expect pprof 'pprof' "$(curl -fsS "$dbgbase/debug/pprof/")"

# Streamed delivery (DESIGN.md §15). Plain curl first: an NDJSON response
# opens with a header line and closes with an ok trailer, and a filled
# cursor page hands back a resumable token.
nd=$(curl -fsSN -H 'Accept: application/x-ndjson' "$base/v1/query" \
  -d '{"graph":"bank","query":"Transfer*"}')
expect stream-header '"kind":"pairs"' "$(printf '%s\n' "$nd" | head -1)"
expect stream-trailer '"status":"ok"' "$(printf '%s\n' "$nd" | tail -1)"
page=$(curl -fsSN -H 'Accept: application/x-ndjson' "$base/v1/query" \
  -d '{"graph":"clique-40","query":"a","limit":5,"cursor":"start"}')
expect stream-cursor '"next_cursor":"v' "$(printf '%s\n' "$page" | tail -1)"

# The stream checks curl cannot express run through scripts/streamprobe:
# row-for-row byte-identity against the buffered response, and a stream
# killed mid-flight through the registry, which must still end in a
# well-formed in-band "killed" trailer (the 200 is already on the wire).
echo "serve-smoke: building streamprobe"
$GO build -o "$workdir/streamprobe" ./scripts/streamprobe
# Identity runs once per row-bearing kind: the two wire formats are two
# encodings of one row stream, whichever evaluator produced it.
identity() { # identity <kind> <streamprobe query flags...>
  local kind=$1; shift
  "$workdir/streamprobe" -mode identity -base "$base" "$@" \
    || fail "streamed $kind rows are not byte-identical to the buffered response"
}
identity pairs -graph clique-200 -query 'a*'
identity paths -graph figure5-12 -query 'a*' -from s -to t
identity rows -graph bank -query 'q(x,y) :- Transfer(x,y)'
identity matches -graph bank -lang gql -query '(x)-[:Transfer]->(y)'
identity spans -graph bank -lang spanner -doc aabc -query 'x{a*}y{(b|c)*}'
identity relation -graph bank -lang relalg -query 'REACH(Transfer) AS (x, y)'
"$workdir/streamprobe" -mode killstream -base "$base" -graph grid-50x50 -query 'a*' \
  || fail "mid-flight kill did not surface a killed trailer"
echo "serve-smoke: ok: streamed delivery (header/trailer, cursor, identity, kill)"

# Backpressure at scale: a slow reader drains a result whose buffered form
# is >100 MiB (path-4000 a* is ~8M pairs, 133 MiB of NDJSON) while the
# probe samples the server's HeapAlloc from the pprof listener — the peak
# must stay O(chunk buffer), far below the result size. The race-built
# binary is too slow to encode 8M rows in a smoke run, so this one
# measurement runs against a plain build of the same daemon. slowheap
# must run on the fresh daemon (a prior buffered run leaves a GiB of
# uncollected garbage inflating HeapAlloc); heapwatch afterwards reports
# the buffered peak for contrast — it is not asserted.
echo "serve-smoke: building gqserverd (plain, for the backpressure measurement)"
$GO build -o "$workdir/gqserverd-plain" ./cmd/gqserverd
biglog="$workdir/gqserverd-plain.log"
"$workdir/gqserverd-plain" -addr 127.0.0.1:0 -graphs path-4000 \
  -default-timeout 300s -parallelism 1 -debug-addr 127.0.0.1:0 \
  >"$biglog" 2>&1 &
bigpid=$!
bigbase=""
for _ in $(seq 1 100); do
  bigbase=$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$biglog" | head -1)
  [[ -n "$bigbase" ]] && break
  kill -0 "$bigpid" 2>/dev/null || fail "plain daemon exited during startup"
  sleep 0.1
done
[[ -n "$bigbase" ]] || fail "plain daemon never reported its address"
bigdbg=$(sed -n 's#.*debug (pprof) on \(http://[0-9.:]*\)/debug/pprof/.*#\1#p' "$biglog" | head -1)
[[ -n "$bigdbg" ]] || fail "plain daemon never reported its debug address"
"$workdir/streamprobe" -mode slowheap -base "$bigbase" -debug "$bigdbg" \
  -graph path-4000 -query 'a*' -max-heap $((256 << 20)) \
  || fail "backpressure did not bound server memory on a 133 MiB stream"
"$workdir/streamprobe" -mode heapwatch -base "$bigbase" -debug "$bigdbg" \
  -graph path-4000 -query 'a*' || fail "buffered heapwatch run failed"
kill "$bigpid" 2>/dev/null || true
wait "$bigpid" 2>/dev/null || true
bigpid=""
echo "serve-smoke: ok: backpressure bounds memory to O(chunk) on a >100 MiB stream"

# Graceful shutdown must drain in-flight queries: start a slow query, send
# SIGTERM while it runs, and require both a 200 for the query and a clean
# daemon exit.
slow_out="$workdir/slow.json"
curl -sS "$base/v1/query" \
  -d '{"graph":"clique-200","query":"a* a*","timeout_ms":8000}' >"$slow_out" &
curl_pid=$!
sleep 0.2
kill -TERM "$pid"
wait "$curl_pid" || fail "in-flight query connection was dropped during drain"
expect drain-result '"kind":"pairs"' "$(cat "$slow_out")"
wait "$pid" || fail "daemon exited non-zero after drain"
pid=""
if grep -q 'level=ERROR' "$logfile"; then
  fail "ERROR records in the server log"
fi
echo "serve-smoke: PASS"
