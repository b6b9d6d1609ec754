#!/usr/bin/env bash
# profile_served.sh — where a served workload's daemon CPU goes.
#
#   scripts/profile_served.sh <named graphs> <file of request bodies> [keep dir]
#   scripts/profile_served.sh scalefree-20000 scripts/short_reads.jsonl
#   scripts/profile_served.sh path-700,grid-20x20 scripts/big_results.jsonl /tmp/big-results
#
# Builds gqserverd, starts it with the graphs (one catalog name, or several
# separated by commas) and -debug-addr, replays the bodies (one POST
# /v1/query JSON object a line; their "graph" must name one of the graphs)
# from two closed-loop clients for 15 s — each sends the file's
# bodies in order over one keep-alive connection and starts over — pulls a
# 10 s CPU profile from inside that window and prints `pprof -top -cum` to
# 25 lines. bench/ measures the same daemon from outside but cannot pass
# -debug-addr; this is the inside view an issue is sized with. Given a third
# argument, a directory, it keeps the profile and the daemon binary there as
# cpu.pprof and gqserverd, so that `go tool pprof -list <func> gqserverd
# cpu.pprof` reads the same profile line by line; a relative directory is
# taken from where the script was called.
set -euo pipefail
keep=${3:-}
[[ -z "$keep" || "$keep" == /* ]] || keep="$PWD/$keep"
cd "$(dirname "$0")/.."

GO=${GO:-go}
graph=${1:?usage: profile_served.sh <named graphs, comma-separated> <file of request bodies> [keep dir]}
bodies=${2:?usage: profile_served.sh <named graphs, comma-separated> <file of request bodies> [keep dir]}
[[ -r "$bodies" ]] || { echo "profile-served: cannot read $bodies" >&2; exit 1; }
if [[ -n "$keep" ]]; then
  mkdir -p "$keep" || { echo "profile-served: cannot make $keep" >&2; exit 1; }
fi

workdir=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

$GO build -o "$workdir/gqserverd" ./cmd/gqserverd
"$workdir/gqserverd" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -graphs "$graph" >"$workdir/log" 2>&1 &
pids+=($!)
base="" dbg=""
for _ in $(seq 1 200); do
  base=$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$workdir/log" | head -1)
  dbg=$(sed -n 's#.*debug (pprof) on \(http://[0-9.:]*\)/debug/pprof/.*#\1#p' "$workdir/log" | head -1)
  [[ -n "$base" && -n "$dbg" ]] && break
  sleep 0.1
done
[[ -n "$base" && -n "$dbg" ]] || { echo "profile-served: daemon did not start:" >&2; cat "$workdir/log" >&2; exit 1; }

# One curl invocation sends every body over one connection (-K config,
# requests separated by "next"); bodies go through files, so nothing in them
# needs quoting.
n=0
while IFS= read -r line || [[ -n "$line" ]]; do
  [[ -n "$line" ]] || continue
  n=$((n + 1))
  printf '%s' "$line" >"$workdir/body-$n.json"
  {
    [[ $n -eq 1 ]] || echo next
    echo "url = \"$base/v1/query\""
    echo "data-binary = \"@$workdir/body-$n.json\""
    echo "output = \"/dev/null\""
  } >>"$workdir/replay.cfg"
done <"$bodies"
[[ $n -gt 0 ]] || { echo "profile-served: no request bodies in $bodies" >&2; exit 1; }
# Every body must be answered before the loop is worth profiling.
curl -fsS -K "$workdir/replay.cfg" || { echo "profile-served: a body was refused" >&2; exit 1; }

for _ in 1 2; do
  timeout 15 bash -c "while :; do curl -s -K '$workdir/replay.cfg'; echo >>'$workdir/replays'; done" &
  pids+=($!)
done
sleep 3
before=$(wc -l <"$workdir/replays")
curl -fsS -o "$workdir/cpu.pprof" "$dbg/debug/pprof/profile?seconds=10"
replays=$(($(wc -l <"$workdir/replays") - before))
echo "profile-served: $graph, $n bodies from $bodies, 10 s of CPU inside a 15 s closed loop of two clients: $((replays * n)) queries answered while profiling"
$GO tool pprof -top -cum -nodecount=25 "$workdir/gqserverd" "$workdir/cpu.pprof" 2>/dev/null | tail -n +2 | head -n 31
if [[ -n "$keep" ]]; then
  cp "$workdir/gqserverd" "$workdir/cpu.pprof" "$keep/"
  echo "profile-served: kept $keep/gqserverd and $keep/cpu.pprof"
fi
