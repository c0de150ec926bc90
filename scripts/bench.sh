#!/usr/bin/env bash
# bench.sh — run every benchmark under internal/... and emit a single
# JSON summary (BENCH_<date>.json by default, git-ignored). A smoke and a
# working aid: performance claims are made with the repo benchmark
# (bench/README.md), and the hard gates are counts, not nanoseconds
# (TestMissAllocBudget, TestCacheHitAllocBudget,
# TestCanonicalHitAllocBudget, TestFrontierWorkBound,
# TestSwapProbeMoveBound, TestGenerateCandidatesWorkBound). The sweep
# includes the repo benchmark's search-large operation without its
# harness (BenchmarkAdviseSearchCold256, internal/core) and its candidate
# generation alone (BenchmarkGenerateCandidatesLarge, internal/views),
# and the request half of the wire path on the repo benchmark's body
# shapes (internal/server): BenchmarkCanonAdvise, BenchmarkCanonCompare
# and BenchmarkCanonSweep (bytes to canonical key), BenchmarkReloadAdvise
# (a canonical key decoded back) and BenchmarkAdviseCanonicalHit (a whole
# re-spelled hit through ServeHTTP), each with B/s and allocs/op; and the
# response half, BenchmarkCompareEncode (internal/compare) and
# BenchmarkAdviseEncode (internal/core) — the served AppendJSON of a 2×2
# comparison and of one recommendation — whose mb_per_s is how far
# describing an answer is from copying it.
#
# Usage:
#   ./scripts/bench.sh                # full run, writes BENCH_YYYY-MM-DD.json
#   BENCHTIME=10x ./scripts/bench.sh  # shorter per-benchmark budget
#   OUT=/tmp/bench.json ./scripts/bench.sh
#
# The JSON shape:
#   {"date":"...","go":"...","goos":"...","goarch":"...","benchtime":"...",
#    "benchmarks":[{"package":"...","name":"...","iterations":N,
#                   "ns_per_op":F,"mb_per_s":F,"bytes_per_op":F,
#                   "allocs_per_op":F,"metrics":{"<unit>":F,...}}, ...]}
# (mb_per_s only for benchmarks that call b.SetBytes; metrics only for
# those that call b.ReportMetric, keyed by its unit — moves/op of
# BenchmarkAdviseSearchCold256, the engine work of a search-large
# operation, and ns/probe beside ns/roundtrip of
# BenchmarkIncrementalProbe, internal/optimizer)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
  echo "bench.sh: unknown argument $1" >&2
  exit 2
fi

BENCHTIME="${BENCHTIME:-100x}"
OUT="${OUT:-BENCH_$(date +%F).json}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" ./internal/... | tee "$raw" >&2

awk -v date="$(date +%F)" \
    -v gover="$(go env GOVERSION)" \
    -v goos="$(go env GOOS)" \
    -v goarch="$(go env GOARCH)" \
    -v benchtime="$BENCHTIME" '
BEGIN {
  printf "{\"date\":\"%s\",\"go\":\"%s\",\"goos\":\"%s\",\"goarch\":\"%s\",\"benchtime\":\"%s\",\"benchmarks\":[", date, gover, goos, goarch, benchtime
  n = 0
  pkg = ""
}
$1 == "pkg:" { pkg = $2 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  iters = $2
  ns = ""; mbs = ""; bytes = ""; allocs = ""; custom = ""
  # Value/unit pairs follow the iteration count.
  for (i = 3; i < NF; i += 2) {
    unit = $(i+1)
    if (unit == "ns/op") ns = $i
    else if (unit == "MB/s") mbs = $i
    else if (unit == "B/op") bytes = $i
    else if (unit == "allocs/op") allocs = $i
    else custom = custom (custom == "" ? "" : ",") "\"" unit "\":" $i
  }
  if (ns == "") next
  if (n++) printf ","
  printf "{\"package\":\"%s\",\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s", pkg, name, iters, ns
  if (mbs != "") printf ",\"mb_per_s\":%s", mbs
  if (bytes != "") printf ",\"bytes_per_op\":%s", bytes
  if (allocs != "") printf ",\"allocs_per_op\":%s", allocs
  if (custom != "") printf ",\"metrics\":{%s}", custom
  printf "}"
}
END { print "]}" }
' "$raw" > "$OUT"

count="$(grep -o '"name"' "$OUT" | wc -l | tr -d ' ')"
echo "wrote $OUT ($count benchmarks)" >&2
