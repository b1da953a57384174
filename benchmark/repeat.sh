#!/usr/bin/env bash
# Run the whole benchmark N times on one seed and check that it agrees
# with itself:
#
#   * every end-to-end metric, per workload: the spread of its N values
#     (first to third quartile as statistics.quantiles gives them, or
#     max - min for N < 4, as a share of the median) stays within the
#     metric's bound in BENCHMARK.json;
#   * the exact counters of the single-client traced runs are bit-equal.
#
# usage: benchmark/repeat.sh [N (default 2)] [SEED] [SECONDS]
# Exits non-zero on any violation or any incorrect run.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
runs="${1:-2}"
seed="${2:-20160901}"
seconds="${3:-}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
out="$here/out/repeat"
mkdir -p "$out"
rm -f "$out"/*.json

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/voodoo-benchmark"

for run in $(seq 1 "$runs"); do
  for workload in tpch_scan adhoc_sql serve_open ingest_views; do
    for trace in 0 1; do
      echo "run $run/$runs: $workload --trace $trace" >&2
      "$bin" --workload "$workload" --seed "$seed" --trace "$trace" \
        ${seconds:+--seconds "$seconds"} | tail -n 1 \
        > "$out/$workload.$trace.$run.json" || true
    done
  done
done

python3 - "$here/../BENCHMARK.json" "$out" "$runs" <<'PY'
import json, statistics, sys

manifest = json.load(open(sys.argv[1]))
out, runs = sys.argv[2], int(sys.argv[3])
EXACT = {
    "tpch_scan": ["compile.events_elements", "compile.events_seq_read_bytes",
                  "compile.events_rand_reads", "compile.events_barriers",
                  "gpusim.simulated_s", "bench.workload_digest"],
    "adhoc_sql": ["bench.workload_digest"],
    "serve_open": ["bench.workload_digest"],
    "ingest_views": ["ivm.delta_refreshes", "ivm.rows_delta", "ivm.full_recomputes",
                     "storage.compactions", "bench.workload_digest"],
}
bad = 0
for w in (w["name"] for w in manifest["workloads"]):
    results = {t: [json.load(open(f"{out}/{w}.{t}.{r}.json")) for r in range(1, runs + 1)]
               for t in (0, 1)}
    for t in (0, 1):
        for r, result in enumerate(results[t], 1):
            if not result["correct"]:
                print(f"FAIL {w} --trace {t} run {r}: {result['failed']} of "
                      f"{result['attempted']} ops failed")
                bad += 1
    for m in manifest["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results[0]]
        median = statistics.median(values)
        if len(values) >= 4:
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / median
        else:
            spread = (max(values) - min(values)) / median
        verdict = "ok  " if spread <= m["bound"] else "FAIL"
        bad += verdict == "FAIL"
        print(f"{verdict} {w:13s} {m['name']:18s} median {median:12.4f} {m['unit']:4s} "
              f"spread {100 * spread:6.2f} % (bound {100 * m['bound']:.0f} %)")
    for name in EXACT[w]:
        values = {r["metrics"][name]["value"] for r in results[1]}
        verdict = "ok  " if len(values) == 1 else "FAIL"
        bad += verdict == "FAIL"
        print(f"{verdict} {w:13s} {name:30s} exact {sorted(values)}")
print("claim: null")
sys.exit(1 if bad else 0)
PY
