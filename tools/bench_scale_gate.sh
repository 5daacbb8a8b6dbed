#!/usr/bin/env sh
# Trace-scale smoke gate: runs the bench_scale smoke lane (10k machines) and
# compares it against the committed BENCH_scale.json. Fails when
#   * the fresh run comes from a non-release binary (JSON context check),
#   * a fresh lane has no baseline entry (a renamed or added lane would
#     otherwise compare nothing); baseline lanes the smoke run skips are
#     fine, since it runs only the smallest one,
#   * a lane's items/sec dropped below baseline by more than the tolerance.
# Peak RSS per lane is printed alongside (ru_maxrss is process-monotone, so
# only the first lane's value is a tight per-lane bound; rss_delta_mb is the
# growth during the lane).
#
# Usage:
#   tools/bench_scale_gate.sh [build-dir]
#
# Environment:
#   TSF_BENCH_TOLERANCE_PCT   allowed items/sec drop per lane, in percent
#                             (default 50 — the smoke lanes run well under a
#                             second, so shared-runner noise is large)
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bench="$build_dir/bench/bench_scale"
baseline="$repo_root/BENCH_scale.json"
fresh="$repo_root/BENCH_scale.json.new"
tolerance="${TSF_BENCH_TOLERANCE_PCT:-50}"

if [ ! -x "$bench" ]; then
  echo "error: $bench is missing or not executable." >&2
  echo "build it first:" >&2
  echo "  cmake --preset release && cmake --build build --target bench_scale -j" >&2
  exit 1
fi
if [ ! -f "$baseline" ]; then
  echo "error: no committed baseline ($baseline); run $bench once" >&2
  echo "(full lanes) and commit its output." >&2
  exit 1
fi

"$bench" --smoke --out="$fresh"

if python3 - "$baseline" "$fresh" "$tolerance" <<'EOF'
import json, sys

old = json.load(open(sys.argv[1]))
new = json.load(open(sys.argv[2]))
tolerance = float(sys.argv[3])
failures = []

build_type = new.get("context", {}).get("tsf_build_type", "unknown")
if build_type != "release":
    failures.append(f"fresh run reports build type '{build_type}' — rebuild "
                    "with the release preset")

old_lanes = {b["name"]: b for b in old["benchmarks"]}
print(f"{'lane':28s} {'old':>12s} {'new':>12s} {'peak rss':>10s}")
for lane in new["benchmarks"]:
    name = lane["name"]
    rss = f"{lane['peak_rss_mb']:.1f}MB"
    if name not in old_lanes:
        print(f"{name:28s} {'-':>12s} {lane['items_per_second']:>10.0f}/s {rss:>10s}"
              "  << NO BASELINE")
        failures.append(f"{name}: no baseline lane of that name (baseline "
                        f"lanes: {', '.join(sorted(old_lanes))})")
        continue
    o = old_lanes[name]["items_per_second"]
    n = lane["items_per_second"]
    drop_pct = (o - n) / o * 100.0
    flag = ""
    if drop_pct > tolerance:
        flag = "  << REGRESSION"
        failures.append(f"{name}: items/sec {drop_pct:+.1f}% below baseline "
                        f"(limit -{tolerance:g}%)")
    print(f"{name:28s} {o:>10.0f}/s {n:>10.0f}/s {rss:>10s}{flag}")

if failures:
    print("\nbench_scale_gate: FAIL")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print("\nbench_scale_gate: PASS")
EOF
then
  rm -f "$fresh"
else
  rm -f "$fresh"
  exit 1
fi
