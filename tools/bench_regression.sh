#!/usr/bin/env sh
# Perf-regression gate: runs the core microbenchmarks and compares against
# the committed baseline BENCH_core.json. Any benchmark slower than the
# baseline by more than the tolerance FAILS (non-zero exit), as does the
# telemetry-off overhead check (BM_TraceSimulation — telemetry compiled in,
# runtime-disabled, the default build — must stay within 2% of baseline).
# The run covers the whole suite, so its timed rows and the baseline's must
# be the same set: a benchmark added, renamed or deleted without updating
# the baseline FAILS instead of silently comparing nothing.
#
# Usage:
#   tools/bench_regression.sh [build-dir]            gate; baseline untouched
#   tools/bench_regression.sh --update [build-dir]   gate, then rewrite the
#                                                    baseline IF the gate passed
#   tools/bench_regression.sh --init [build-dir]     create a missing baseline
#
# Environment:
#   TSF_BENCH_TOLERANCE_PCT   allowed slowdown per benchmark, in percent
#                             (default 10 — wall-clock on shared runners is
#                             noisy; the telemetry check stays at 2 because
#                             that benchmark is long enough to be stable)
set -eu

init=0
update=0
while [ "$#" -gt 0 ]; do
  case "$1" in
    --init) init=1; shift ;;
    --update) update=1; shift ;;
    *) break ;;
  esac
done

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bench="$build_dir/bench/bench_perf_core"
baseline="$repo_root/BENCH_core.json"
fresh="$repo_root/BENCH_core.json.new"
tolerance="${TSF_BENCH_TOLERANCE_PCT:-10}"

# Refuses perf numbers from an unoptimized binary: a debug-built baseline
# once slipped in and made every release run look like a huge speedup while
# real regressions hid under it. bench_perf_core stamps tsf_build_type from
# its own NDEBUG; library_build_type only describes how libbenchmark was
# compiled (debug on some distro packages even for optimized builds), so it
# is merely the fallback for results predating the stamp.
check_release_build() {
  if ! python3 - "$1" <<'EOF'
import json, sys
ctx = json.load(open(sys.argv[1])).get("context", {})
bt = ctx.get("tsf_build_type", ctx.get("library_build_type", "unknown"))
if bt != "release":
    print(f"error: benchmark run reports build type '{bt}' — refusing to gate"
          " or record perf numbers from a non-release build.", file=sys.stderr)
    print("build the release preset first:", file=sys.stderr)
    print("  cmake --preset release && "
          "cmake --build --preset release --target bench_perf_core -j",
          file=sys.stderr)
    sys.exit(1)
EOF
  then
    rm -f "$1"
    exit 1
  fi
}

if [ ! -x "$bench" ]; then
  echo "error: benchmark binary $bench is missing or not executable." >&2
  echo "build it first:" >&2
  echo "  cmake -B $build_dir -S $repo_root -DTSF_BUILD_BENCH=ON" >&2
  echo "  cmake --build $build_dir --target bench_perf_core -j" >&2
  exit 1
fi

if [ ! -f "$baseline" ]; then
  if [ "$init" -eq 0 ]; then
    echo "error: baseline $baseline is missing — a diff against nothing would" >&2
    echo "silently record whatever this machine produces as the new truth." >&2
    echo "rerun as: tools/bench_regression.sh --init $build_dir" >&2
    exit 1
  fi
  "$bench" --benchmark_format=console \
           --benchmark_out="$fresh" --benchmark_out_format=json
  check_release_build "$fresh"
  mv "$fresh" "$baseline"
  echo "no baseline to diff against; created $baseline (--init)"
  exit 0
fi

"$bench" --benchmark_format=console \
         --benchmark_out="$fresh" --benchmark_out_format=json
check_release_build "$fresh"

if python3 - "$baseline" "$fresh" "$tolerance" <<'EOF'
import json, sys

def timed(path):
    # Complexity-fit rows (_BigO, _RMS) carry no real_time; skip them.
    return {b["name"]: b for b in json.load(open(path))["benchmarks"]
            if "real_time" in b}

old = timed(sys.argv[1])
new = timed(sys.argv[2])
tolerance = float(sys.argv[3])
failures = []

print(f"{'benchmark':40s} {'old':>12s} {'new':>12s} {'speedup':>8s}")
for name, b in new.items():
    if name not in old:
        print(f"{name:40s} {'-':>12s} {b['real_time']:>10.1f}{b['time_unit']:<2s}"
              "  << NO BASELINE")
        failures.append(f"{name}: in the fresh run but not in the baseline")
        continue
    o, n = old[name]["real_time"], b["real_time"]
    unit = b["time_unit"]
    slowdown_pct = (n - o) / o * 100.0
    flag = ""
    if slowdown_pct > tolerance:
        flag = "  << REGRESSION"
        failures.append(f"{name}: {slowdown_pct:+.1f}% (limit +{tolerance:g}%)")
    print(f"{name:40s} {o:>10.1f}{unit:<2s} {n:>10.1f}{unit:<2s} "
          f"{o / n:>7.2f}x{flag}")
for name in old:
    if name not in new:
        print(f"{name:40s} {old[name]['real_time']:>10.1f}"
              f"{old[name]['time_unit']:<2s} {'-':>12s}  << NOT RUN")
        failures.append(f"{name}: in the baseline but not in the fresh run")

# Telemetry-off overhead check (see tools/check_telemetry_overhead.sh for
# the stricter compiled-out vs compiled-in gate): the default build carries
# telemetry compiled in but disabled, so BM_TraceSimulation drifting beyond
# 2% of the committed baseline flags instrumentation creep on the hot path.
name = "BM_TraceSimulation"
if name in old and name in new:
    o, n = old[name]["real_time"], new[name]["real_time"]
    delta_pct = (n - o) / o * 100.0
    ok = delta_pct <= 2.0
    print(f"\ntelemetry-off overhead check: {name} {delta_pct:+.2f}% "
          f"vs baseline (limit +2%) — {'PASS' if ok else 'FAIL'}")
    if not ok:
        failures.append(f"{name} telemetry-off overhead: {delta_pct:+.2f}% "
                        "(limit +2%)")
else:
    print(f"\ntelemetry-off overhead check: {name} missing from "
          "baseline or fresh run — SKIPPED")

if failures:
    print("\nbench_regression: FAIL")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print("\nbench_regression: PASS")
EOF
then
  if [ "$update" -eq 1 ]; then
    mv "$fresh" "$baseline"
    echo "baseline updated: $baseline"
  else
    rm -f "$fresh"
  fi
else
  # Gate failed: never let a regressed run become the new baseline.
  rm -f "$fresh"
  exit 1
fi
