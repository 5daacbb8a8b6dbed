#!/usr/bin/env sh
# One-command correctness matrix. Runs, in order:
#
#   release   configure+build the release preset, run the full ctest suite
#   asan      AddressSanitizer + UBSan build, full ctest suite
#   tsan      ThreadSanitizer build, full ctest suite (races are fatal:
#             TSAN_OPTIONS=halt_on_error=1 via the test preset)
#   tidy      clang-tidy zero-findings gate (tools/run_clang_tidy.sh;
#             skipped with a note if clang-tidy is not installed)
#   annotate  clang thread-safety analysis: canary pair must pass/fail as
#             expected, then the `analysis` preset builds the whole tree
#             with -Werror=thread-safety (tools/check_thread_safety.sh;
#             skipped with a note if clang++ is not installed)
#   lint      repo-specific lints (tools/lint_repo.py) + their self-test
#   determinism
#             nondeterminism-hazard lints (tools/determinism_lint.py) +
#             their self-test + the audited suppression ledger
#   format    clang-format --dry-run over first-party sources
#             (skipped with a note if clang-format is not installed)
#   bench     perf-regression smoke: build benchmarks, gate via
#             tools/bench_regression.sh (skipped if no baseline committed)
#   scale     trace-scale smoke: bench_scale 10k-machine smoke lane
#             gated against BENCH_scale.json
#             (tools/bench_scale_gate.sh; skipped without a baseline)
#   fuzz      chaos fuzz smoke: tools/fuzz_scenarios --smoke (seeds
#             1-2048 of fault-injected scenarios on every lane and policy,
#             invariants armed) plus the injected-bug harness self-test
#   fma       release preset on -march=x86-64-v3 (FMA and AVX2) in
#             build-fma/: the golden, equivalence and replay tests, the
#             FREEZE certificate tests against full probes, and the LP and
#             filling unit tests on the simplex kernels' 32-byte vectors,
#             must pass unmodified (every target builds with
#             -ffp-contract=off)
#   perfbench build the repo benchmark (perfbench/) and run its self-test:
#             every workload at toy size, traced and untraced, with its
#             output checks (python3 perfbench/run.py --self_test)
#
# Usage:
#   tools/analyze.sh              run every step
#   tools/analyze.sh tsan lint    run a subset, in the order given
#
# Any step failing fails the whole run (the summary shows every step's
# status regardless, so one failure does not hide another).
set -u

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root"

steps="${*:-release asan tsan tidy annotate lint determinism format bench scale fuzz fma perfbench}"
results=""
failed=0

run_step() {
  step="$1"
  echo ""
  echo "==== analyze: $step ===="
  case "$step" in
    release)
      cmake --preset release &&
      cmake --build --preset release -j "$(nproc)" &&
      ctest --preset release -j "$(nproc)"
      ;;
    asan)
      cmake --preset asan &&
      cmake --build --preset asan -j "$(nproc)" &&
      ctest --preset asan -j "$(nproc)"
      ;;
    tsan)
      cmake --preset tsan &&
      cmake --build --preset tsan -j "$(nproc)" &&
      ctest --preset tsan -j "$(nproc)"
      ;;
    tidy)
      # Needs compile_commands.json from any configured build dir.
      if [ ! -f build/compile_commands.json ]; then cmake --preset release; fi
      tools/run_clang_tidy.sh build
      ;;
    annotate)
      tools/check_thread_safety.sh
      ;;
    lint)
      python3 tools/lint_repo.py --self-test &&
      python3 tools/lint_repo.py
      ;;
    determinism)
      python3 tools/determinism_lint.py --self-test &&
      python3 tools/determinism_lint.py &&
      python3 tools/determinism_lint.py --list-suppressions
      ;;
    format)
      if command -v clang-format >/dev/null 2>&1; then
        find src bench tools tests -name '*.h' -o -name '*.cc' |
          xargs clang-format --dry-run -Werror
      else
        echo "clang-format not installed; skipping"
      fi
      ;;
    bench)
      if [ ! -f BENCH_core.json ]; then
        echo "no committed baseline (BENCH_core.json); skipping bench gate"
      else
        cmake --preset release -DTSF_BUILD_BENCH=ON &&
        cmake --build --preset release --target bench_perf_core -j "$(nproc)" &&
        tools/bench_regression.sh build
      fi
      ;;
    scale)
      if [ ! -f BENCH_scale.json ]; then
        echo "no committed baseline (BENCH_scale.json); skipping scale gate"
      else
        cmake --preset release -DTSF_BUILD_BENCH=ON &&
        cmake --build --preset release --target bench_scale -j "$(nproc)" &&
        tools/bench_scale_gate.sh build
      fi
      ;;
    fuzz)
      cmake --preset release &&
      cmake --build --preset release --target fuzz_scenarios -j "$(nproc)" &&
      build/tools/fuzz_scenarios --smoke &&
      build/tools/fuzz_scenarios --smoke --inject_bug=leak_task_on_crash
      ;;
    fma)
      cmake --preset release -B build-fma -DCMAKE_CXX_FLAGS=-march=x86-64-v3 &&
      cmake --build build-fma -j "$(nproc)" &&
      ctest --test-dir build-fma -j "$(nproc)" \
        -R 'GoldenStream|OfflineGolden|EquivalenceClass|ScenarioReplay|FillingReference|LpDifferential|Simplex|ProgressiveFilling|MultiClass'
      ;;
    perfbench)
      python3 perfbench/run.py --self_test
      ;;
    *)
      echo "unknown step: $step (known: release asan tsan tidy annotate lint determinism format bench scale fuzz fma perfbench)" >&2
      return 2
      ;;
  esac
}

for step in $steps; do
  if run_step "$step"; then
    results="$results\n  $step: PASS"
  else
    results="$results\n  $step: FAIL"
    failed=1
  fi
done

echo ""
echo "==== analyze summary ===="
# shellcheck disable=SC2059 — results embeds \n escapes on purpose.
printf "$results\n"
exit "$failed"
