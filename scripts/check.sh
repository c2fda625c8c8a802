#!/usr/bin/env bash
# Full correctness gate: plain build + tests, then the runner tests under
# ThreadSanitizer (data races in the trial executor), then the whole suite
# under ASan+UBSan. Each sanitizer gets its own build directory so the
# builds never contaminate each other.
#
# Usage:  scripts/check.sh [fast|lint|lint-fast|chaos|bench|examples|dense|failover|techs]
#   default — plain + lint (clang-tidy + bicord_lint) + dense smoke +
#             failover smoke + TSAN + ASan/UBSan, i.e. warnings -> static
#             gates -> tests -> sanitizers
#   fast    — plain build + tests only
#   lint    — static gates only: clang-tidy (skipped with a notice when the
#             tool is absent) and tools/bicord_lint, both against ratcheted
#             baselines (see scripts/lint.sh and DESIGN.md Sec. 10)
#   lint-fast — inner-loop static gate: bicord_lint on CHANGED files only
#             (git diff vs HEAD + staged + untracked; BICORD_FORMAT_BASE
#             widens the range). Same exit-code contract as lint (0 clean,
#             2 new findings, 3 ratchet violation); clang-tidy is skipped
#   dense   — dense-scenario smoke: the medium equivalence/stress suites,
#             then bicordsim on the dense + dense1k presets twice each —
#             spatial index on vs off — asserting byte-identical output
#             (DESIGN.md Sec. 12); part of the default full gate
#   chaos   — chaos soak (fixed seed): fault tests under ASan/UBSan and the
#             parallel soak under TSAN, plus a mixed-plan bicordsim run whose
#             invariant checker gates the exit code
#   failover — multi-grantor smoke: the election/failover suites plus a
#             16-seed failover soak under ASan/UBSan and the soak again under
#             TSAN, then a failover-preset bicordsim run (clock skew + primary
#             kill/rejoin) whose invariant checker gates the exit code; part
#             of the default full gate
#   techs   — third/fourth-technology smoke: the LTE-U + TSCH suite under
#             ASan/UBSan (the TechnologyTraits seam proof of DESIGN.md
#             Sec. 14); the default gate's full ASan pass covers it too
#   bench   — perf smoke: one fast bench_micro pass asserting the
#             machine-independent invariants (hot path allocation-free);
#             absolute-time comparison is opt-in via scripts/bench.sh compare
#   examples — builds and runs all four examples as smoke tests; any nonzero
#             exit (or a crash mid-render) fails the gate

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"
JOBS="$(nproc 2>/dev/null || echo 2)"

if [ "$MODE" = "bench" ]; then
  echo "== perf smoke: bench_micro allocation invariants =="
  exec scripts/bench.sh smoke
fi

if [ "$MODE" = "lint" ]; then
  echo "== static gates: clang-tidy + bicord_lint =="
  exec scripts/lint.sh all
fi

if [ "$MODE" = "lint-fast" ]; then
  echo "== static gate (inner loop): bicord_lint, changed files only =="
  exec scripts/lint.sh fast
fi

if [ "$MODE" = "examples" ]; then
  EXAMPLES=(quickstart smart_home industrial_monitoring signaling_demo)
  echo "== examples smoke: build + run ${EXAMPLES[*]} =="
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS" --target "${EXAMPLES[@]}"
  for ex in "${EXAMPLES[@]}"; do
    echo
    echo "== examples smoke: $ex =="
    "./build/examples/$ex" > /dev/null
  done
  echo
  echo "OK: all ${#EXAMPLES[@]} examples ran clean"
  exit 0
fi

# Dense smoke: prove the spatially-indexed medium is output-identical to the
# brute-force reference on the shipped dense presets, end to end through
# bicordsim (stdout is deterministic, so plain diff is the equality gate).
dense_smoke() {
  ./build/tests/phy_tests --gtest_filter='MediumEquivalence.*:MediumStress.*'
  local preset args out_idx out_brute
  for preset in dense dense1k; do
    case "$preset" in
      dense)   args=(--seconds 3) ;;              # churn plan fires inside 4 sim-s
      dense1k) args=(--warmup-seconds 0 --seconds 1) ;;
    esac
    out_idx="build/dense_smoke_${preset}_indexed.txt"
    out_brute="build/dense_smoke_${preset}_brute.txt"
    echo "-- $preset: indexed vs brute-force"
    ./build/tools/bicordsim --scenario "$preset" "${args[@]}" > "$out_idx"
    ./build/tools/bicordsim --scenario "$preset" "${args[@]}" \
      --set medium.spatial_index=false > "$out_brute"
    diff "$out_idx" "$out_brute" || {
      echo "FAIL: $preset output differs between spatial index on and off" >&2
      return 1
    }
  done
  echo "OK: dense presets byte-identical with the spatial index on and off"
}

if [ "$MODE" = "dense" ]; then
  echo "== dense smoke: spatial index vs brute force =="
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS" --target bicordsim phy_tests
  dense_smoke
  exit 0
fi

# Techs smoke: the LTE-U and TSCH technologies — the two instantiations
# that prove the TechnologyTraits seam carries a whole technology without
# engine surgery — under ASan/UBSan. The golden file pins both presets'
# output bitwise.
if [ "$MODE" = "techs" ]; then
  echo "== techs smoke: ASan + UBSan, LTE-U + TSCH suite =="
  cmake -B build-asan -S . -DBICORD_SANITIZE=address > /dev/null
  cmake --build build-asan -j "$JOBS" --target techs_tests
  ./build-asan/tests/techs_tests

  echo
  echo "OK: techs smoke green (ASan/UBSan)"
  exit 0
fi

# Failover smoke: the multi-grantor election under memory and race
# sanitizers. The ASan leg runs the whole failover family (election unit
# tests live in core_tests, the synthetic invariant traces and the 16-seed
# soak in fault_tests); the TSAN leg reruns the soak because the experiment
# runner dispatches trials across threads. The bicordsim leg exercises the
# shipped failover preset end to end with the invariant checker gating the
# exit code.
FAILOVER_FAULT_FILTER='InvariantElectionTest.*:FailoverSoakTest.*'

failover_smoke_asan() {
  ./build-asan/tests/core_tests --gtest_filter='GrantorElectionTest.*'
  ./build-asan/tests/fault_tests --gtest_filter="$FAILOVER_FAULT_FILTER"
}

failover_smoke_tsan() {
  ./build-tsan/tests/fault_tests --gtest_filter='FailoverSoakTest.*'
}

failover_smoke_sim() {
  echo "-- bicordsim --scenario failover (invariants gate exit)"
  ./build-asan/tools/bicordsim --scenario failover --seconds 6 > /dev/null
}

if [ "$MODE" = "failover" ]; then
  echo "== failover smoke: ASan + UBSan, election + soak =="
  cmake -B build-asan -S . -DBICORD_SANITIZE=address > /dev/null
  cmake --build build-asan -j "$JOBS" --target core_tests fault_tests bicordsim
  failover_smoke_asan

  echo
  echo "== failover smoke: TSAN, 16-seed soak =="
  cmake -B build-tsan -S . -DBICORD_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j "$JOBS" --target fault_tests
  failover_smoke_tsan

  echo
  echo "== failover smoke: bicordsim failover preset =="
  failover_smoke_sim

  echo
  echo "OK: failover smoke green (ASan/UBSan + TSAN)"
  exit 0
fi

if [ "$MODE" = "chaos" ]; then
  echo "== chaos soak: ASan + UBSan, fault tests =="
  cmake -B build-asan -S . -DBICORD_SANITIZE=address > /dev/null
  cmake --build build-asan -j "$JOBS" --target fault_tests bicordsim
  ./build-asan/tests/fault_tests

  echo
  echo "== chaos soak: TSAN, parallel soak + runner tests =="
  cmake -B build-tsan -S . -DBICORD_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j "$JOBS" --target fault_tests runner_tests
  ./build-tsan/tests/fault_tests --gtest_filter='ChaosSoakTest.*'
  ./build-tsan/tests/runner_tests

  echo
  echo "== chaos soak: bicordsim --fault-plan mixed (invariants gate exit) =="
  ./build-asan/tools/bicordsim --fault-plan mixed --seconds 8 --seed 7

  echo
  echo "OK: chaos soak green (ASan/UBSan + TSAN, seed 7)"
  exit 0
fi

echo "== plain build + tests =="
cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [ "$MODE" = "fast" ]; then
  echo "OK (fast)"
  exit 0
fi

echo
echo "== static gates: clang-tidy + bicord_lint =="
scripts/lint.sh all

echo
echo "== dense smoke: spatial index vs brute force =="
dense_smoke

echo
echo "== ThreadSanitizer: runner tests + failover soak =="
cmake -B build-tsan -S . -DBICORD_SANITIZE=thread > /dev/null
cmake --build build-tsan -j "$JOBS" --target runner_tests fault_tests
./build-tsan/tests/runner_tests
failover_smoke_tsan

echo
echo "== ASan + UBSan: full suite =="
cmake -B build-asan -S . -DBICORD_SANITIZE=address > /dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo
echo "== failover smoke: bicordsim failover preset =="
failover_smoke_sim

echo
echo "OK: plain, lint, dense smoke, TSAN (runner+failover), ASan/UBSan, failover all green"
