#!/usr/bin/env bash
# Full correctness gate: plain build + tests, then the runner tests under
# ThreadSanitizer (data races in the trial executor), then the whole suite
# under ASan+UBSan, where any UBSan finding (float-cast-overflow included)
# aborts the program and so fails the gate. Each sanitizer gets its own
# build directory so the builds never contaminate each other. The plain
# build is configured with -DBICORD_WERROR=ON, so a new compiler warning
# fails the gate.
#
# Usage:  scripts/check.sh [fast|lint|chaos|bench|examples|dense|failover|techs|perfbench]
#   default — plain + lint (clang-tidy + bicord_lint) + dense smoke +
#             benchmark self-test + failover smoke + TSAN + ASan/UBSan,
#             i.e. warnings -> static gates -> tests -> sanitizers
#   fast    — plain build + tests only
#   lint    — static gates only: clang-tidy (skipped with a notice when the
#             tool is absent) and tools/bicord_lint; any finding fails (see
#             scripts/lint.sh and DESIGN.md Sec. 10)
#   dense   — dense-scenario smoke: the medium equivalence, stress,
#             retirement, indexed-audience and band contract suites, then
#             bicordsim on the dense, dense1k, city and tsch presets twice
#             each — spatial index on vs off — asserting byte-identical
#             output (DESIGN.md Sec. 12); part of the default full gate
#   chaos   — chaos soak (fixed seed): fault tests under ASan/UBSan and the
#             parallel soak under TSAN, plus a mixed-plan bicordsim run whose
#             invariant checker gates the exit code
#   failover — multi-grantor smoke: the election/failover suites plus a
#             16-seed failover soak under ASan/UBSan and the soak again under
#             TSAN, then a failover-preset bicordsim run (clock skew + primary
#             kill/rejoin) whose invariant checker gates the exit code; part
#             of the default full gate
#   techs   — third/fourth-technology and device-lifetime smoke under
#             ASan/UBSan: the LTE-U + TSCH suite (the TechnologyTraits seam
#             proof of DESIGN.md Sec. 14), the BLE, CTC and MAC suites, the
#             interferer and Bluetooth-field cases and the PeriodicTask and
#             Timer cases, so a device whose periodic tick or one-shot
#             deadline outlives it fails here; the default gate's full ASan
#             pass covers them too
#   bench   — perf smoke: one fast bench_micro pass asserting the
#             machine-independent invariants (hot path allocation-free);
#             absolute-time comparison is opt-in via scripts/bench.sh compare
#   examples — builds and runs all four examples as smoke tests; any nonzero
#             exit (or a crash mid-render) fails the gate
#   perfbench — the repository benchmark's self-test (perfbench/run.py
#             --selftest, Release tree in .bench_build/): the stepped driver
#             matches run_for, traced and untraced runs agree, 1- and
#             2-worker sweeps aggregate equally, and every workload runs
#             once with and without tracing; part of the default full gate

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"
JOBS="$(nproc 2>/dev/null || echo 2)"
case "$MODE" in
  full|fast|lint|chaos|bench|examples|dense|failover|techs|perfbench) ;;
  *)
    echo "usage: scripts/check.sh [fast|lint|chaos|bench|examples|dense|failover|techs|perfbench]" >&2
    exit 1
    ;;
esac

if [ "$MODE" = "bench" ]; then
  echo "== perf smoke: bench_micro allocation invariants =="
  exec scripts/bench.sh smoke
fi

if [ "$MODE" = "perfbench" ]; then
  echo "== benchmark self-test =="
  exec python3 perfbench/run.py --selftest
fi

if [ "$MODE" = "lint" ]; then
  echo "== static gates: clang-tidy + bicord_lint =="
  exec scripts/lint.sh all
fi

if [ "$MODE" = "examples" ]; then
  EXAMPLES=(quickstart smart_home industrial_monitoring signaling_demo)
  echo "== examples smoke: build + run ${EXAMPLES[*]} =="
  cmake -B build -S . -DBICORD_WERROR=ON > /dev/null
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
# tsch defaults to brute force, so its first run forces the index on: its
# hopping radios pick up in-flight transmissions on retune, and that pickup
# must not depend on the path.
dense_smoke() {
  ./build/tests/phy_tests \
    --gtest_filter='MediumEquivalence.*:MediumStress.*:MediumBandGate.*:*BandContract.*:MediumRetirement.*:IndexedFixture.*'
  local preset args out_idx out_brute
  for preset in dense dense1k city tsch; do
    case "$preset" in
      dense)   args=(--seconds 3) ;;              # churn plan fires inside 4 sim-s
      dense1k) args=(--warmup-seconds 0 --seconds 1) ;;
      city)    args=(--warmup-seconds 0 --seconds 1) ;;
      tsch)    args=(--seconds 3 --set medium.spatial_index=true) ;;
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
  echo "OK: dense, dense1k, city and tsch byte-identical with the spatial index on and off"
}

if [ "$MODE" = "dense" ]; then
  echo "== dense smoke: spatial index vs brute force =="
  cmake -B build -S . -DBICORD_WERROR=ON > /dev/null
  cmake --build build -j "$JOBS" --target bicordsim phy_tests
  dense_smoke
  exit 0
fi

# Techs smoke: the LTE-U and TSCH technologies — the two instantiations
# that prove the TechnologyTraits seam carries a whole technology without
# engine surgery — plus every other fixed-period device (BLE links, the
# microwave oven, Bluetooth fields), the MACs and CTC links that hold
# one-shot deadlines, and the sim::PeriodicTask and sim::Timer they run on,
# under ASan/UBSan: a device destroyed with its tick or deadline still
# queued is a use-after-free here. The golden file pins the lteu and tsch
# presets' output bitwise.
if [ "$MODE" = "techs" ]; then
  echo "== techs smoke: ASan + UBSan, LTE-U + TSCH + device lifetimes =="
  cmake -B build-asan -S . -DBICORD_SANITIZE=address > /dev/null
  cmake --build build-asan -j "$JOBS" \
    --target techs_tests ble_tests ctc_tests mac_tests csi_detect_tests sim_tests
  ./build-asan/tests/techs_tests
  ./build-asan/tests/ble_tests
  ./build-asan/tests/ctc_tests
  ./build-asan/tests/mac_tests
  ./build-asan/tests/csi_detect_tests --gtest_filter='InterfererFixture.*:BluetoothFieldTest.*'
  ./build-asan/tests/sim_tests --gtest_filter='PeriodicTaskTest.*:TimerTest.*'

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
  ./build-asan/tools/bicordsim --fault-plan mixed --seconds 8 --set seed=7

  echo
  echo "OK: chaos soak green (ASan/UBSan + TSAN, seed 7)"
  exit 0
fi

echo "== plain build + tests =="
cmake -B build -S . -DBICORD_WERROR=ON > /dev/null
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
echo "== benchmark self-test =="
python3 perfbench/run.py --selftest

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
echo "OK: plain, lint, dense smoke, benchmark self-test, TSAN (runner+failover), ASan/UBSan, failover all green"
