#!/usr/bin/env bash
# Reproduce everything: build, run the test suite, and regenerate every
# table/figure of the paper (plus the motivation and extension experiments).
#
# Usage:  scripts/reproduce.sh [paper]
#   default — reduced-scale benches (seconds per bench)
#   paper   — paper-scale workloads (600 trials, 1000 packets, 30 reps)

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-default}"

cmake -B build -S .
cmake --build build -j "$(nproc 2>/dev/null || echo 2)"

echo "== tests =="
ctest --test-dir build --output-on-failure

echo "== benches ($SCALE scale) =="
run() {
  local bench="$1"
  shift
  echo
  "./build/bench/$bench" "$@"
}

if [ "$SCALE" = "paper" ]; then
  run bench_table1_2_signaling 600
  run bench_fig7_learning_convergence 10
  run bench_fig8_iterations 30
  run bench_fig9_whitespace_length 30
  run bench_fig10_comparison 1000
  run bench_fig11_parameters
  run bench_fig12_mobility
  run bench_fig13_priority
  run bench_cti_accuracy 200
  run bench_energy
  run bench_ablation_detector 600
  run bench_ablation_estimator
  run bench_ablation_expiry
  run bench_motivation_ctc 100
  run bench_ext_multinode
  run bench_ext_ble 20
else
  for b in build/bench/bench_*; do
    name="$(basename "$b")"
    [ "$name" = bench_micro ] && continue
    echo
    "$b"
  done
fi

echo
./build/bench/bench_micro --benchmark_min_time=0.05
