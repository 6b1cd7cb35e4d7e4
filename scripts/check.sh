#!/usr/bin/env bash
# Full local gate: plain build + tier-1 tests, the tier-2 soaks
# (differential arbiter audit + 200-seed overload-protection soak), then the
# whole suite — mmr_overload included — again under AddressSanitizer +
# UndefinedBehaviorSanitizer (SANITIZE applies tree-wide), plus longer
# spec-fuzzer and NIC/VCM/eligibility differential-oracle runs in that
# sanitized tree.
# Usage: scripts/check.sh [--perf] [jobs]
#   --perf   additionally run the perf_baseline smoke sweep and validate the
#            emitted BENCH_perf.json schema with scripts/bench_compare.py
set -euo pipefail

RUN_PERF=0
if [[ "${1:-}" == "--perf" ]]; then
  RUN_PERF=1
  shift
fi
JOBS="${1:-$(nproc)}"
cd "$(dirname "$0")/.."

echo "=== plain build (warnings as errors) ==="
cmake -B build -S . -DMMR_WERROR=ON
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}" -LE tier2

echo
echo "=== tier-2 soaks (arbiter audit, overload protection, MMU; 200 seeds each) ==="
ctest --test-dir build --output-on-failure -j "${JOBS}" -L tier2

echo
echo "=== MMU stage (incast survival verdict, credit vs flow=shared) ==="
./build/bench/incast_survival warmup=2000 measure=20000

echo
echo "=== CICQ stage (burst instability vs stabilization verdict) ==="
./build/bench/cicq_stability warmup=5000 measure=40000

echo
echo "=== trace stage (lint self-test + smoke trace) ==="
python3 scripts/trace_lint.py --check
./build/bench/trace_overhead warmup=500 measure=3000 \
  out=build/TRACE_smoke.jsonl
python3 scripts/trace_lint.py build/TRACE_smoke.jsonl

echo
echo "=== snapshot stage (lint self-test + resume-equivalence smoke) ==="
python3 scripts/snap_lint.py --check
./build/bench/snapshot_soak seeds=2 keep=build/SNAP_smoke.snap
python3 scripts/snap_lint.py build/SNAP_smoke.snap

echo
echo "=== network-scale stage (sharded engine equivalence + scaling smoke) ==="
./build/bench/network_scale_soak seeds=50 big=1
./build/bench/network_scale_soak seeds=10 flow=shared police=shape
./build/bench/network_scale mode=smoke out=build/BENCH_network_smoke.json
python3 scripts/bench_compare.py --check build/BENCH_network_smoke.json

if [[ "${RUN_PERF}" == "1" ]]; then
  echo
  echo "=== perf smoke (perf_baseline + schema check) ==="
  ./build/bench/perf_baseline mode=smoke ports=4 arbiters=coa,coa-scan \
    micro_ports=4,32,128 out=build/BENCH_perf_smoke.json
  python3 scripts/bench_compare.py --check build/BENCH_perf_smoke.json
  echo
  echo "=== wide-port arbitration micro (bitset engines, p16..p128) ==="
  ./build/bench/arbiter_micro \
    --benchmark_filter='/(16|32|64|128)$' \
    --benchmark_min_time=0.05
fi

echo
echo "=== sanitized build (address,undefined) ==="
cmake -B build-asan -S . -DMMR_WERROR=ON -DSANITIZE=address,undefined
cmake --build build-asan -j "${JOBS}"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}"
echo "--- spec fuzzer, longer run under ASan/UBSan (3 seeds) ---"
for seed in 1 2 3; do
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./build-asan/tests/fuzz_specs iterations=20000 seed="${seed}"
done
echo "--- NIC / VCM / eligibility oracles, more seeds under ASan/UBSan ---"
for seed in 1 2 3; do
  for oracle in test_nic test_vcm; do
    ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
      ./build-asan/tests/"${oracle}" --gtest_filter='*Oracle*' \
      iterations=100000 seed="${seed}"
  done
  # Eligibility iterations are simulated cycles per scenario.
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./build-asan/tests/test_eligibility --gtest_filter='*Oracle*' \
    iterations=4000 seed="${seed}"
done

echo
echo "=== thread-sanitized sharded engine (equivalence soak under TSan) ==="
# The soaks cover the cross-shard credit handover into the eligibility masks
# (returns ticked by the receiving shard, drained by the sending router).
# test_network_shard adds the delivery accounting the workers do in phase B:
# fault, overload and VBR frame tallies, folded before every state hash.
cmake -B build-tsan -S . -DSANITIZE=thread
cmake --build build-tsan -j "${JOBS}" --target network_scale_soak \
  test_network_shard
TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/bench/network_scale_soak seeds=5 threads=4
TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/bench/network_scale_soak seeds=3 threads=4 flow=shared \
  police=shape
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_network_shard

echo
echo "all checks passed"
