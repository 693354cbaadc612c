#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite, run the
# csd-lint static analyser over every shipped workload (plus clang-tidy
# when it is installed), then rebuild the common, memory, sim, cpu,
# dift, decode and verify tests under ASan+UBSan and run those.
#
# Usage: scripts/check.sh [--no-sanitize]
#   CSD_CHECK_JOBS=N   parallelism (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${CSD_CHECK_JOBS:-$(nproc)}"
sanitize=1
if [[ "${1:-}" == "--no-sanitize" ]]; then
    sanitize=0
fi

echo "== tier-1: build =="
cmake -S . -B build >/dev/null
cmake --build build -j"$jobs"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j"$jobs"

echo "== static analysis: csd-lint =="
cmake --build build -j"$jobs" --target csd-lint
./build/src/verify/csd-lint all --channels --tiers --mcu \
    --json build/csd-lint.json

echo "== static analysis: findings baseline ratchet =="
python3 scripts/check_lint_baseline.py build/csd-lint.json \
    verify/baseline_findings.json

if command -v clang-tidy >/dev/null 2>&1; then
    echo "== static analysis: clang-tidy =="
    mapfile -t tidy_srcs < <(git ls-files 'src/*.cc')
    clang-tidy -p build --warnings-as-errors='*' "${tidy_srcs[@]}"
else
    echo "== static analysis: clang-tidy not installed, skipping =="
fi

if [[ "$sanitize" == 1 ]]; then
    echo "== sanitize: ASan+UBSan build of common/memory/sim/cpu/dift/decode/verify tests =="
    cmake -S . -B build-asan -DCSD_SANITIZE=ON >/dev/null
    cmake --build build-asan -j"$jobs" \
        --target test_common test_memory test_sim test_cpu test_dift test_decode \
        test_verify
    echo "== sanitize: run =="
    for suite in test_common test_memory test_sim test_cpu test_dift test_decode \
        test_verify; do
        ./build-asan/tests/"$suite"
    done
fi

echo "check.sh: all green"
