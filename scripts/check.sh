#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite, run the
# csd-lint static analyser over every shipped workload (plus clang-tidy
# when it is installed), then run the ASan+UBSan suites
# (scripts/sanitize.sh).
#
# Usage: scripts/check.sh [--no-sanitize]
#   CHECK_JOBS=N   parallelism (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${CHECK_JOBS:-$(nproc)}"
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
    echo "== sanitize: ASan+UBSan suites =="
    CHECK_JOBS="$jobs" scripts/sanitize.sh
fi

echo "check.sh: all green"
