#!/usr/bin/env bash
# Build the common, memory, sim, cpu, dift, decode and verify test
# suites under ASan+UBSan into build-asan/ and run each of them. The
# one list of ASan+UBSan suites: scripts/check.sh and CI both run this.
#
# Usage: scripts/sanitize.sh
#   CHECK_JOBS=N   build parallelism (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${CHECK_JOBS:-$(nproc)}"
suites=(test_common test_memory test_sim test_cpu test_dift test_decode
        test_verify)

cmake -S . -B build-asan -DCSD_SANITIZE=ON >/dev/null
cmake --build build-asan -j"$jobs" --target "${suites[@]}"
for suite in "${suites[@]}"; do
    echo "== sanitize: $suite =="
    ./build-asan/tests/"$suite"
done
