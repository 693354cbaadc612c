#!/usr/bin/env python3
"""Compare a bench_sim_throughput sidecar against a committed baseline.

Usage: check_throughput.py [--max-regression FRAC] <current.json> <baseline.json>

Both files are JSON sidecars produced by `bench_sim_throughput --json`.
For every throughput stat (kuops/s keys) present in the baseline, the
current value must not fall below (1 - FRAC) * baseline (default FRAC
0.20, i.e. a >20% regression fails). The flow-cache speedup (detailed
interpreter, flow cache on / off) must also stay above a sanity floor:
the cache must never make the detailed model *slower* (translation got
cheap enough elsewhere that the cache's win is modest, but a value
below 1 would mean the cache costs more than it saves and should be
investigated).

The superblock threaded-code tier is guarded by its in-process ratios,
not an absolute floor: `superblock_speedup` (cache-only tier-on /
tier-off), `detailed_superblock_speedup` (detailed tier-on / tier-off)
and `gated_superblock_speedup` (detailed SPEC milc under the CSD-devect
power-gating policy, tier-on / tier-off), each measured inside one
bench process, must stay at or above MIN_SB_SPEEDUP,
MIN_DETAILED_SB_SPEEDUP and MIN_GATED_SB_SPEEDUP. The ratios are
robust to the run-to-run host noise that makes absolute kuops/s floors
loose, so they are the primary guards for the tier. The sidecar must
also show the tier actually engaged (`superblock.entries` > 0, and
`superblock.detailed_uop_coverage` at least MIN_DETAILED_COVERAGE) — a
silently disabled tier would otherwise pass the ratio checks only by
failing the absolute floors.

The stealth row (cache-only AES under CSD stealth mode with a watchdog
that retriggers several times per block) must keep its flow-cache hit
rate at or above MIN_STEALTH_HIT_RATE: a retrigger only refills the
decoy queue, so memoized flows must survive it. The ratio is a pure
function of the simulated run, so host noise cannot flake it.

Host machines differ, so the committed baseline is a floor for CI's
runner class, not a universal truth; refresh it with
`bench_sim_throughput --json bench/baseline_throughput.json` on the CI
runner when the simulator legitimately changes speed. Disabling the
flow cache also disables the superblock tier (it compiles cached
flows), so `detailed_kuops_per_s_cache_off` measures the bare
interpreter in both fidelities' sense: no memoized flows, no blocks.

Exit code 0 on success; nonzero with a diagnostic otherwise.
"""

import json
import sys

THROUGHPUT_KEYS = (
    "detailed_kuops_per_s_cache_on",
    "detailed_kuops_per_s_interp",
    "detailed_kuops_per_s_cache_off",
    "cacheonly_kuops_per_s",
    "cacheonly_kuops_per_s_interp",
)
# Sanity floor for flow_cache_speedup (cache-on / cache-off): below
# this the cache is a net loss on the host and something is wrong.
MIN_SPEEDUP = 0.9
# Floor for superblock_speedup (cache-only tier-on / tier-off, same
# process): the threaded-code tier must at least double cache-only
# throughput. In-process, so host noise cancels out.
MIN_SB_SPEEDUP = 2.0
# Floor for detailed_superblock_speedup (detailed tier-on / tier-off,
# same process, run in alternating batches): below the minimum of
# twenty single runs on the reference host, a 4-thread VM (1.37; range
# 1.37-1.58), with margin for the runner class. The interpreter reads
# the same cached timing records as the tier, so the ratio measures
# what the tier saves beyond them: the per-macro translator protocol
# and the functional executor's dispatch.
MIN_DETAILED_SB_SPEEDUP = 1.3
# Floor for gated_superblock_speedup (detailed SPEC milc under the
# CSD-devect policy, tier-on / tier-off, same process, alternating
# batches): the power controller's per-macro hook and the tier's
# context guard run on both sides, and devectorization toggles hand
# some vector macros to the interpreter, so the ratio sits below the
# AES one. A prototype measured 1.31x over all 39 SPEC cells.
MIN_GATED_SB_SPEEDUP = 1.15
# Floor for superblock.detailed_uop_coverage (deterministic up to where
# the timed loop stops): straight-line AES must run on the tier.
MIN_DETAILED_COVERAGE = 0.9
# Floor for stealth_flow_cache_hit_rate (deterministic).
MIN_STEALTH_HIT_RATE = 0.95


def fail(msg):
    print(f"check_throughput: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_stats(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: unreadable or invalid JSON: {e}")
    if "stats" not in doc:
        fail(f"{path}: sidecar missing 'stats'")
    return doc["stats"]


def main():
    argv = sys.argv[1:]
    max_regression = 0.20
    if argv and argv[0] == "--max-regression":
        if len(argv) < 2:
            fail("--max-regression needs a value")
        max_regression = float(argv[1])
        argv = argv[2:]
    if len(argv) != 2:
        fail(
            "usage: check_throughput.py [--max-regression FRAC] "
            "<current.json> <baseline.json>"
        )
    current = load_stats(argv[0])
    baseline = load_stats(argv[1])

    ok = True
    for key in THROUGHPUT_KEYS:
        if key not in baseline:
            fail(f"baseline missing '{key}'")
        if key not in current:
            fail(f"current run missing '{key}'")
        floor = baseline[key] * (1.0 - max_regression)
        status = "ok" if current[key] >= floor else "REGRESSED"
        print(
            f"check_throughput: {key}: current {current[key]:.1f} "
            f"baseline {baseline[key]:.1f} floor {floor:.1f} [{status}]"
        )
        if current[key] < floor:
            ok = False

    speedup = current.get("flow_cache_speedup")
    if speedup is None:
        fail("current run missing 'flow_cache_speedup'")
    speedup_floor = MIN_SPEEDUP
    status = "ok" if speedup >= speedup_floor else "REGRESSED"
    print(
        f"check_throughput: flow_cache_speedup: current {speedup:.2f}x "
        f"floor {speedup_floor:.2f}x [{status}]"
    )
    if speedup < speedup_floor:
        ok = False

    sb_speedup = current.get("superblock_speedup")
    if sb_speedup is None:
        fail("current run missing 'superblock_speedup'")
    status = "ok" if sb_speedup >= MIN_SB_SPEEDUP else "REGRESSED"
    print(
        f"check_throughput: superblock_speedup: current {sb_speedup:.2f}x "
        f"floor {MIN_SB_SPEEDUP:.2f}x [{status}]"
    )
    if sb_speedup < MIN_SB_SPEEDUP:
        ok = False

    detailed_sb = current.get("detailed_superblock_speedup")
    if detailed_sb is None:
        fail("current run missing 'detailed_superblock_speedup'")
    status = "ok" if detailed_sb >= MIN_DETAILED_SB_SPEEDUP else "REGRESSED"
    print(
        f"check_throughput: detailed_superblock_speedup: current "
        f"{detailed_sb:.2f}x floor {MIN_DETAILED_SB_SPEEDUP:.2f}x [{status}]"
    )
    if detailed_sb < MIN_DETAILED_SB_SPEEDUP:
        ok = False

    gated_sb = current.get("gated_superblock_speedup")
    if gated_sb is None:
        fail("current run missing 'gated_superblock_speedup'")
    status = "ok" if gated_sb >= MIN_GATED_SB_SPEEDUP else "REGRESSED"
    print(
        f"check_throughput: gated_superblock_speedup: current "
        f"{gated_sb:.2f}x floor {MIN_GATED_SB_SPEEDUP:.2f}x [{status}]"
    )
    if gated_sb < MIN_GATED_SB_SPEEDUP:
        ok = False

    coverage = current.get("superblock.detailed_uop_coverage")
    if coverage is None:
        fail("current run missing 'superblock.detailed_uop_coverage'")
    status = "ok" if coverage >= MIN_DETAILED_COVERAGE else "REGRESSED"
    print(
        f"check_throughput: superblock.detailed_uop_coverage: current "
        f"{coverage:.4f} floor {MIN_DETAILED_COVERAGE:.2f} [{status}]"
    )
    if coverage < MIN_DETAILED_COVERAGE:
        ok = False

    sb_entries = current.get("superblock.entries")
    if sb_entries is None:
        fail("current run missing 'superblock.entries'")
    status = "ok" if sb_entries > 0 else "REGRESSED"
    print(
        f"check_throughput: superblock.entries: current "
        f"{sb_entries:.0f} floor >0 [{status}]"
    )
    if sb_entries <= 0:
        ok = False
    sb_interp = current.get("superblock.interp_entries")
    if sb_interp is None:
        fail("current run missing 'superblock.interp_entries'")
    if sb_interp != 0:
        fail(
            f"tier-off run entered {sb_interp:.0f} superblocks; "
            "setSuperblockEnabled(false) is not being honored"
        )

    stealth_hit = current.get("stealth_flow_cache_hit_rate")
    if stealth_hit is None:
        fail("current run missing 'stealth_flow_cache_hit_rate'")
    status = "ok" if stealth_hit >= MIN_STEALTH_HIT_RATE else "REGRESSED"
    print(
        f"check_throughput: stealth_flow_cache_hit_rate: current "
        f"{stealth_hit:.4f} floor {MIN_STEALTH_HIT_RATE:.2f} [{status}]"
    )
    if stealth_hit < MIN_STEALTH_HIT_RATE:
        ok = False

    if not ok:
        fail(f"throughput regressed >={max_regression:.0%} vs baseline")
    print("check_throughput: OK")


if __name__ == "__main__":
    main()
