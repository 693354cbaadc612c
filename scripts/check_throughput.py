#!/usr/bin/env python3
"""Compare a bench_sim_throughput sidecar against a committed baseline.

Usage: check_throughput.py [--max-regression FRAC] <current.json> <baseline.json>

Both files are JSON sidecars produced by `bench_sim_throughput --json`.
For every throughput stat (kuops/s keys) present in the baseline, the
current value must not fall below (1 - FRAC) * baseline (default FRAC
0.20, i.e. a >20% regression fails).

The flow cache and the chains the retire routine runs over its
resident entries (sim/fastpath.hh) are guarded by in-process ratios,
not absolute floors: `flow_cache_speedup` (detailed AES, flow cache on
/ off), `cacheonly_flow_cache_speedup` (cache-only AES) and
`gated_flow_cache_speedup` (detailed SPEC milc under the CSD-devect
power-gating policy), each measured inside one bench process with the
two configurations in alternating batches, must stay at or above
MIN_DETAILED_SPEEDUP, MIN_CACHEONLY_SPEEDUP and MIN_GATED_SPEEDUP. The
ratios are robust to the run-to-run host noise that makes absolute
kuops/s floors loose. The floors sit between the ratios of a build that
retires one macro per call (the flow cache on, nothing chained) and
those of the chained build, so losing the chain fails them. The sidecar
must also show the chain actually engaged (`chain.entries` > 0, and
`chain.detailed_uop_coverage` at least MIN_DETAILED_COVERAGE), and the
flow-cache-off runs must not have chained (`chain.cache_off_entries`).

The armed channel monitor, measured beside the disarmed cache-only run
in the same alternating batches, may cost at most
MAX_MONITOR_OVERHEAD_PCT of its throughput
(`channel_monitor_overhead_pct`).

The stealth row (cache-only AES under CSD stealth mode with a watchdog
that retriggers several times per block) must keep its flow-cache hit
rate at or above MIN_STEALTH_HIT_RATE: a retrigger only refills the
decoy queue, so memoized flows must survive it. The ratio is a pure
function of the simulated run, so host noise cannot flake it.

`memory.cache_storage_kib`, the host memory the milc rig's L1I, L1D, L2
and LLC store their ways in after its timed runs, must stay at or below
MAX_CACHE_STORAGE_KIB: a cache stores only as many ways per set as the
run has filled (memory/cache.hh). It is deterministic too, and unlike
peak RSS it does not depend on the C library's heap behaviour.

Host machines differ, so the committed baseline is a floor for CI's
runner class, not a universal truth; refresh it with
`bench_sim_throughput --json bench/baseline_throughput.json` on the CI
runner when the simulator legitimately changes speed.

Exit code 0 on success; nonzero with a diagnostic otherwise.
"""

import json
import sys

THROUGHPUT_KEYS = (
    "detailed_kuops_per_s_cache_on",
    "detailed_kuops_per_s_cache_off",
    "cacheonly_kuops_per_s",
)
# Floors for the in-process flow cache on / off ratios, set between the
# two builds' ranges over ten alternating runs each on a 4-thread VM
# (CHANGES.md): chained detailed AES 2.27-2.41, cache-only AES
# 4.17-4.79, milc under CSD-devect gating 1.88-2.00; a build that
# retires one macro per call (the flow cache on, nothing chained)
# 1.70-1.97, 2.32-2.67 and 1.48-1.70.
MIN_DETAILED_SPEEDUP = 2.1
MIN_CACHEONLY_SPEEDUP = 3.4
MIN_GATED_SPEEDUP = 1.8
# Floor for chain.detailed_uop_coverage (deterministic up to where the
# timed loop stops): straight-line AES must run on the chain (1.00 in
# every run; 0 without chaining).
MIN_DETAILED_COVERAGE = 0.9
# Ceiling for channel_monitor_overhead_pct (armed vs disarmed
# cache-only, alternating batches): 5.2-22.6% over the same ten runs.
MAX_MONITOR_OVERHEAD_PCT = 30.0
# Floor for stealth_flow_cache_hit_rate (deterministic).
MIN_STEALTH_HIT_RATE = 0.95
# Ceiling for memory.cache_storage_kib (deterministic): 164.5 KiB with
# ways stored as sets fill; 1,064 KiB (1,024 LLC + 32 L2 + 4 + 4) when
# every cache stores its full associativity.
MAX_CACHE_STORAGE_KIB = 256.0


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


def require(stats, key):
    if key not in stats:
        fail(f"current run missing '{key}'")
    return stats[key]


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

    def gate(key, value, bound, at_least, unit=""):
        """Print one gate's verdict; returns whether it holds."""
        holds = value >= bound if at_least else value <= bound
        word = "floor" if at_least else "ceiling"
        print(
            f"check_throughput: {key}: current {value:.4g}{unit} "
            f"{word} {bound:.4g}{unit} [{'ok' if holds else 'REGRESSED'}]"
        )
        return holds

    for key in THROUGHPUT_KEYS:
        if key not in baseline:
            fail(f"baseline missing '{key}'")
        floor = baseline[key] * (1.0 - max_regression)
        ok &= gate(key, require(current, key), floor, True)

    for key, floor in (
        ("flow_cache_speedup", MIN_DETAILED_SPEEDUP),
        ("cacheonly_flow_cache_speedup", MIN_CACHEONLY_SPEEDUP),
        ("gated_flow_cache_speedup", MIN_GATED_SPEEDUP),
    ):
        ok &= gate(key, require(current, key), floor, True, "x")
    ok &= gate("chain.detailed_uop_coverage",
               require(current, "chain.detailed_uop_coverage"),
               MIN_DETAILED_COVERAGE, True)
    ok &= gate("chain.entries", require(current, "chain.entries"), 1, True)
    ok &= gate("channel_monitor_overhead_pct",
               require(current, "channel_monitor_overhead_pct"),
               MAX_MONITOR_OVERHEAD_PCT, False, "%")
    ok &= gate("stealth_flow_cache_hit_rate",
               require(current, "stealth_flow_cache_hit_rate"),
               MIN_STEALTH_HIT_RATE, True)
    ok &= gate("memory.cache_storage_kib",
               require(current, "memory.cache_storage_kib"),
               MAX_CACHE_STORAGE_KIB, False, " KiB")
    if require(current, "chain.cache_off_entries") != 0:
        fail("a flow-cache-off run chained; setFlowCacheEnabled(false) "
             "is not being honored")

    if not ok:
        fail("throughput regressed against the baseline or a gate")
    print("check_throughput: OK")


if __name__ == "__main__":
    main()
