#!/usr/bin/env python3
"""Paired A/B comparison of two builds on one benchmark workload.

    python3 scripts/ab.py PARENT_DIR CHANGE_DIR --workload W
        [--pairs N] [--seconds S] [--seed N]

PARENT_DIR and CHANGE_DIR each hold a `perfbench_driver` (a perfbench
build, e.g. CHECKOUT/.bench_build/perfbench, which `perfbench/run.py`
makes on its first run). The tool runs `perfbench_driver --workload W`
from the two directories alternately for N pairs, flipping which side
runs first from pair to pair, and reads each run's end-to-end metrics
the way perfbench/run.py does: `wall_s` (sum of per-cell minimum run
times), `setup_s` (sum of per-cell median set-up times), `peak_rss_mb`,
and `sim_digest`, the hash of the simulated output. Every run on both
sides must report the same `sim_digest`, or the tool exits 1: a
speed-up that changes what is simulated is not one.

For each metric (all lower-is-better) it prints each side's median and
quartiles, the change in the median, how many pairs the change won,
and a two-sided sign-test p-value over the non-tied pairs. The verdict
is "unresolved" whenever the parent's interquartile range is at least
the difference of the medians, whatever the win count; otherwise
"better" or "worse". A "better" metric is marked "claimable" when the
change also won at least nine tenths of the pairs (ties count for
neither side). Build both checkouts at paths of equal length:
the path length alone can move glibc's heap behaviour and with it
`setup_s` and `peak_rss_mb`.

The statistics are plain functions (quartiles, sign_test, compare),
tested on synthetic samples by scripts/test_ab.py.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
sys.dont_write_bytecode = True

import analysis  # noqa: E402  (perfbench/analysis.py)

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("crypto-detailed", "spec-devect", "attack-cacheonly")


def quartiles(samples):
    """(first quartile, median, third quartile) of @samples, by linear
    interpolation between order statistics (the inclusive method)."""
    if not samples:
        raise ValueError("no samples")
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def sign_test(wins, losses):
    """Two-sided exact sign-test p-value for @wins against @losses
    (ties already dropped): the chance of a split at least this uneven
    if either side were equally likely to win each pair."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = max(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k, n + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def compare(parent, change):
    """Compare paired lower-is-better samples (parent[i] and change[i]
    ran in the same pair). Returns a dict of the summary numbers and
    the verdict."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many samples on both sides")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if c < p)
    losses = sum(1 for p, c in zip(parent, change) if c > p)
    diff = c_med - p_med
    iqr = p_q3 - p_q1
    if iqr >= abs(diff):
        verdict = "unresolved"
    else:
        verdict = "better" if diff < 0 else "worse"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "diff": diff,
        "rel": diff / p_med if p_med else 0.0,
        "parent_iqr": iqr,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "p": sign_test(wins, losses),
        "verdict": verdict,
        "claimable": verdict == "better" and 10 * wins >= 9 * len(parent),
    }


def clean_env():
    """The environment without CSD_* knobs (as perfbench/run.py runs
    its children): any of them would change or abort what is run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CSD_")}


def run_driver(build_dir, workload, seed, seconds, work):
    """Run one driver; returns ({metric: value}, sim_digest)."""
    out = os.path.join(work, "driver.json")
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "0",
           "--out", out]
    proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit("ab: %s exited %d" % (cmd[0], proc.returncode))
    with open(out) as f:
        result = json.load(f)
    records = []
    for index in range(len(result["passes"])):
        with open("%s.pass%d" % (out, index)) as f:
            records.append(json.load(f))
    if result["failures"]:
        sys.exit("ab: %s reported failures: %s" %
                 (cmd[0], "; ".join(result["failures"])))
    digests = {analysis.digest(((r["cell"] + "/" + r["run"], r["stats"])
                                for r in recs)) for recs in records}
    if len(digests) != 1:
        sys.exit("ab: %s: simulated output differs between passes" % cmd[0])
    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]] or passes
    metrics = {
        "wall_s": analysis.sum_of_minimums([p["run_s"] for p in untraced]),
        "setup_s": analysis.sum_of_medians([p["setup_s"] for p in passes]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    return metrics, digests.pop()


def report(metric, summary):
    p_q1, p_med, p_q3 = summary["parent"]
    c_q1, c_med, c_q3 = summary["change"]
    return ("%-12s parent %.4g [%.4g-%.4g]  change %.4g [%.4g-%.4g]  "
            "%+.1f%%  wins %d/%d  p=%.3g  %s%s" % (
                metric, p_med, p_q1, p_q3, c_med, c_q1, c_q3,
                100.0 * summary["rel"], summary["wins"], summary["pairs"],
                summary["p"], summary["verdict"],
                ", claimable" if summary["claimable"] else ""))


def main():
    ap = argparse.ArgumentParser(
        description="Paired A/B of two perfbench_driver builds.")
    ap.add_argument("parent", help="directory holding the parent's driver")
    ap.add_argument("change", help="directory holding the change's driver")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs and --seconds must be positive")

    samples = {"parent": {m: [] for m in METRICS},
               "change": {m: [] for m in METRICS}}
    digests = set()
    with tempfile.TemporaryDirectory(prefix="ab_") as work:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                build_dir = args.parent if side == "parent" else args.change
                metrics, digest = run_driver(build_dir, args.workload,
                                             args.seed, args.seconds, work)
                digests.add(digest)
                for m in METRICS:
                    samples[side][m].append(metrics[m])
            print("ab: pair %d/%d: wall_s parent %.4g change %.4g" % (
                pair + 1, args.pairs, samples["parent"]["wall_s"][-1],
                samples["change"]["wall_s"][-1]), flush=True)
            if len(digests) != 1:
                sys.exit("ab: the two builds simulate different outputs "
                         "(sim_digest %s)" % ", ".join(sorted(digests)))

    print("ab: %s, %d pairs, sim_digest %s" % (args.workload, args.pairs,
                                               digests.pop()))
    for m in METRICS:
        print("ab: " + report(m, compare(samples["parent"][m],
                                         samples["change"][m])))


if __name__ == "__main__":
    main()
