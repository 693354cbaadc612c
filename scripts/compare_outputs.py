#!/usr/bin/env python3
"""Compare the simulated outputs of two builds of the repository.

    python3 scripts/compare_outputs.py BUILD_A BUILD_B
    python3 scripts/compare_outputs.py --self-check BUILD

Runs, in each build directory: the 15 paper harnesses with
`--jobs 1 --json`, `csd-lint all --channels --tiers --mcu --json`, and
every example. Standard output and exit status must match byte for
byte. The JSON documents must match once the host-only manifest
members are dropped (the key list of perfbench/analysis.py, the same
one the benchmark drops before it hashes outputs).

--self-check proves the comparison can fail: bench_table1_config must
compare equal against itself, and different when one side runs with
CSD_STATS_DETAIL=1.

Exit status: 0 every output matches (self-check: both halves hold),
1 some output differs, 2 usage error or a program that did not run.
"""

import argparse
import concurrent.futures
import glob
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/

WORKERS = 2  # programs run at once

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import analysis  # noqa: E402
import run  # noqa: E402  (HARNESSES: the paper suite)


def programs():
    """(name, path relative to a build dir, args, writes JSON) tuples."""
    progs = [(h, os.path.join("bench", h), ["--jobs", "1"], True)
             for h in run.HARNESSES]
    progs.append(("csd-lint", os.path.join("src", "verify", "csd-lint"),
                  ["all", "--channels", "--tiers", "--mcu"], True))
    for src in sorted(glob.glob(os.path.join(ROOT, "examples", "*.cpp"))):
        name = os.path.splitext(os.path.basename(src))[0]
        progs.append((name, os.path.join("examples", name), [], False))
    return progs


def execute(build, prog, workdir, env_extra=None):
    """Run one program in its own working directory; returns
    (exit status, stdout bytes, parsed JSON document or None)."""
    name, rel, args, writes_json = prog
    binary = os.path.join(os.path.abspath(build), rel)
    if not os.access(binary, os.X_OK):
        raise FileNotFoundError(f"{binary}: not built")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary] + args
    json_path = os.path.join(workdir, name + ".json")
    if writes_json:
        cmd += ["--json", json_path]
    env = dict(os.environ)
    env.update(env_extra or {})
    proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    doc = None
    if writes_json and os.path.exists(json_path):
        with open(json_path) as f:
            doc = analysis.scrub(json.load(f))
    return proc.returncode, proc.stdout, doc


def first_difference(a, b):
    """A one-line pointer at the first differing stdout line."""
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x!r} vs {y!r}"
    return f"line count {len(la)} vs {len(lb)}"


def compare(build_a, build_b, progs, env_b=None):
    """Run every program in both builds; returns the list of
    differences (empty = identical)."""
    diffs = []
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        jobs = {}
        for prog in progs:
            for side, build, env in (("a", build_a, None),
                                     ("b", build_b, env_b)):
                workdir = os.path.join(tmp, side, prog[0])
                jobs[(prog[0], side)] = pool.submit(
                    execute, build, prog, workdir, env)
        for prog in progs:
            name = prog[0]
            status_a, out_a, doc_a = jobs[(name, "a")].result()
            status_b, out_b, doc_b = jobs[(name, "b")].result()
            found = []
            if status_a != status_b:
                found.append(f"{name}: exit status {status_a} vs {status_b}")
            if out_a != out_b:
                found.append(f"{name}: stdout differs at "
                             + first_difference(out_a, out_b))
            if doc_a != doc_b:
                found.append(f"{name}: JSON differs")
            print(f"{name:30s} {'DIFFERENT' if found else 'same'}",
                  flush=True)
            diffs += found
    return diffs


def self_check(build):
    """The comparison must pass on identical runs and fail on a real
    difference."""
    prog = [p for p in programs() if p[0] == "bench_table1_config"]
    if compare(build, build, prog):
        print("compare_outputs: self-check FAIL: a build differs from "
              "itself", file=sys.stderr)
        return 1
    if not compare(build, build, prog, {"CSD_STATS_DETAIL": "1"}):
        print("compare_outputs: self-check FAIL: CSD_STATS_DETAIL=1 on "
              "one side went unnoticed", file=sys.stderr)
        return 1
    print("compare_outputs: self-check ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("builds", nargs="*", metavar="BUILD")
    parser.add_argument("--self-check", metavar="BUILD",
                        help="prove the comparison detects a difference")
    args = parser.parse_args()

    try:
        if args.self_check:
            return self_check(args.self_check)
        if len(args.builds) != 2:
            parser.error("expected BUILD_A BUILD_B")
        progs = programs()
        diffs = compare(args.builds[0], args.builds[1], progs)
    except FileNotFoundError as err:
        print(f"compare_outputs: {err}", file=sys.stderr)
        return 2

    for d in diffs:
        print("DIFF " + d)
    print(f"compare_outputs: {len(progs)} program(s), "
          f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
