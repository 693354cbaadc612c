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

Every program run writes its trace exports into a directory of its own
(CSD_TRACE_FILE is set per run, overriding the environment's), so with
CSD_TRACE set in the environment the two builds' exports are compared
too: as a multiset of byte-identical files, the way
check_sidecar_determinism.py --env compares them (context ids, and so
file names, may differ).

Every program run also gets a heatmap directory of its own
(CSD_CHANNEL_HEATMAP_DIR), where the Figs. 7a/7b harnesses write their
per-set channel heatmaps under case-derived names: the two builds must
write the same files with byte-identical contents.

--self-check proves the comparison can fail: bench_table1_config must
compare equal against itself, different when one side runs with
CSD_STATS_DETAIL=1, and different in its trace exports when both sides
trace but one keeps a 1-event ring; bench_fig7a_primeprobe_aes must
compare equal against itself and different when one side's heatmap
export alone is altered after the run.

Exit status: 0 every output matches (self-check: every part holds),
1 some output differs, 2 usage error or a program that did not run.
"""

import argparse
import collections
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


def read_dir(path):
    """{file name: contents} of every file in @p path."""
    files = {}
    for name in os.listdir(path):
        with open(os.path.join(path, name), "rb") as f:
            files[name] = f.read()
    return files


def execute(build, prog, workdir, env_extra=None, alter=None):
    """Run one program in its own working directory; returns
    (exit status, stdout bytes, parsed JSON document or None, multiset
    of trace-export contents, {heatmap file: contents}). @p alter, if
    given, is called with the heatmap directory after the run."""
    name, rel, args, writes_json = prog
    binary = os.path.join(os.path.abspath(build), rel)
    if not os.access(binary, os.X_OK):
        raise FileNotFoundError(f"{binary}: not built")
    trace_dir = os.path.join(workdir, "traces")
    heatmap_dir = os.path.join(workdir, "heatmaps")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(heatmap_dir, exist_ok=True)
    cmd = [binary] + args
    json_path = os.path.join(workdir, name + ".json")
    if writes_json:
        cmd += ["--json", json_path]
    env = dict(os.environ)
    env.update(env_extra or {})
    env["CSD_TRACE_FILE"] = os.path.join(trace_dir, "trace_%c.json")
    env["CSD_CHANNEL_HEATMAP_DIR"] = heatmap_dir
    proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    doc = None
    if writes_json and os.path.exists(json_path):
        with open(json_path) as f:
            doc = analysis.scrub(json.load(f))
    traces = collections.Counter(read_dir(trace_dir).values())
    if alter:
        alter(heatmap_dir)
    return proc.returncode, proc.stdout, doc, traces, read_dir(heatmap_dir)


def first_difference(a, b):
    """A one-line pointer at the first differing stdout line."""
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x!r} vs {y!r}"
    return f"line count {len(la)} vs {len(lb)}"


def compare(build_a, build_b, progs, env_b=None, env_a=None, alter_b=None):
    """Run every program in both builds; returns the list of
    differences (empty = identical). @p alter_b is passed to the B
    side's execute()."""
    diffs = []
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        jobs = {}
        for prog in progs:
            for side, build, env, alter in (
                    ("a", build_a, env_a, None),
                    ("b", build_b, env_b, alter_b)):
                workdir = os.path.join(tmp, side, prog[0])
                jobs[(prog[0], side)] = pool.submit(
                    execute, build, prog, workdir, env, alter)
        for prog in progs:
            name = prog[0]
            status_a, out_a, doc_a, traces_a, heat_a = \
                jobs[(name, "a")].result()
            status_b, out_b, doc_b, traces_b, heat_b = \
                jobs[(name, "b")].result()
            found = []
            if status_a != status_b:
                found.append(f"{name}: exit status {status_a} vs {status_b}")
            if out_a != out_b:
                found.append(f"{name}: stdout differs at "
                             + first_difference(out_a, out_b))
            if doc_a != doc_b:
                found.append(f"{name}: JSON differs")
            if traces_a != traces_b:
                unmatched = sum((traces_a - traces_b).values())
                found.append(
                    f"{name}: trace exports differ ({traces_a.total()} vs "
                    f"{traces_b.total()} file(s), {unmatched} without a "
                    "byte-identical counterpart)")
            if heat_a != heat_b:
                unmatched = sorted(
                    f for f in heat_a.keys() | heat_b.keys()
                    if heat_a.get(f) != heat_b.get(f))
                found.append(
                    f"{name}: heatmap exports differ ({len(heat_a)} vs "
                    f"{len(heat_b)} file(s); {', '.join(unmatched)})")
            counts = []
            if traces_a or traces_b:
                counts.append(f"{traces_a.total()} trace export(s)")
            if heat_a or heat_b:
                counts.append(f"{len(heat_a)} heatmap export(s)")
            detail = f" ({', '.join(counts)})" if counts else ""
            print(f"{name:30s} {'DIFFERENT' if found else 'same'}{detail}",
                  flush=True)
            diffs += found
    return diffs


def alter_one_heatmap(heatmap_dir):
    """Append a byte to the first heatmap file in @p heatmap_dir, if
    there is one."""
    for name in sorted(os.listdir(heatmap_dir))[:1]:
        with open(os.path.join(heatmap_dir, name), "ab") as f:
            f.write(b"\n")


def heatmap_check(build):
    """The heatmap half of the self-check: a Fig. 7a run must match
    itself, with heatmaps written, and a difference in one heatmap file
    alone must be reported."""
    prog = [p for p in programs() if p[0] == "bench_fig7a_primeprobe_aes"]
    if compare(build, build, prog):
        print("compare_outputs: self-check FAIL: a heatmap-writing build "
              "differs from itself", file=sys.stderr)
        return False
    diffs = compare(build, build, prog, alter_b=alter_one_heatmap)
    if len(diffs) != 1 or "heatmap exports differ" not in diffs[0]:
        print("compare_outputs: self-check FAIL: an altered heatmap export "
              "on one side was not reported alone (or none was written): "
              f"{diffs}", file=sys.stderr)
        return False
    return True


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
    traced = {"CSD_TRACE": "all"}
    diffs = compare(build, build, prog, {**traced, "CSD_TRACE_CAPACITY": "1"},
                    env_a=traced)
    if not any("trace exports differ" in d for d in diffs):
        print("compare_outputs: self-check FAIL: a truncated trace export "
              "on one side went unnoticed", file=sys.stderr)
        return 1
    if not heatmap_check(build):
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
