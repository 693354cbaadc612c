#!/usr/bin/env python3
"""Compare the simulated outputs of two runs: of two builds, or of one
bench binary under two settings.

    python3 scripts/compare_outputs.py BUILD_A BUILD_B
    python3 scripts/compare_outputs.py BENCH [--jobs N] [--env NAME=V1,V2]
    python3 scripts/compare_outputs.py --self-check BUILD

Given two build directories, it runs in each: the 15 paper harnesses
with `--jobs 1 --json`, `csd-lint all --channels --tiers --mcu
--json`, and every example. Standard output and exit status must match
byte for byte. The JSON documents must match once the host-only
manifest members are dropped (the key list of perfbench/analysis.py,
the same one the benchmark drops before it hashes outputs).

Given one bench binary (the determinism modes), it runs that binary
twice with CSD_TRACE=all: at --jobs 1 and --jobs N (default 8), or,
with --env, at --jobs N under NAME=V1 and under NAME=V2. This is how CI
pins parallelism and host-side switches to the simulated output, e.g.
`--env CSD_SUPERBLOCK=0,1`. Both runs must exit 0. Their sidecars must
match once manifest.phases, the host wall-time attribution and the
only legitimately nondeterministic content, is emptied, and their
stdout must match once the per-context "trace: wrote" notes are
dropped. Trace exports are compared in the --env mode only, since
under --jobs N which context records which case depends on scheduling.

Every run, in every mode, gets a directory of its own for its trace
exports (CSD_TRACE_FILE, overriding the environment's) and one for its
heatmap exports (CSD_CHANNEL_HEATMAP_DIR, where the Figs. 7a/7b
harnesses write their per-set channel heatmaps under case-derived
names). differences() then compares two runs the same way in every
mode: exit status, stdout, the normalized JSON, the trace exports as a
multiset of byte-identical files (context ids, and so file names, may
differ), and the heatmap files name by name.

--self-check proves the comparison can fail: bench_table1_config must
compare equal against itself, different when one side runs with
CSD_STATS_DETAIL=1, and different in its trace exports when both sides
trace but one keeps a 1-event ring; bench_fig7a_primeprobe_aes must
compare equal against itself and different when one side's heatmap
export alone is altered after the run; and each determinism mode must
report a sidecar and a heatmap export altered on one side.

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

SIDECAR = "sidecar.json"  # a run's JSON output, in its working directory

# What one program run left behind: exit status, stdout bytes, the
# JSON document's bytes (None if none was written), the trace exports
# as a multiset of contents, and {heatmap file name: contents}.
Run = collections.namedtuple("Run", "status stdout sidecar traces heatmaps")


class Failure(Exception):
    """A bench run that could not be compared."""


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


def execute(cmd, workdir, env_extra=None, merge_stderr=False, alter=None):
    """Run @p cmd in @p workdir with private trace and heatmap
    directories; returns its Run. The JSON document is read from
    SIDECAR in @p workdir. Stderr is dropped unless @p merge_stderr.
    @p alter, if given, is called with @p workdir after the run, before
    its outputs are read."""
    trace_dir = os.path.join(workdir, "traces")
    heatmap_dir = os.path.join(workdir, "heatmaps")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(heatmap_dir, exist_ok=True)
    env = dict(os.environ)
    env.update(env_extra or {})
    env["CSD_TRACE_FILE"] = os.path.join(trace_dir, "trace_%c.json")
    env["CSD_CHANNEL_HEATMAP_DIR"] = heatmap_dir
    proc = subprocess.run(
        cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if merge_stderr else subprocess.DEVNULL,
        check=False, timeout=600)
    if alter:
        alter(workdir)
    sidecar = None
    sidecar_path = os.path.join(workdir, SIDECAR)
    if os.path.exists(sidecar_path):
        with open(sidecar_path, "rb") as f:
            sidecar = f.read()
    return Run(proc.returncode, proc.stdout, sidecar,
               collections.Counter(read_dir(trace_dir).values()),
               read_dir(heatmap_dir))


def first_difference(a, b):
    """A one-line pointer at the first differing line."""
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x!r} vs {y!r}"
    return f"line count {len(la)} vs {len(lb)}"


def differences(name, a, b, canonical, traces=True):
    """What differs between Runs @p a and @p b of @p name, one line
    each (empty = identical). @p canonical maps a sidecar's bytes to the
    text compared; @p traces=False leaves the trace exports out."""
    found = []
    if a.status != b.status:
        found.append(f"{name}: exit status {a.status} vs {b.status}")
    if a.stdout != b.stdout:
        found.append(f"{name}: stdout differs at "
                     + first_difference(a.stdout, b.stdout))
    json_a, json_b = canonical(a.sidecar), canonical(b.sidecar)
    if json_a != json_b:
        found.append(f"{name}: JSON differs at "
                     + first_difference(json_a or "", json_b or ""))
    if traces and a.traces != b.traces:
        unmatched = sum((a.traces - b.traces).values())
        found.append(
            f"{name}: trace exports differ ({a.traces.total()} vs "
            f"{b.traces.total()} file(s), {unmatched} without a "
            "byte-identical counterpart)")
    if a.heatmaps != b.heatmaps:
        unmatched = sorted(f for f in a.heatmaps.keys() | b.heatmaps.keys()
                           if a.heatmaps.get(f) != b.heatmaps.get(f))
        found.append(
            f"{name}: heatmap exports differ ({len(a.heatmaps)} vs "
            f"{len(b.heatmaps)} file(s); {', '.join(unmatched)})")
    return found


# --- cross-build mode -------------------------------------------------------

def scrubbed(sidecar):
    """A cross-build sidecar without its host-only manifest members."""
    if sidecar is None:
        return None
    return json.dumps(analysis.scrub(json.loads(sidecar)), indent=1,
                      sort_keys=True)


def compare(build_a, build_b, progs, env_b=None, env_a=None, alter_b=None):
    """Run every program in both builds; returns the list of
    differences (empty = identical). @p alter_b is passed to the B
    side's execute()."""
    diffs = []
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        jobs = {}
        for name, rel, args, writes_json in progs:
            for side, build, env, alter in (
                    ("a", build_a, env_a, None),
                    ("b", build_b, env_b, alter_b)):
                binary = os.path.join(os.path.abspath(build), rel)
                if not os.access(binary, os.X_OK):
                    raise FileNotFoundError(f"{binary}: not built")
                cmd = [binary] + args + (["--json", SIDECAR]
                                         if writes_json else [])
                jobs[(name, side)] = pool.submit(
                    execute, cmd, os.path.join(tmp, side, name), env,
                    alter=alter)
        for prog in progs:
            name = prog[0]
            a, b = jobs[(name, "a")].result(), jobs[(name, "b")].result()
            found = differences(name, a, b, scrubbed)
            counts = []
            if a.traces or b.traces:
                counts.append(f"{a.traces.total()} trace export(s)")
            if a.heatmaps or b.heatmaps:
                counts.append(f"{len(a.heatmaps)} heatmap export(s)")
            detail = f" ({', '.join(counts)})" if counts else ""
            print(f"{name:30s} {'DIFFERENT' if found else 'same'}{detail}",
                  flush=True)
            diffs += found
    return diffs


# --- determinism modes ------------------------------------------------------

def phases_emptied(sidecar):
    """A sidecar re-serialized with manifest.phases emptied: the host
    wall-time attribution, the only legitimately nondeterministic
    content. Raises Failure on a missing or malformed sidecar."""
    try:
        doc = json.loads(sidecar)
    except (TypeError, json.JSONDecodeError) as e:
        raise Failure(f"sidecar is missing or not valid JSON: {e}")
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict) or "phases" not in manifest:
        raise Failure("sidecar missing manifest.phases")
    manifest["phases"] = {}
    return json.dumps(doc, indent=1)


def without_trace_notes(stdout):
    """@p stdout without its per-context trace-export notes ("info:
    trace: wrote N events to traces/trace_3.json"), which depend on how
    work lands on worker contexts."""
    return b"\n".join(ln for ln in stdout.splitlines()
                      if b"trace: wrote" not in ln)


def determinism(bench, jobs=8, env=None, alter_b=None):
    """Run @p bench twice under CSD_TRACE=all: at --jobs 1 and --jobs
    @p jobs, or, with @p env = (NAME, V1, V2), at --jobs @p jobs under
    NAME=V1 and NAME=V2. Trace exports are compared only in the latter
    mode. Returns (differences, summary line). Raises Failure if a run
    fails or writes no usable sidecar."""
    if env is None:
        sides = [("--jobs 1", 1, {}), (f"--jobs {jobs}", jobs, {})]
    else:
        name, v1, v2 = env
        sides = [(f"{name}={v1}", jobs, {name: v1}),
                 (f"{name}={v2}", jobs, {name: v2})]
    runs = []
    with tempfile.TemporaryDirectory(prefix="sidecar_det_") as tmp:
        for side, (label, n, override) in zip("ab", sides):
            cmd = [os.path.abspath(bench), "--json", SIDECAR, "--jobs",
                   str(n)]
            result = execute(cmd, os.path.join(tmp, side),
                             {"CSD_TRACE": "all", **override},
                             merge_stderr=True,
                             alter=alter_b if side == "b" else None)
            if result.status != 0:
                raise Failure(f"{bench} under {label} exited "
                              f"{result.status}:\n"
                              + result.stdout.decode(errors="replace"))
            try:
                phases_emptied(result.sidecar)
            except Failure as e:
                raise Failure(f"{bench} under {label}: {e}")
            runs.append(
                result._replace(stdout=without_trace_notes(result.stdout)))
    a, b = runs
    title = f"{os.path.basename(bench)} {sides[0][0]} vs {sides[1][0]}"
    found = differences(title, a, b, phases_emptied, traces=env is not None)
    if found:
        return found, f"{title}: {len(found)} difference(s)"
    summary = (f"{title}: sidecars identical after normalizing "
               f"manifest.phases, {len(a.heatmaps)} heatmap file(s) "
               "byte-identical")
    if env is not None:
        summary += f", {a.traces.total()} trace export(s) byte-identical"
    return found, summary


# --- self-check -------------------------------------------------------------

def alter_one_heatmap(workdir):
    """Append a byte to the first heatmap file of the run in @p workdir,
    if there is one."""
    heatmap_dir = os.path.join(workdir, "heatmaps")
    for name in sorted(os.listdir(heatmap_dir))[:1]:
        with open(os.path.join(heatmap_dir, name), "ab") as f:
            f.write(b"\n")


def alter_sidecar_and_heatmap(workdir):
    """Add a stat to the sidecar of the run in @p workdir and alter one
    of its heatmap files."""
    path = os.path.join(workdir, SIDECAR)
    with open(path) as f:
        doc = json.load(f)
    doc["stats"]["self_check.seeded"] = 1
    with open(path, "w") as f:
        json.dump(doc, f)
    alter_one_heatmap(workdir)


def heatmap_check(build):
    """The heatmap half of the cross-build self-check: a Fig. 7a run
    must match itself, with heatmaps written, and a difference in one
    heatmap file alone must be reported."""
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


def determinism_check(build):
    """The determinism half of the self-check: in each mode, a sidecar
    and a heatmap export altered on one side are both reported, and
    nothing else is. (The *_sidecar_determinism and *_invariance ctests
    prove that unaltered runs compare equal.)"""
    bench = os.path.join(build, "bench", "bench_fig7a_primeprobe_aes")
    for env in (None, ("CSD_SUPERBLOCK", "0", "1")):
        diffs, _ = determinism(bench, jobs=2, env=env,
                               alter_b=alter_sidecar_and_heatmap)
        if len(diffs) != 2 or "JSON differs" not in diffs[0] or \
                "heatmap exports differ" not in diffs[1]:
            mode = "--jobs" if env is None else "--env"
            print(f"compare_outputs: self-check FAIL: the {mode} "
                  "determinism mode did not report exactly the altered "
                  f"sidecar and heatmap export: {diffs}", file=sys.stderr)
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
    if not heatmap_check(build) or not determinism_check(build):
        return 1
    print("compare_outputs: self-check ok")
    return 0


def env_spec(spec):
    """Split 'NAME=V1,V2' into (NAME, V1, V2)."""
    name, _, values = spec.partition("=")
    parts = values.split(",")
    if not name or len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected NAME=V1,V2, got '{spec}'")
    return name, parts[0], parts[1]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("targets", nargs="*", metavar="BUILD_OR_BENCH",
                        help="two build directories, or one bench binary")
    parser.add_argument("--self-check", metavar="BUILD",
                        help="prove the comparison detects a difference")
    parser.add_argument("--jobs", type=int, default=8,
                        help="bench binary: compare --jobs 1 with --jobs "
                             "N, or run both --env sides at N (default 8)")
    parser.add_argument("--env", type=env_spec, metavar="NAME=V1,V2",
                        help="bench binary: compare NAME=V1 with NAME=V2")
    args = parser.parse_args()

    try:
        if args.self_check:
            return self_check(args.self_check)
        if len(args.targets) == 1:
            diffs, summary = determinism(args.targets[0], args.jobs,
                                         args.env)
        elif len(args.targets) == 2:
            progs = programs()
            diffs = compare(args.targets[0], args.targets[1], progs)
            summary = (f"{len(progs)} program(s), {len(diffs)} "
                       "difference(s)")
        else:
            parser.error("expected BUILD_A BUILD_B or one bench binary")
    except (FileNotFoundError, Failure) as err:
        print(f"compare_outputs: {err}", file=sys.stderr)
        return 2

    for d in diffs:
        print("DIFF " + d)
    print(f"compare_outputs: {summary}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
