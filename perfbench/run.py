#!/usr/bin/env python3
"""The repository benchmark: host speed of the simulator's three
simulation regimes plus the wall time of the whole paper suite.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (README.md in this directory gives the reasons and the layer
map):
  crypto-detailed   Fig. 8 grid, detailed mode, stealth on/off
  spec-devect       Figs. 12-16 grid, detailed mode, VPU power gating
  attack-cacheonly  Figs. 7a/7b attacks, cache-only victims
  paper-suite       every figure/table/ablation harness, serially
  all               the four above, one after another

The first run in a checkout configures and builds the simulator from
source into .bench_build/perfbench. Each run then measures for about
--seconds, checks every output, and prints a summary followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import analysis  # noqa: E402  (after the bytecode switch)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("crypto-detailed", "spec-devect", "attack-cacheonly",
             "paper-suite")

HARNESSES = (
    "bench_table1_config",
    "bench_fig7a_primeprobe_aes",
    "bench_fig7b_flushreload_rsa",
    "bench_fig8_stealth_overhead",
    "bench_fig9_uop_expansion",
    "bench_fig10_mpki",
    "bench_fig11_watchdog_sweep",
    "bench_uopcache_hitrate",
    "bench_fig12_energy_breakdown",
    "bench_fig13_devect_exec_time",
    "bench_fig14_dynamic_uops",
    "bench_fig15_gated_time",
    "bench_fig16_sse_breakdown",
    "bench_ablation_decoy_style",
    "bench_ablation_timing_noise",
)

CPI_BUCKETS = (
    "base", "frontend_l1i", "frontend_decode", "backend_rob", "backend_dep",
    "backend_port", "backend_commit", "mem_l1d", "mem_l2", "mem_llc",
    "mem_dram", "csd_decoy", "csd_devect", "vpu_wake",
)
SB_EXITS = ("end", "branch", "epoch_bump", "unstable", "budget")
POLICIES = ("always_on", "conv_pg", "csd_devect")



class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --- environment and build ---------------------------------------------------

def clean_env():
    """The caller's environment minus every CSD_* knob: CSD_TRACE turns
    the superblock tier off, CSD_CPI_STACK=false enables the CPI stack,
    CSD_BENCH_JOBS parallelises the harnesses."""
    cleared = sorted(k for k in os.environ if k.startswith("CSD_"))
    if cleared:
        log("cleared " + ", ".join(cleared))
    return {k: v for k, v in os.environ.items() if not k.startswith("CSD_")}


def build(env):
    """Configure (once) and build the driver and harnesses from source."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources at " +
                         os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_all"])
    for cmd in steps:
        with open(logfile, "a") as out:
            status, _ = run_child(cmd, env, stdout=out,
                                  stderr=subprocess.STDOUT)
        if status != 0:
            with open(logfile, errors="replace") as f:
                tail = f.read()[-3000:]
            raise BenchError("build failed:\n" + tail)


def check_build(build_type, flags, sanitizer="none"):
    """Refuse numbers from a Debug, unoptimised or sanitizer build."""
    if build_type in ("", "Debug") or sanitizer != "none" or \
            "-fsanitize" in flags:
        raise BenchError(
            "refusing to report from build type '%s', sanitizer '%s', "
            "flags '%s'" % (build_type, sanitizer, flags))


def run_child(cmd, env, stdout=subprocess.PIPE, stderr=None):
    """Run a process to completion; returns (exit status, piped stdout).
    An interrupted run terminates the process and waits for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr,
                            text=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.terminate()
        proc.wait()
        raise
    return proc.returncode, out


def launch_harness(cmd, env):
    """Run a harness through perfbench_launch; returns (exit status, wall
    seconds, peak RSS MB) of the harness process alone."""
    status, out = run_child(
        [os.path.join(BUILD, "perfbench_launch")] + cmd, env)
    if status != 0:
        raise BenchError("perfbench_launch failed on " + cmd[0])
    code, seconds, rss_kb = out.split()
    return int(code), float(seconds), int(rss_kb) / 1024.0


# --- in-process workloads -----------------------------------------------------

def run_in_process(workload, seed, seconds, trace, env, work):
    out = os.path.join(work, "driver.json")
    cmd = [os.path.join(BUILD, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", "1" if trace else "0", "--out", out]
    status, _ = run_child(cmd, env)
    if status != 0:
        raise BenchError("driver exited with status %d" % status)
    try:
        with open(out) as f:
            result = json.load(f)
        records = []
        for index in range(len(result["passes"])):
            with open("%s.pass%d" % (out, index)) as f:
                records.append(json.load(f))
    except (OSError, ValueError) as e:
        raise BenchError("unreadable driver output: %s" % e)
    if result["peak_rss_kb"] <= 0:
        raise BenchError("driver could not read its peak RSS")
    rss_mb = result["peak_rss_kb"] / 1024.0
    b = result["build"]
    check_build(b["build_type"], b["build_flags"], b["sanitizer"])

    passes = result["passes"]
    digests = [analysis.digest(((r["cell"] + "/" + r["run"], r["stats"])
                                for r in recs)) for recs in records]
    failures = list(result["failures"])
    if len(set(digests)) != 1:
        failures.append("simulated output differs between passes: " +
                        ", ".join(digests))

    untraced = [p for p in passes if not p["traced"]] or passes
    wall_s = analysis.sum_of_minimums([p["run_s"] for p in untraced])
    setup_s = analysis.sum_of_medians([p["setup_s"] for p in passes])
    uops = sum(r["counts"]["uops_simulated"] for r in records[0])
    attempted = sum(len(p["failed"]) for p in passes)
    failed = sum(sum(p["failed"]) for p in passes)
    if failed == 0 and failures:
        failed = attempted  # a digest mismatch taints every cell
    summary = {
        "build": "%s, %s, sanitizer %s" % (b["build_type"], b["compiler"],
                                           b["sanitizer"]),
        "passes": len(passes),
        "cells": len(result["cells"]),
        "sim_digest": digests[0],
        "failures": failures,
        "end_to_end": {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "sim_muops_per_s": (analysis.ratio(uops, wall_s) / 1e6,
                                "Muops/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
    }
    layers = None
    if trace:
        layers = in_process_layers(result, records[0], uops, wall_s)
    return attempted, failed, summary, layers


def in_process_layers(result, records, uops, wall_s):
    """Per-layer metrics from the traced passes' spans and the first
    pass's per-run counts and stats dumps."""
    passes = result["passes"]
    ncells = len(result["cells"])
    spans = result["spans"]
    by_pass = {}
    for span, own in zip(spans, analysis.self_times(spans)):
        totals = by_pass.setdefault(span[4] // ncells, {})  # cell id -> pass
        totals[span[0]] = totals.get(span[0], 0.0) + own

    def span_s(name):
        """Fastest traced pass's self time, like wall_s's estimator."""
        return min(t.get(name, 0.0) for t in by_pass.values())

    traced = [p["run_s"] for p in passes if p["traced"]]
    traced_wall = analysis.sum_of_minimums(traced)
    run_share = analysis.ratio(
        sum(t.get("sim.run", 0.0) for t in by_pass.values()),
        sum(map(sum, traced)))

    counts = {}
    stats = {}
    policy = {p: {} for p in POLICIES}
    sec = {}
    for r in records:
        flat = analysis.flatten_stats(r["stats"])
        for key, value in r["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
        for key, value in flat.items():
            if isinstance(value, (int, float)):
                stats[key] = stats.get(key, 0.0) + value
        if r["run"] in policy:
            agg = policy[r["run"]]
            for key in ("power.gated_cycles", "power.total_cycles",
                        "power.gate_events", "power.energy_nj"):
                agg[key] = agg.get(key, 0.0) + r["counts"].get(key, 0.0)
            agg["wake"] = agg.get("wake", 0.0) + flat["vpu_wake_stalls"]
        if r["run"] in ("undefended", "defended"):
            kind = r["cell"].split(".")[0]
            c = r["counts"]
            sec["%s_mi_bits_%s" % (kind, r["run"])] = c["sec.mi_bits_per_obs"]
            if kind == "aes":
                sec["aes_key_bits_" + r["run"]] = c["sec.key_bits_recovered"]
            else:
                sec["rsa_accuracy_" + r["run"]] = c["sec.rsa_accuracy"]

    def count(key):
        return counts.get(key, 0.0)

    def stat(key):
        return stats.get(key, 0.0)

    instructions = count("instructions")
    cpi_instructions = sum(r["counts"]["instructions"] for r in records
                           if "cpi.base" in r["counts"])
    lookups = count("flow_cache.hits") + count("flow_cache.misses") + \
        count("flow_cache.invalidations")
    attack = [r for r in records if r["run"] in ("undefended", "defended")]
    m = {
        "workloads.build_s": (span_s("workloads.build"), "s"),
        "verify.prove_s": (span_s("verify.prove"), "s"),
        "sim.construct_s": (span_s("sim.construct"), "s"),
        "sim.run_s": (span_s("sim.run"), "s"),
        "sim.run_share": (run_share, "ratio"),
        "sim.calls": (count("calls"), "count"),
        "sim.instructions": (instructions, "count"),
        "sim.uops": (uops, "count"),
        "sim.muops_per_s": (analysis.ratio(uops, wall_s) / 1e6, "Muops/s"),
        "sim.sb_uop_coverage": (analysis.ratio(count("sb.uops_retired"),
                                               uops), "ratio"),
        "sim.sb_built": (count("sb.built"), "count"),
        "sim.sb_entries": (count("sb.entries"), "count"),
        "sim.sb_invalidated": (count("sb.invalidated"), "count"),
        "decode.flow_cache_hit_rate": (
            analysis.ratio(count("flow_cache.hits"), lookups), "ratio"),
        "decode.flow_cache_invalidations": (
            count("flow_cache.invalidations"), "count"),
        "decode.flow_cache_bypasses": (count("flow_cache.bypasses"),
                                       "count"),
        "decode.uop_cache_hit_rate": (
            analysis.ratio(stat("frontend.uop_cache.hits"),
                           stat("frontend.uop_cache.lookups")), "ratio"),
        "decode.slots_uop_cache": (stat("frontend.slots_uop_cache"),
                                   "count"),
        "decode.slots_legacy": (stat("frontend.slots_legacy"), "count"),
        "decode.slots_lsd": (stat("frontend.slots_lsd"), "count"),
        "decode.slots_msrom": (stat("frontend.slots_msrom"), "count"),
        "decode.source_switches": (stat("frontend.source_switches"),
                                   "count"),
        "decode.fetch_stall_cycles": (stat("frontend.fetch_stall_cycles"),
                                      "cycles"),
        "decode.decode_bw_cycles": (stat("frontend.decode_bw_cycles"),
                                    "cycles"),
        "cpu.ipc": (analysis.ratio(cpi_instructions, sum(
            r["counts"]["cycles"] for r in records
            if "cpi.base" in r["counts"])), "ratio"),
        "cpu.uops_executed": (stat("backend.uops_executed"), "count"),
        "cpu.branch_mispredicts": (stat("bpred.mispredicts"), "count"),
        "memory.l1i_misses": (stat("mem.l1i.misses"), "count"),
        "memory.l1d_mpki": (1000 * analysis.ratio(stat("mem.l1d.misses"),
                                                  instructions), "mpki"),
        "memory.l2_misses": (stat("mem.l2.misses"), "count"),
        "memory.llc_misses": (stat("mem.llc.misses"), "count"),
        "memory.dram_accesses": (stat("mem.dram_accesses"), "count"),
        "csd.decoy_uops": (stat("decoy_uops_executed"), "count"),
        "csd.devect_uops": (stat("devect_uops_executed"), "count"),
        "csd.stealth_triggers": (count("csd.stealth_triggers"), "count"),
        "csd.watchdog_fires": (count("csd.watchdog_fires"), "count"),
        "dift.tainted_loads": (count("dift.tainted_loads"), "count"),
        "dift.tainted_branches": (count("dift.tainted_branches"), "count"),
        "dift.propagations": (count("dift.propagations"), "count"),
        "sec.attack_s": (span_s("sec.attack"), "s"),
        "sec.victim_instructions": (
            sum(r["counts"]["instructions"] for r in attack), "count"),
        "sec.probes": (count("sec.probes"), "count"),
        "obs.trace_overhead_pct": (
            100 * analysis.ratio(traced_wall - wall_s, wall_s), "%"),
    }
    for exit_name in SB_EXITS:
        m["sim.sb_exit_" + exit_name] = (count("sb.exit." + exit_name),
                                         "count")
    for bucket in CPI_BUCKETS:
        m["cpu.cpi." + bucket] = (
            analysis.ratio(count("cpi." + bucket), cpi_instructions),
            "cycles/instr")
    for name, agg in policy.items():
        m["power.%s.gated_fraction" % name] = (
            analysis.ratio(agg.get("power.gated_cycles", 0.0),
                           agg.get("power.total_cycles", 0.0)), "ratio")
        m["power.%s.gate_events" % name] = (
            agg.get("power.gate_events", 0.0), "count")
        m["power.%s.wake_stall_cycles" % name] = (agg.get("wake", 0.0),
                                                  "cycles")
        m["power.%s.energy_nj" % name] = (agg.get("power.energy_nj", 0.0),
                                          "nJ")
    for kind, unit in (("aes_key_bits", "bits"), ("aes_mi_bits", "bits/obs"),
                       ("rsa_accuracy", "ratio"),
                       ("rsa_mi_bits", "bits/obs")):
        for variant in ("undefended", "defended"):
            key = "%s_%s" % (kind, variant)
            m["sec." + key] = (sec.get(key, 0.0), unit)
    return m


# --- paper suite --------------------------------------------------------------

def run_paper_suite(seconds, trace, env, work):
    bindir = os.path.join(BUILD, "harnesses")

    def launch(cmd, span_name, parent):
        t0 = time.perf_counter() - start
        status, elapsed, rss = launch_harness(cmd, env)
        if parent is not None:
            spans.append([span_name, t0, t0 + elapsed, parent, -1])
        return status, elapsed, rss

    passes = []
    spans = []
    failures = []
    setup_times = []
    build_info = "unknown"
    rss_mb = 0.0
    start = time.perf_counter()
    last = 0.0
    # At least one whole pass (two when traced: the first traced, the
    # second timed untraced), then more while the budget allows.
    while not passes or (trace and len(passes) < 2) or \
            time.perf_counter() - start + last / 2 <= seconds:
        pass_start = time.perf_counter()
        root = None
        if trace and len(passes) % 2 == 0:
            root = len(spans)
            spans.append(["suite", pass_start - start, 0.0, -1, -1])
        times, docs, failed = [], [], []
        for harness in HARNESSES:
            # Set-up sample: a launch of the config-table harness, which
            # simulates nothing, before every harness, so the samples
            # spread over the whole run like the harnesses do.
            status, elapsed, _ = launch([os.path.join(bindir, HARNESSES[0])],
                                        "bench.launch", root)
            if status != 0:
                raise BenchError("%s exited with status %d" %
                                 (HARNESSES[0], status))
            setup_times.append(elapsed)

            sidecar = os.path.join(work, "%s.%d.json" % (harness,
                                                         len(passes)))
            status, elapsed, rss = launch(
                [os.path.join(bindir, harness), "--jobs", "1", "--json",
                 sidecar], "bench." + harness, root)
            times.append(elapsed)
            rss_mb = max(rss_mb, rss)
            ok = status == 0
            doc = None
            try:
                with open(sidecar) as f:
                    doc = json.load(f)
                ok = ok and "manifest" in doc
            except (OSError, ValueError):
                ok = False
            if not ok:
                failures.append("pass %d: %s exited %d or wrote no valid "
                                "sidecar" % (len(passes), harness, status))
            elif not docs:
                manifest = doc["manifest"]
                check_build(manifest["build_type"], manifest["build_flags"])
                build_info = "%s, %s, flags '%s'" % (
                    manifest["build_type"], manifest["compiler"],
                    manifest["build_flags"])
            docs.append((harness, doc))
            failed.append(0 if ok else 1)
        if root is not None:
            spans[root][2] = time.perf_counter() - start
        passes.append({"traced": root is not None, "run_s": times,
                       "failed": failed,
                       "digest": analysis.digest(docs)})
        last = time.perf_counter() - pass_start

    digests = [p["digest"] for p in passes]
    if len(set(digests)) != 1:
        failures.append("sidecars differ between passes: " +
                        ", ".join(digests))
    untraced = [p for p in passes if not p["traced"]] or passes
    attempted = sum(len(p["failed"]) for p in passes)
    failed = sum(sum(p["failed"]) for p in passes)
    if failed == 0 and failures:
        failed = attempted
    summary = {
        "build": build_info,
        "passes": len(passes),
        "cells": len(HARNESSES),
        "sim_digest": digests[0],
        "failures": failures,
        "end_to_end": {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (analysis.sum_of_minimums(
                [p["run_s"] for p in untraced]), "s"),
            "sim_muops_per_s": (None, "Muops/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
    }
    layers = None
    if trace:
        layers = {}
        own = analysis.self_times(spans)
        for index, harness in enumerate(HARNESSES):
            layers["bench.%s_s" % harness] = (min(
                p["run_s"][index] for p in passes), "s")
        traced_wall, untraced_wall = (
            analysis.sum_of_minimums([p["run_s"] for p in passes
                                      if p["traced"] == traced])
            for traced in (True, False))
        layers["obs.trace_overhead_pct"] = (
            100 * analysis.ratio(traced_wall - untraced_wall, untraced_wall),
            "%")
        layers["bench.suite_self_s"] = (sum(
            t for s, t in zip(spans, own) if s[0] == "suite"), "s")
    return attempted, failed, summary, layers


# --- reporting ----------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_values(spec_metrics, measured):
    """{name: {value, unit}} for every metric the spec lists; a layer the
    workload does not exercise reads 0."""
    out = {}
    for metric in spec_metrics:
        value, _ = measured.get(metric["name"], (0.0, metric["unit"]))
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def print_summary(workload, seed, trace, attempted, failed, summary, layers):
    print("== %s (seed %d, %s) ==" % (
        workload, seed, "traced" if trace else "untraced"))
    print("  build %s" % summary["build"])
    print("  passes %d x %d cells; sim_digest %s" % (
        summary["passes"], summary["cells"], summary["sim_digest"]))
    rows = dict(summary["end_to_end"])
    rows["error_rate"] = (analysis.error_rate(failed, attempted),
                          "%d of %d cells" % (failed, attempted))
    for name, (value, unit) in rows.items():
        text = "n/a" if value is None else "%.6g" % value
        print("  %-34s %14s %s" % (name, text, unit))
    for name, (value, unit) in sorted((layers or {}).items()):
        print("  %-34s %14.6g %s" % (name, value, unit))
    for failure in summary["failures"][:20]:
        print("  FAILED: " + failure)


def run_workload(workload, args, env, work):
    os.makedirs(work)
    try:
        if workload == "paper-suite":
            return run_paper_suite(args.seconds, args.trace, env, work)
        return run_in_process(workload, args.seed, args.seconds, args.trace,
                              env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Stop children on SIGTERM as on Ctrl-C.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    env = clean_env()
    try:
        spec = load_spec()
        build(env)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        metrics = {}
        for name in names:
            work = os.path.join(BUILD, "work-%d-%s" % (os.getpid(), name))
            a, f, summary, layers = run_workload(name, args, env, work)
            print_summary(name, args.seed, args.trace, a, f, summary, layers)
            attempted += a
            failed += f
            measured = layers if args.trace else summary["end_to_end"]
            values = metric_values(
                spec["per_layer" if args.trace else "end_to_end"], measured)
            if len(names) == 1:
                metrics = values
            else:
                metrics.update({"%s.%s" % (name, k): v
                                for k, v in values.items()})
    except BenchError as e:
        log(str(e))
        return 2
    except KeyboardInterrupt:
        log("interrupted")
        return 130
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
