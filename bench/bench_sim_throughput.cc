/**
 * @file
 * Host-throughput benchmark: simulated kilo-uops per host second.
 *
 * This is not a paper figure — it tracks how fast the simulator itself
 * runs, so CI can catch host-side regressions (scripts/
 * check_throughput.py compares the sidecar against a committed
 * baseline). Configurations of the AES detailed workload, the same
 * program BM_DetailedAesBlock drives:
 *
 *  - detailed, flow cache on  (the default production configuration)
 *  - detailed, flow cache off (every macro-op re-translated)
 *  - cache-only fidelity      (superblock tier on, the default)
 *  - cache-only interpreter   (superblock tier off)
 *  - cache-only under stealth (CSD decoys with a 1000-cycle watchdog,
 *                              several retriggers per AES block)
 *
 * The cache-on / cache-off ratio is the measured speedup of the
 * predecoded-flow cache, and the cache-only tier-on / tier-off ratio
 * is the measured speedup of the superblock threaded-code tier
 * (DESIGN.md, "Host performance architecture"). Both ratios come from
 * runs inside one process, so they are robust to run-to-run host
 * noise in a way the absolute kuops/s floors are not; the superblock
 * ratio is the primary CI guard for the tier (check_throughput.py
 * MIN_SB_SPEEDUP). The stealth row's flow-cache hit rate is the guard
 * that watchdog retriggers keep memoized flows (MIN_STEALTH_HIT_RATE);
 * it is a pure function of the simulated run, so host noise cannot
 * move it.
 */

#include <chrono>
#include <cstdio>

#include "bench/common/bench_util.hh"
#include "csd/csd.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"
#include "workloads/aes.hh"

using namespace csd;
using namespace csd::bench;

namespace
{

struct ThroughputRun
{
    double kuopsPerSec = 0;
    std::uint64_t uops = 0;
    double hostSeconds = 0;
    double flowCacheHitRate = 0;
    FastPath::Counters fp;  //!< superblock-tier host counters
};

ThroughputRun
measure(SimMode mode, bool flow_cache_on, bool arm_monitor = false,
        bool superblock_on = true, bool stealth = false)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mode = mode;
    Simulation sim(workload.program, params);
    sim.setFlowCacheEnabled(flow_cache_on);
    // Explicit, so CSD_SUPERBLOCK in the environment cannot skew the
    // gated numbers: both tier configurations are always measured.
    sim.setSuperblockEnabled(superblock_on);
    if (arm_monitor)
        sim.mem().armSetMonitor();
    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    if (stealth) {
        taint.addTaintSource(workload.keyRange);
        msrs.setWatchdogPeriod(1000);
        msrs.setDecoyDRange(0, workload.tTableRange);
        msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
        sim.setTaintTracker(&taint);
        sim.setCsd(&csd);
    }

    // Warm host caches, the branch predictor, and the flow cache so
    // the timed region measures steady state.
    for (int block = 0; block < 5; ++block) {
        sim.restart();
        sim.runToHalt();
    }

    using Clock = std::chrono::steady_clock;
    constexpr double min_seconds = 0.5;
    constexpr int batch = 20;

    const std::uint64_t uops_before = sim.uopsSimulated();
    const Clock::time_point start = Clock::now();
    double elapsed = 0;
    do {
        for (int block = 0; block < batch; ++block) {
            sim.restart();
            sim.runToHalt();
        }
        elapsed = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);

    ThroughputRun run;
    run.uops = sim.uopsSimulated() - uops_before;
    run.hostSeconds = elapsed;
    run.kuopsPerSec =
        static_cast<double>(run.uops) / 1000.0 / elapsed;
    const FlowCache &fc = sim.flowCache();
    const std::uint64_t lookups = fc.hits + fc.misses + fc.invalidations;
    if (lookups > 0)
        run.flowCacheHitRate =
            static_cast<double>(fc.hits) / static_cast<double>(lookups);
    run.fp = sim.fastPath().counters();
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Throughput", "Simulator host throughput (AES block)",
                "Simulated kilo-uops per host second; higher is "
                "better. Tracks the simulator, not the paper.");

    const ThroughputRun on = measure(SimMode::Detailed, true);
    const ThroughputRun off = measure(SimMode::Detailed, false);
    const ThroughputRun cache_only = measure(SimMode::CacheOnly, true);
    const ThroughputRun interp = measure(SimMode::CacheOnly, true,
                                         /*arm_monitor=*/false,
                                         /*superblock_on=*/false);
    // Channel-monitor cost when armed (memory/set_monitor.hh). The
    // disarmed configurations above are the gated baseline: arming is
    // opt-in, so only `cacheonly_kuops_per_s` has to stay inside the
    // check_throughput.py envelope; these are informational.
    const ThroughputRun monitored =
        measure(SimMode::CacheOnly, true, /*arm_monitor=*/true);
    const ThroughputRun stealth =
        measure(SimMode::CacheOnly, true, /*arm_monitor=*/false,
                /*superblock_on=*/true, /*stealth=*/true);

    Table table({"configuration", "kuops/s", "uops", "host s",
                 "flow-cache hit"});
    table.addRow({"detailed, flow cache on", fmt(on.kuopsPerSec, 1),
                  std::to_string(on.uops), fmt(on.hostSeconds, 2),
                  pct(on.flowCacheHitRate)});
    table.addRow({"detailed, flow cache off", fmt(off.kuopsPerSec, 1),
                  std::to_string(off.uops), fmt(off.hostSeconds, 2),
                  "-"});
    table.addRow({"cache-only fidelity", fmt(cache_only.kuopsPerSec, 1),
                  std::to_string(cache_only.uops),
                  fmt(cache_only.hostSeconds, 2),
                  pct(cache_only.flowCacheHitRate)});
    table.addRow({"cache-only interpreter", fmt(interp.kuopsPerSec, 1),
                  std::to_string(interp.uops),
                  fmt(interp.hostSeconds, 2),
                  pct(interp.flowCacheHitRate)});
    table.addRow({"cache-only + set monitor",
                  fmt(monitored.kuopsPerSec, 1),
                  std::to_string(monitored.uops),
                  fmt(monitored.hostSeconds, 2),
                  pct(monitored.flowCacheHitRate)});
    table.addRow({"cache-only, stealth", fmt(stealth.kuopsPerSec, 1),
                  std::to_string(stealth.uops),
                  fmt(stealth.hostSeconds, 2),
                  pct(stealth.flowCacheHitRate)});
    table.print();

    const double speedup = on.kuopsPerSec / off.kuopsPerSec;
    const double sb_speedup =
        interp.kuopsPerSec > 0
            ? cache_only.kuopsPerSec / interp.kuopsPerSec
            : 0.0;
    const double monitor_overhead =
        cache_only.kuopsPerSec > 0
            ? 100.0 * (1.0 - monitored.kuopsPerSec /
                                 cache_only.kuopsPerSec)
            : 0.0;
    benchStat("detailed_kuops_per_s_cache_on", on.kuopsPerSec);
    benchStat("detailed_kuops_per_s_cache_off", off.kuopsPerSec);
    benchStat("cacheonly_kuops_per_s", cache_only.kuopsPerSec);
    benchStat("cacheonly_kuops_per_s_interp", interp.kuopsPerSec);
    benchStat("cacheonly_kuops_per_s_monitor", monitored.kuopsPerSec);
    benchStat("channel_monitor_overhead_pct", monitor_overhead);
    benchStat("flow_cache_speedup", speedup);
    benchStat("flow_cache_hit_rate", on.flowCacheHitRate);
    benchStat("superblock_speedup", sb_speedup);
    benchStat("stealth_kuops_per_s", stealth.kuopsPerSec);
    benchStat("stealth_flow_cache_hit_rate", stealth.flowCacheHitRate);

    // Superblock-tier host counters from the tier-on cache-only run
    // (sim/fastpath.hh). These live outside the simulated stat tree;
    // the sidecar is where CI sees the tier actually engaged.
    const FastPath::Counters &fp = cache_only.fp;
    benchStat("superblock.built", static_cast<double>(fp.built));
    benchStat("superblock.build_aborts",
              static_cast<double>(fp.buildAborts));
    benchStat("superblock.invalidated",
              static_cast<double>(fp.invalidated));
    benchStat("superblock.entries", static_cast<double>(fp.entries));
    benchStat("superblock.uops_retired",
              static_cast<double>(fp.uopsRetired));
    benchStat("superblock.uop_coverage",
              cache_only.uops > 0
                  ? static_cast<double>(fp.uopsRetired) /
                        static_cast<double>(cache_only.uops)
                  : 0.0);
    for (unsigned i = 0; i < numSbExits; ++i)
        benchStat(std::string("superblock.exit_") +
                      sbExitName(static_cast<SbExit>(i)),
                  static_cast<double>(fp.exits[i]));
    // The tier-off run must never have compiled or entered a block.
    benchStat("superblock.interp_entries",
              static_cast<double>(interp.fp.entries));
    benchManifestNote("superblock", "on+off measured in-process");

    std::printf("\nflow-cache speedup on the detailed model: %sx "
                "(hit rate %s)\n", fmt(speedup, 2).c_str(),
                pct(on.flowCacheHitRate).c_str());
    std::printf("superblock tier speedup on cache-only: %sx "
                "(%s of uops retired in compiled blocks)\n",
                fmt(sb_speedup, 2).c_str(),
                pct(cache_only.uops > 0
                        ? static_cast<double>(fp.uopsRetired) /
                              static_cast<double>(cache_only.uops)
                        : 0.0).c_str());
    std::printf("channel monitor armed: %s kuops/s (%s%% overhead vs "
                "disarmed cache-only)\n",
                fmt(monitored.kuopsPerSec, 1).c_str(),
                fmt(monitor_overhead, 1).c_str());
    return 0;
}
