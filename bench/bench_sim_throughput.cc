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
 *  - detailed, flow cache on  (the default production configuration:
 *                              superblock tier on)
 *  - detailed, interpreter    (flow cache on, superblock tier off)
 *  - detailed, flow cache off (every macro-op re-translated; the tier
 *                              needs the flow cache, so it is off too)
 *  - cache-only fidelity      (superblock tier on, the default)
 *  - cache-only interpreter   (superblock tier off)
 *  - cache-only under stealth (CSD decoys with a 1000-cycle watchdog,
 *                              several retriggers per AES block)
 *
 * The detailed interpreter / cache-off ratio is the measured speedup
 * of the predecoded-flow cache, and the tier-on / tier-off ratios in
 * each fidelity are the measured speedups of the superblock
 * threaded-code tier (DESIGN.md, "Host performance architecture").
 * All ratios come from runs inside one process, the compared
 * configurations interleaved batch by batch, so they are robust to
 * host noise in a way the absolute kuops/s floors are not;
 * the superblock ratios are the primary CI guards for the tier
 * (check_throughput.py MIN_SB_SPEEDUP, MIN_DETAILED_SB_SPEEDUP). The
 * stealth row's flow-cache hit rate is the guard that watchdog
 * retriggers keep memoized flows (MIN_STEALTH_HIT_RATE); it is a pure
 * function of the simulated run, so host noise cannot move it.
 */

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <memory>

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

/** One configuration of the AES workload and its timed work so far. */
class Rig
{
  public:
    Rig(SimMode mode, bool flow_cache_on, bool arm_monitor,
        bool superblock_on, bool stealth)
    {
        std::array<std::uint8_t, 16> key{};
        for (unsigned i = 0; i < 16; ++i)
            key[i] = static_cast<std::uint8_t>(i);
        workload_ = AesWorkload::build(key);

        SimParams params;
        params.mode = mode;
        sim_ = std::make_unique<Simulation>(workload_.program, params);
        sim_->setFlowCacheEnabled(flow_cache_on);
        // Explicit, so CSD_SUPERBLOCK in the environment cannot skew
        // the gated numbers: both tier configurations are measured.
        sim_->setSuperblockEnabled(superblock_on);
        if (arm_monitor)
            sim_->mem().armSetMonitor();
        if (stealth) {
            csd_.arm(workload_.defense());
            sim_->setTaintTracker(&taint_);
            sim_->setCsd(&csd_);
        }

        // Warm host caches, the branch predictor, and the flow cache
        // so the timed region measures steady state.
        for (int block = 0; block < 5; ++block) {
            sim_->restart();
            sim_->runToHalt();
        }
        uopsBefore_ = sim_->uopsSimulated();
    }

    // The decoder's MSR hook holds the rig's own members.
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Run one timed batch of AES blocks. */
    void
    batch()
    {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point start = Clock::now();
        for (int block = 0; block < 20; ++block) {
            sim_->restart();
            sim_->runToHalt();
        }
        seconds_ +=
            std::chrono::duration<double>(Clock::now() - start).count();
    }

    double seconds() const { return seconds_; }

    ThroughputRun
    result() const
    {
        ThroughputRun run;
        run.uops = sim_->uopsSimulated() - uopsBefore_;
        run.hostSeconds = seconds_;
        run.kuopsPerSec =
            static_cast<double>(run.uops) / 1000.0 / seconds_;
        const FlowCache &fc = sim_->flowCache();
        const std::uint64_t lookups =
            fc.hits + fc.misses + fc.invalidations;
        if (lookups > 0)
            run.flowCacheHitRate = static_cast<double>(fc.hits) /
                                   static_cast<double>(lookups);
        run.fp = sim_->fastPath().counters();
        return run;
    }

  private:
    AesWorkload workload_;
    MsrFile msrs_;
    TaintTracker taint_;
    ContextSensitiveDecoder csd_{msrs_, &taint_};
    std::unique_ptr<Simulation> sim_;
    std::uint64_t uopsBefore_ = 0;
    double seconds_ = 0;
};

/** Timed work per configuration. */
constexpr double minSeconds = 0.5;

ThroughputRun
measure(SimMode mode, bool flow_cache_on, bool arm_monitor = false,
        bool superblock_on = true, bool stealth = false)
{
    Rig rig(mode, flow_cache_on, arm_monitor, superblock_on, stealth);
    do
        rig.batch();
    while (rig.seconds() < minSeconds);
    return rig.result();
}

/**
 * Measure several configurations in alternating batches until each has
 * its minSeconds, so a host slowdown lasting seconds hits every side of
 * a gated ratio alike instead of whichever ran during it.
 */
void
measureInterleaved(std::initializer_list<Rig *> rigs)
{
    bool more = true;
    while (more) {
        more = false;
        for (Rig *rig : rigs) {
            rig->batch();
            more = more || rig->seconds() < minSeconds;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Throughput", "Simulator host throughput (AES block)",
                "Simulated kilo-uops per host second; higher is "
                "better. Tracks the simulator, not the paper.");

    // The configurations behind each in-process ratio run interleaved:
    // detailed tier on / interpreter / flow cache off (which also turns
    // the tier off), and cache-only tier on / interpreter.
    Rig detailed_on(SimMode::Detailed, true, false, true, false);
    Rig detailed_off_tier(SimMode::Detailed, true, false, false, false);
    Rig detailed_off_cache(SimMode::Detailed, false, false, true, false);
    measureInterleaved({&detailed_on, &detailed_off_tier,
                        &detailed_off_cache});
    const ThroughputRun on = detailed_on.result();
    const ThroughputRun detailed_interp = detailed_off_tier.result();
    const ThroughputRun off = detailed_off_cache.result();
    Rig cache_only_on(SimMode::CacheOnly, true, false, true, false);
    Rig cache_only_off(SimMode::CacheOnly, true, false, false, false);
    measureInterleaved({&cache_only_on, &cache_only_off});
    const ThroughputRun cache_only = cache_only_on.result();
    const ThroughputRun interp = cache_only_off.result();
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
    table.addRow({"detailed, interpreter",
                  fmt(detailed_interp.kuopsPerSec, 1),
                  std::to_string(detailed_interp.uops),
                  fmt(detailed_interp.hostSeconds, 2),
                  pct(detailed_interp.flowCacheHitRate)});
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

    // The flow cache's own win, tier off on both sides.
    const double speedup = detailed_interp.kuopsPerSec / off.kuopsPerSec;
    const double detailed_sb_speedup =
        detailed_interp.kuopsPerSec > 0
            ? on.kuopsPerSec / detailed_interp.kuopsPerSec
            : 0.0;
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
    benchStat("detailed_kuops_per_s_interp", detailed_interp.kuopsPerSec);
    benchStat("detailed_kuops_per_s_cache_off", off.kuopsPerSec);
    benchStat("cacheonly_kuops_per_s", cache_only.kuopsPerSec);
    benchStat("cacheonly_kuops_per_s_interp", interp.kuopsPerSec);
    benchStat("cacheonly_kuops_per_s_monitor", monitored.kuopsPerSec);
    benchStat("channel_monitor_overhead_pct", monitor_overhead);
    benchStat("flow_cache_speedup", speedup);
    benchStat("flow_cache_hit_rate", on.flowCacheHitRate);
    benchStat("superblock_speedup", sb_speedup);
    benchStat("detailed_superblock_speedup", detailed_sb_speedup);
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
    // The detailed tier-on run's engagement.
    benchStat("superblock.detailed_uop_coverage",
              on.uops > 0 ? static_cast<double>(on.fp.uopsRetired) /
                                static_cast<double>(on.uops)
                          : 0.0);
    // The tier-off runs must never have compiled or entered a block.
    benchStat("superblock.interp_entries",
              static_cast<double>(interp.fp.entries +
                                  detailed_interp.fp.entries));
    benchManifestNote("superblock", "on+off measured in-process");

    std::printf("\nflow-cache speedup on the detailed interpreter: %sx "
                "(hit rate %s)\n", fmt(speedup, 2).c_str(),
                pct(on.flowCacheHitRate).c_str());
    std::printf("superblock tier speedup on detailed: %sx "
                "(%s of uops retired in compiled blocks)\n",
                fmt(detailed_sb_speedup, 2).c_str(),
                pct(on.uops > 0 ? static_cast<double>(on.fp.uopsRetired) /
                                      static_cast<double>(on.uops)
                                : 0.0).c_str());
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
