/**
 * @file
 * Host-throughput benchmark: simulated kilo-uops per host second.
 *
 * This is not a paper figure — it tracks how fast the simulator itself
 * runs, so CI can catch host-side regressions (scripts/
 * check_throughput.py compares the sidecar against a committed
 * baseline). Configurations of the AES workload, the program
 * BM_DetailedAesBlock drives, each with the flow cache on (the
 * default: cached translations, retired in chains of resident entries,
 * sim/fastpath.hh) and off (every macro-op re-translated, one per
 * call):
 *
 *  - detailed fidelity
 *  - cache-only fidelity, plus the channel monitor armed (on only)
 *  - cache-only under stealth (CSD decoys with a 1000-cycle watchdog,
 *    several retriggers per AES block; on only)
 *
 * plus one SPEC preset (milc) in detailed mode under the CSD-devect
 * power-gating policy, flow cache on and off: the Figs. 12-16
 * configuration, where the power controller toggles devectorization
 * per macro.
 *
 * The on / off ratio in each configuration is the measured speedup of
 * the flow cache and its chains (DESIGN.md, "Host performance
 * architecture"). All ratios come from runs inside one process, the
 * compared configurations interleaved batch by batch, so they are
 * robust to host noise in a way the absolute kuops/s floors are not;
 * they are the primary CI guards (check_throughput.py
 * MIN_DETAILED_SPEEDUP, MIN_CACHEONLY_SPEEDUP, MIN_GATED_SPEEDUP), with
 * the detailed run's chain uop coverage (MIN_DETAILED_COVERAGE) and
 * the channel monitor's overhead (MAX_MONITOR_OVERHEAD_PCT). The
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
#include "workloads/spec.hh"

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
    FastPath::Counters chain;  //!< the chain's host counters (uops:
                               //!< the timed region's only)
};

/** One configuration of a workload and its timed work so far. */
class Rig
{
  public:
    /** The AES workload (20 blocks per batch). */
    Rig(SimMode mode, bool flow_cache_on, bool arm_monitor = false,
        bool stealth = false)
    {
        std::array<std::uint8_t, 16> key{};
        for (unsigned i = 0; i < 16; ++i)
            key[i] = static_cast<std::uint8_t>(i);
        const AesWorkload workload = AesWorkload::build(key);
        program_ = workload.program;
        build(mode, flow_cache_on);
        if (arm_monitor)
            sim_->mem().armSetMonitor();
        if (stealth) {
            csd_.arm(workload.defense());
            sim_->setTaintTracker(&taint_);
            sim_->setCsd(&csd_);
        }
        warm();
    }

    /** A SPEC preset in detailed mode under the CSD-devect gating
     *  policy, as the Figs. 12-16 harnesses run it (one program run
     *  of 20 phase pairs per batch). */
    Rig(const SpecPreset &preset, bool flow_cache_on)
        : runsPerBatch_(1)
    {
        program_ = SpecWorkload::build(preset, 20).program;
        build(SimMode::Detailed, flow_cache_on);
        sim_->enableCpiStack();
        GatingParams gating;
        gating.policy = GatingPolicy::CsdDevect;
        power_ = std::make_unique<PowerGateController>(gating, energy_);
        sim_->setPowerController(power_.get());
        sim_->setCsd(&csd_);
        warm();
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
        for (int run = 0; run < runsPerBatch_; ++run) {
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
        run.chain = sim_->fastPath().counters();
        run.chain.uopsRetired -= chainUopsBefore_;
        return run;
    }

  private:
    void
    build(SimMode mode, bool flow_cache_on)
    {
        SimParams params;
        params.mode = mode;
        sim_ = std::make_unique<Simulation>(program_, params);
        // Explicit, so CSD_FLOW_CACHE in the environment cannot skew
        // the gated numbers: both configurations are measured.
        sim_->setFlowCacheEnabled(flow_cache_on);
    }

    /** Warm host caches, the branch predictor, and the flow cache so
     *  the timed region measures steady state. */
    void
    warm()
    {
        for (int run = 0; run < 5; ++run) {
            sim_->restart();
            sim_->runToHalt();
        }
        uopsBefore_ = sim_->uopsSimulated();
        chainUopsBefore_ = sim_->fastPath().counters().uopsRetired;
    }

    Program program_;
    int runsPerBatch_ = 20;
    MsrFile msrs_;
    TaintTracker taint_;
    ContextSensitiveDecoder csd_{msrs_, &taint_};
    EnergyModel energy_;
    std::unique_ptr<PowerGateController> power_;
    std::unique_ptr<Simulation> sim_;
    std::uint64_t uopsBefore_ = 0;
    std::uint64_t chainUopsBefore_ = 0;
    double seconds_ = 0;
};

/** Timed work per configuration. */
constexpr double minSeconds = 0.5;

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

/** Chain uops over all uops of @p run. */
double
chainCoverage(const ThroughputRun &run)
{
    return run.uops > 0 ? static_cast<double>(run.chain.uopsRetired) /
                              static_cast<double>(run.uops)
                        : 0.0;
}

/** @p on / @p off throughput, 0 when @p off did no work. */
double
speedup(const ThroughputRun &on, const ThroughputRun &off)
{
    return off.kuopsPerSec > 0 ? on.kuopsPerSec / off.kuopsPerSec : 0.0;
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
    // flow cache on and off in each fidelity, the armed channel
    // monitor beside the cache-only baseline it is compared with, and
    // milc under CSD-devect gating on and off.
    Rig detailed_on(SimMode::Detailed, true);
    Rig detailed_off(SimMode::Detailed, false);
    measureInterleaved({&detailed_on, &detailed_off});
    const ThroughputRun on = detailed_on.result();
    const ThroughputRun off = detailed_off.result();
    Rig cache_only_on(SimMode::CacheOnly, true);
    Rig cache_only_off(SimMode::CacheOnly, false);
    Rig cache_only_monitor(SimMode::CacheOnly, true, /*arm_monitor=*/true);
    measureInterleaved({&cache_only_on, &cache_only_off,
                        &cache_only_monitor});
    const ThroughputRun cache_only = cache_only_on.result();
    const ThroughputRun cache_only_uncached = cache_only_off.result();
    const ThroughputRun monitored = cache_only_monitor.result();
    Rig stealth_rig(SimMode::CacheOnly, true, /*arm_monitor=*/false,
                    /*stealth=*/true);
    measureInterleaved({&stealth_rig});
    const ThroughputRun stealth = stealth_rig.result();
    // Under the power controller: its hook and the chain's context
    // guard run per macro.
    Rig gated_on(specPreset("milc"), true);
    Rig gated_off(specPreset("milc"), false);
    measureInterleaved({&gated_on, &gated_off});
    const ThroughputRun gated = gated_on.result();
    const ThroughputRun gated_uncached = gated_off.result();

    Table table({"configuration", "kuops/s", "uops", "host s",
                 "flow-cache hit", "chained uops"});
    const auto row = [&table](const char *name, const ThroughputRun &run,
                              bool cached) {
        table.addRow({name, fmt(run.kuopsPerSec, 1),
                      std::to_string(run.uops), fmt(run.hostSeconds, 2),
                      cached ? pct(run.flowCacheHitRate) : "-",
                      cached ? pct(chainCoverage(run)) : "-"});
    };
    row("detailed, flow cache on", on, true);
    row("detailed, flow cache off", off, false);
    row("cache-only, flow cache on", cache_only, true);
    row("cache-only, flow cache off", cache_only_uncached, false);
    row("cache-only + set monitor", monitored, true);
    row("cache-only, stealth", stealth, true);
    row("detailed, milc csd-devect", gated, true);
    row("detailed, milc csd-devect, flow cache off", gated_uncached, false);
    table.print();

    const double detailed_speedup = speedup(on, off);
    const double cacheonly_speedup = speedup(cache_only, cache_only_uncached);
    const double gated_speedup = speedup(gated, gated_uncached);
    const double monitor_overhead =
        cache_only.kuopsPerSec > 0
            ? 100.0 * (1.0 - monitored.kuopsPerSec /
                                 cache_only.kuopsPerSec)
            : 0.0;
    benchStat("detailed_kuops_per_s_cache_on", on.kuopsPerSec);
    benchStat("detailed_kuops_per_s_cache_off", off.kuopsPerSec);
    benchStat("cacheonly_kuops_per_s", cache_only.kuopsPerSec);
    benchStat("cacheonly_kuops_per_s_cache_off",
              cache_only_uncached.kuopsPerSec);
    benchStat("cacheonly_kuops_per_s_monitor", monitored.kuopsPerSec);
    benchStat("channel_monitor_overhead_pct", monitor_overhead);
    benchStat("gated_kuops_per_s", gated.kuopsPerSec);
    benchStat("gated_kuops_per_s_cache_off", gated_uncached.kuopsPerSec);
    benchStat("flow_cache_speedup", detailed_speedup);
    benchStat("cacheonly_flow_cache_speedup", cacheonly_speedup);
    benchStat("gated_flow_cache_speedup", gated_speedup);
    benchStat("flow_cache_hit_rate", on.flowCacheHitRate);
    benchStat("stealth_kuops_per_s", stealth.kuopsPerSec);
    benchStat("stealth_flow_cache_hit_rate", stealth.flowCacheHitRate);

    // The chain's host counters from the cache-only run
    // (sim/fastpath.hh). These live outside the simulated stat tree;
    // the sidecar is where CI sees chaining actually engaged.
    const FastPath::Counters &chain = cache_only.chain;
    benchStat("chain.built", static_cast<double>(chain.built));
    benchStat("chain.invalidated", static_cast<double>(chain.invalidated));
    benchStat("chain.entries", static_cast<double>(chain.entries));
    benchStat("chain.uops_retired", static_cast<double>(chain.uopsRetired));
    benchStat("chain.uop_coverage", chainCoverage(cache_only));
    for (unsigned i = 0; i < numSbExits; ++i)
        benchStat(std::string("chain.exit_") +
                      sbExitName(static_cast<SbExit>(i)),
                  static_cast<double>(chain.exits[i]));
    benchStat("chain.detailed_uop_coverage", chainCoverage(on));
    benchStat("chain.gated_uop_coverage", chainCoverage(gated));
    // The flow-cache-off runs must never have chained.
    benchStat("chain.cache_off_entries",
              static_cast<double>(off.chain.entries +
                                  cache_only_uncached.chain.entries +
                                  gated_uncached.chain.entries));
    benchManifestNote("flow_cache", "on+off measured in-process");

    std::printf("\nflow-cache speedup on detailed: %sx (hit rate %s, %s "
                "of uops chained)\n",
                fmt(detailed_speedup, 2).c_str(),
                pct(on.flowCacheHitRate).c_str(),
                pct(chainCoverage(on)).c_str());
    std::printf("flow-cache speedup on cache-only: %sx (%s of uops "
                "chained)\n",
                fmt(cacheonly_speedup, 2).c_str(),
                pct(chainCoverage(cache_only)).c_str());
    std::printf("flow-cache speedup on detailed milc under csd-devect "
                "gating: %sx (%s of uops chained)\n",
                fmt(gated_speedup, 2).c_str(),
                pct(chainCoverage(gated)).c_str());
    std::printf("channel monitor armed: %s kuops/s (%s%% overhead vs "
                "disarmed cache-only)\n",
                fmt(monitored.kuopsPerSec, 1).c_str(),
                fmt(monitor_overhead, 1).c_str());
    return 0;
}
