#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <optional>
#include <sstream>
#include <string>

#include "common/random.hh"
#include "csd/csd.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"
#include "tests/support/dump_diff.hh"
#include "tests/support/random_program.hh"
#include "uop/translate.hh"
#include "workloads/aes.hh"
#include "workloads/rsa.hh"
#include "workloads/spec.hh"

namespace csd
{
namespace
{

/**
 * The retire routine's chain (sim/fastpath.hh) retires runs of
 * resident flow-cache entries in one call. Like the flow cache it
 * runs on, it is a host-side optimization: with the flow cache on
 * (chained) or off (every macro translated, one per call) the
 * simulated machine must be bit-identical — cycles, uop counts, energy
 * scalars, the whole stat tree. These tests compare the two in both
 * fidelities across the paper's crypto victims and the adversarial
 * trigger-toggling program (in detailed mode with the CPI stack and
 * lifecycle tracer armed), pin where and why a walk stops with
 * targeted unit scenarios, and run a randomized differential over
 * generated programs.
 *
 * The suite names (Superblock*) are those of the superblock tier the
 * chain replaced; each test keeps its scenario and now holds the chain
 * to it.
 */

struct CacheOnlyRecord
{
    Tick cycles = 0;
    std::uint64_t uops = 0;
    std::uint64_t instructions = 0;
    std::string simStats;  //!< full dumpStatsJson text (phases scrubbed)
    std::string csdStats;  //!< the CSD's own stat tree (when attached)
    FastPath::Counters fp; //!< host-side chain counters
};

/** Blank the manifest's host wall-time phases (nondeterministic). */
std::string
scrubPhases(std::string dump)
{
    const std::size_t begin = dump.find("\"phases\":");
    if (begin == std::string::npos)
        return dump;
    const std::size_t end = dump.find('\n', begin);
    dump.replace(begin, end - begin, "\"phases\": {}");
    return dump;
}

CacheOnlyRecord
finishRecord(Simulation &sim, const ContextSensitiveDecoder *csd)
{
    CacheOnlyRecord rec;
    rec.cycles = sim.cycles();
    rec.uops = sim.uopsSimulated();
    rec.instructions = sim.instructions();
    std::ostringstream sim_os;
    sim.dumpStatsJson(sim_os);
    rec.simStats = scrubPhases(sim_os.str());
    if (csd) {
        std::ostringstream csd_os;
        const_cast<ContextSensitiveDecoder *>(csd)->stats().dumpJson(
            csd_os);
        rec.csdStats = csd_os.str();
    }
    rec.fp = sim.fastPath().counters();
    return rec;
}

void
expectIdentical(const CacheOnlyRecord &on, const CacheOnlyRecord &off)
{
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.uops, off.uops);
    EXPECT_EQ(on.instructions, off.instructions);
    EXPECT_PRED_FORMAT2(testsupport::sameDump, on.simStats, off.simStats);
    EXPECT_PRED_FORMAT2(testsupport::sameDump, on.csdStats, off.csdStats);
    // The flow-cache-off run must never have chained.
    EXPECT_EQ(off.fp.entries, 0u);
    EXPECT_EQ(off.fp.built, 0u);
}

CacheOnlyRecord
runAesNative(bool flow_cache_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x20 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setFlowCacheEnabled(flow_cache_on);

    for (int block = 0; block < 6; ++block) {
        AesReference::Block plain{};
        for (unsigned i = 0; i < 16; ++i)
            plain[i] = static_cast<std::uint8_t>(block * 16 + i);
        workload.setInput(sim.state().mem, plain);
        sim.restart();
        sim.runToHalt();
    }
    return finishRecord(sim, nullptr);
}

CacheOnlyRecord
runRsaStealth(bool flow_cache_on)
{
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setFlowCacheEnabled(flow_cache_on);

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    taint.addTaintSource(workload.exponentRange);
    msrs.setWatchdogPeriod(1000);
    msrs.setDecoyIRange(0, workload.multiplyRange);
    msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    sim.runToHalt();
    return finishRecord(sim, &csd);
}

/**
 * The adversarial case: CSD trigger state toggles between phases
 * (stealth, devectorization, timing noise), each toggle an MSR write
 * that bumps the translation epoch and stales every resident entry.
 */
CacheOnlyRecord
runTriggerToggling(bool flow_cache_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x40 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setFlowCacheEnabled(flow_cache_on);

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    taint.addTaintSource(workload.keyRange);
    msrs.setWatchdogPeriod(700);
    msrs.setDecoyDRange(0, workload.tTableRange);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    for (int block = 0; block < 12; ++block) {
        if (block % 3 == 0) {
            switch ((block / 3) % 4) {
              case 0:
                msrs.setControl(0);
                csd.setDevectorize(false);
                break;
              case 1:
                msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
                break;
              case 2:
                msrs.setControl(0);
                csd.setDevectorize(true);
                break;
              case 3:
                csd.seedNoise(0x5eed);
                msrs.setControl(ctrlTimingNoise);
                break;
            }
        }
        AesReference::Block plain{};
        for (unsigned i = 0; i < 16; ++i)
            plain[i] = static_cast<std::uint8_t>(block * 3 + i);
        workload.setInput(sim.state().mem, plain);
        sim.restart();
        sim.runToHalt();
    }
    return finishRecord(sim, &csd);
}

/** Walks that stopped for @p exit. */
std::uint64_t
stops(const FastPath::Counters &c, SbExit exit)
{
    return c.exits[static_cast<unsigned>(exit)];
}

/** Sum of the walks' stop reasons. */
std::uint64_t
allStops(const FastPath::Counters &c)
{
    std::uint64_t total = 0;
    for (unsigned i = 0; i < numSbExits; ++i)
        total += c.exits[i];
    return total;
}

TEST(Superblock, AesNativeBitIdentical)
{
    const CacheOnlyRecord on = runAesNative(true);
    const CacheOnlyRecord off = runAesNative(false);
    expectIdentical(on, off);
    EXPECT_GT(on.fp.built, 0u);
    EXPECT_GT(on.fp.entries, 0u);
    EXPECT_GT(on.fp.uopsRetired, 0u);
}

TEST(Superblock, RsaStealthBitIdentical)
{
    const CacheOnlyRecord on = runRsaStealth(true);
    const CacheOnlyRecord off = runRsaStealth(false);
    expectIdentical(on, off);
    EXPECT_GT(on.fp.entries, 0u);
    EXPECT_GT(on.fp.macrosRetired, 0u);
}

TEST(Superblock, TriggerTogglingBitIdentical)
{
    const CacheOnlyRecord on = runTriggerToggling(true);
    const CacheOnlyRecord off = runTriggerToggling(false);
    expectIdentical(on, off);
    EXPECT_GT(on.fp.entries, 0u);
    // The MSR writes at phase entry bump the epoch: walks stop at the
    // stale entries, which are re-translated, and each re-insert drops
    // the entry's own link, so no link ever leads to a stale entry.
    EXPECT_GT(stops(on.fp, SbExit::EpochBump), 0u);
    EXPECT_EQ(on.fp.invalidated, 0u);
}

// --- where a walk stops -----------------------------------------------

TEST(Superblock, BranchOutExitsBlock)
{
    // RSA's square-and-multiply loop takes real branches. A walk
    // follows a taken branch to a resident entry, so once every op is
    // cached a whole invocation is one walk that ends at the Halt; on
    // the cold first invocation, walks stop at uncached branch targets.
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);

    sim.runToHalt();
    const FastPath::Counters cold = sim.fastPath().counters();
    EXPECT_GT(stops(cold, SbExit::Branch), 0u);
    sim.restart();
    sim.runToHalt();
    const FastPath::Counters &fp = sim.fastPath().counters();
    EXPECT_EQ(fp.entries - cold.entries, 1u);
    EXPECT_EQ(stops(fp, SbExit::End) - stops(cold, SbExit::End), 1u);
    EXPECT_EQ(fp.macrosRetired - cold.macrosRetired,
              sim.instructions() / 2 - 1);
    // Every walk stops for exactly one recorded reason.
    EXPECT_EQ(allStops(fp), fp.entries);
}

TEST(Superblock, EpochBumpMidBlockFallsBack)
{
    // The stealth watchdog period (5000 cycles) outlives one AES run
    // (~3200 cycles) but not two, so retriggers fire mid-walk. A
    // retrigger refills the decoy queue without changing any stable
    // translation, so it keeps the epoch: the walk stops at the first
    // tainted op (Unstable), whose translation must be taken now, and
    // every link stays good. An MSR write does move the epoch: the
    // next walks stop at stale entries, whose re-insert under the new
    // epoch drops their links.
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x60 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    taint.addTaintSource(workload.keyRange);
    msrs.setWatchdogPeriod(5000);
    msrs.setDecoyDRange(0, workload.tTableRange);
    msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    for (int i = 0; i < 12; ++i) {
        sim.restart();
        sim.runToHalt();
    }
    const FastPath::Counters &fp = sim.fastPath().counters();
    EXPECT_GT(csd.stats().counterValue("watchdog_fires"), 1u);
    EXPECT_GT(fp.entries, 0u);
    EXPECT_GT(stops(fp, SbExit::Unstable), 0u);
    EXPECT_EQ(stops(fp, SbExit::EpochBump), 0u);
    EXPECT_EQ(fp.invalidated, 0u);
    EXPECT_EQ(sim.flowCache().invalidations, 0u);

    // A decoy-range write between two slices of a run bumps the epoch.
    const std::uint64_t epoch = csd.translationEpoch();
    sim.restart();
    sim.run(1000);
    msrs.setDecoyDRange(0, workload.tTableRange);
    EXPECT_GT(csd.translationEpoch(), epoch);
    sim.runToHalt();
    sim.restart();
    sim.runToHalt();
    EXPECT_GT(stops(fp, SbExit::EpochBump), 0u);
    EXPECT_EQ(fp.invalidated, 0u);
    EXPECT_GT(sim.flowCache().invalidations, 0u);
}

// --- stealth differential across every host-side switch ----------------

/** Everything a run publishes: stats dump, CSD tree, CPI stack. */
std::string
stealthDump(Simulation &sim, ContextSensitiveDecoder &csd)
{
    std::ostringstream os;
    sim.dumpStatsJson(os);
    std::string dump = scrubPhases(os.str());
    std::ostringstream csd_os;
    csd.stats().dumpJson(csd_os);
    dump += csd_os.str();
    if (const CpiStack *cpi = sim.cpiStack()) {
        std::ostringstream cpi_os;
        cpi->dumpJson(cpi_os);
        dump += cpi_os.str();
    }
    return dump;
}

/**
 * A 100-cycle watchdog retriggers stealth many times per invocation,
 * so memoized flows and their links live across dozens of decoy
 * bursts. Runs @p invoke with the flow cache off and on for each
 * fidelity and demands byte-identical dumps; with the cache on the
 * chain must engage, no link may go stale and the flow cache must
 * keep hitting across retriggers.
 */
template <class Setup, class Invoke>
void
expectStealthDifferential(const Program &prog, Setup setup, Invoke invoke)
{
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        std::string reference;
        for (const bool flow_cache : {false, true}) {
            SimParams params;
            params.mode = mode;
            Simulation sim(prog, params);
            sim.setFlowCacheEnabled(flow_cache);
            if (mode == SimMode::Detailed)
                sim.enableCpiStack();
            MsrFile msrs;
            TaintTracker taint;
            ContextSensitiveDecoder csd(msrs, &taint);
            msrs.setWatchdogPeriod(100);
            setup(msrs, taint);
            sim.setTaintTracker(&taint);
            sim.setCsd(&csd);
            invoke(sim);

            const std::string dump = stealthDump(sim, csd);
            EXPECT_GT(csd.stats().counterValue("watchdog_fires"), 10u);
            if (reference.empty())
                reference = dump;
            EXPECT_PRED_FORMAT2(testsupport::sameDump, dump, reference)
                << (mode == SimMode::Detailed ? "detailed" : "cache-only")
                << " flow_cache=" << flow_cache;
            if (flow_cache) {
                EXPECT_GT(sim.fastPath().counters().entries, 0u);
                EXPECT_EQ(sim.fastPath().counters().invalidated, 0u);
                EXPECT_GT(sim.flowCache().hits, 0u);
                EXPECT_EQ(sim.flowCache().invalidations, 0u);
            }
        }
    }
}

TEST(Superblock, AesWatchdog100IdenticalAcrossHostSwitches)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x31 * i + 7);
    const AesWorkload workload = AesWorkload::build(key);
    expectStealthDifferential(
        workload.program,
        [&](MsrFile &msrs, TaintTracker &taint) {
            taint.addTaintSource(workload.keyRange);
            msrs.setDecoyDRange(0, workload.tTableRange);
            msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
        },
        [&](Simulation &sim) {
            for (int block = 0; block < 4; ++block) {
                AesReference::Block plain{};
                for (unsigned i = 0; i < 16; ++i)
                    plain[i] = static_cast<std::uint8_t>(block * 5 + i);
                workload.setInput(sim.state().mem, plain);
                sim.restart();
                sim.runToHalt();
            }
        });
}

TEST(Superblock, RsaWatchdog100IdenticalAcrossHostSwitches)
{
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);
    expectStealthDifferential(
        workload.program,
        [&](MsrFile &msrs, TaintTracker &taint) {
            taint.addTaintSource(workload.exponentRange);
            msrs.setDecoyIRange(0, workload.multiplyRange);
            msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
        },
        [&](Simulation &sim) {
            for (int i = 0; i < 2; ++i) {
                sim.restart();
                sim.runToHalt();
            }
        });
}

TEST(Superblock, ExitNamesPinTheSidecarKeys)
{
    // bench_sim_throughput.cc emits one sidecar counter per stop
    // reason under "chain.exit_<name>", and the repository benchmark
    // one under "sb.exit.<name>"; both key on the exact spellings, so
    // renaming an enumerator is a breaking change this test makes
    // explicit.
    const std::array<const char *, numSbExits> names = {
        "end", "branch", "epoch_bump", "unstable", "budget"};
    for (unsigned i = 0; i < numSbExits; ++i) {
        const SbExit exit = static_cast<SbExit>(i);
        EXPECT_STREQ(sbExitName(exit), names[i]);
        const std::string key = std::string("chain.exit_") + sbExitName(exit);
        EXPECT_EQ(key, std::string("chain.exit_") + names[i]);
    }
}

TEST(Superblock, DisablingDropsCompiledBlocks)
{
    // Disabling the flow cache drops every entry, and with them every
    // link; nothing chains afterwards.
    std::array<std::uint8_t, 16> key{};
    const AesWorkload workload = AesWorkload::build(key);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);

    sim.runToHalt();
    sim.restart();
    sim.runToHalt();
    ASSERT_GT(sim.fastPath().counters().built, 0u);
    ASSERT_GT(sim.flowCache().size(), 0u);

    sim.setFlowCacheEnabled(false);
    EXPECT_EQ(sim.flowCache().size(), 0u);
    const FastPath::Counters before = sim.fastPath().counters();
    sim.restart();
    sim.runToHalt();
    EXPECT_EQ(sim.fastPath().counters().entries, before.entries);
    EXPECT_EQ(sim.fastPath().counters().macrosRetired,
              before.macrosRetired);
}

// --- detailed mode ------------------------------------------------------

/** One CSD setup step; null = native translator (no CSD attached). */
using CsdSetup = std::function<void(MsrFile &, TaintTracker &,
                                    ContextSensitiveDecoder &)>;
/** Drives a configured simulation (restart/run loops). */
using Invoke = std::function<void(Simulation &)>;

/** Host-side switches one run is taken under. */
struct HostConfig
{
    SimMode mode = SimMode::Detailed;
    bool flowCache = true;
    bool traced = false;  //!< every trace flag on, in a private context
};

/** Everything a run publishes, plus the host-side counters. */
struct FullRecord
{
    std::string dump;   //!< stats + CSD + DIFT trees, CPI stack, lifecycle
    std::string dift;   //!< the DIFT tree alone
    std::string trace;  //!< the Chrome trace export (traced runs)
    FastPath::Counters fp;
    std::uint64_t uops = 0;  //!< uopsSimulated()
    std::uint64_t fcHits = 0;
    std::uint64_t fcMisses = 0;
    std::uint64_t fcBypasses = 0;
};

/**
 * Gating parameters for short generated programs: a window and
 * watermarks small enough that the controller gates, wakes and toggles
 * devectorization within a few hundred instructions.
 */
GatingParams
shortProgramGating(GatingPolicy policy)
{
    GatingParams gating;
    gating.policy = policy;
    gating.windowInstrs = 16;
    gating.lowWatermark = 0;
    gating.highWatermark = 2;
    gating.idleGateThreshold = 1;  // clamped up to the break-even time
    return gating;
}

FullRecord
runFull(const Program &prog, const HostConfig &host, const CsdSetup &setup,
        const Invoke &invoke,
        std::optional<GatingPolicy> policy = std::nullopt)
{
    SimParams params;
    params.mode = host.mode;
    std::optional<ObservabilityContext> obs;  // outlives the simulation
    if (host.traced) {
        obs.emplace();
        obs->tracer().setCapacity(1 << 20);
        obs->tracer().configure("all");
        params.obs = &*obs;
    }
    Simulation sim(prog, params);
    sim.setFlowCacheEnabled(host.flowCache);
    if (host.mode == SimMode::Detailed) {
        sim.enableCpiStack();
        sim.enableLifecycle(1 << 12);
    }
    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    if (setup) {
        setup(msrs, taint, csd);
        sim.setTaintTracker(&taint);
        sim.setCsd(&csd);
    }
    const EnergyModel energy_model(params.energy);
    std::optional<PowerGateController> power;
    if (policy) {
        power.emplace(shortProgramGating(*policy), energy_model);
        sim.setPowerController(&*power);
    }
    invoke(sim);

    FullRecord rec;
    std::ostringstream os;
    sim.dumpStatsJson(os);
    if (power) {
        // The controller's own tree and every energy term, bit-exact.
        power->finalize(sim.cycles());
        power->stats().dumpJson(os);
        const EnergyBreakdown e = sim.energy();
        os << std::hexfloat << e.coreDynamic << ' ' << e.coreStatic << ' '
           << e.vpuDynamic << ' ' << e.vpuStatic << ' ' << e.headerStatic
           << ' ' << e.gatingOverhead << ' ' << e.frontendDynamic << '\n';
    }
    rec.dump = scrubPhases(os.str());
    std::ostringstream dift_os;
    taint.stats().dumpJson(dift_os);
    rec.dift = dift_os.str();
    if (setup) {
        std::ostringstream csd_os;
        csd.stats().dumpJson(csd_os);
        rec.dump += csd_os.str() + rec.dift;
    }
    if (const CpiStack *cpi = sim.cpiStack()) {
        std::ostringstream cpi_os;
        cpi->dumpJson(cpi_os);
        rec.dump += cpi_os.str();
    }
    if (LifecycleTracer *lc = sim.lifecycle()) {
        std::ostringstream lc_os;
        lc->exportO3PipeView(lc_os);
        rec.dump += lc_os.str();
    }
    if (obs) {
        std::ostringstream trace_os;
        obs->tracer().exportChromeTrace(trace_os);
        rec.trace = trace_os.str();
    }
    rec.fp = sim.fastPath().counters();
    rec.uops = sim.uopsSimulated();
    rec.fcHits = sim.flowCache().hits;
    rec.fcMisses = sim.flowCache().misses;
    rec.fcBypasses = sim.flowCache().bypasses;
    return rec;
}

/**
 * Detailed mode, CPI stack and lifecycle armed: the chained run must
 * publish exactly what the flow-cache-off run does, and chain.
 * Returns the chained record for scenario-specific checks.
 */
FullRecord
expectDetailedChainIdentical(const Program &prog, const CsdSetup &setup,
                             const Invoke &invoke)
{
    const FullRecord off =
        runFull(prog, {SimMode::Detailed, false}, setup, invoke);
    EXPECT_EQ(off.fp.entries, 0u);
    const FullRecord on =
        runFull(prog, {SimMode::Detailed, true}, setup, invoke);
    EXPECT_PRED_FORMAT2(testsupport::sameDump, on.dump, off.dump);
    EXPECT_GT(on.fp.entries, 0u);
    EXPECT_GT(on.fp.macrosRetired, 0u);
    return on;
}

AesWorkload
detailedAes()
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x11 * i + 3);
    return AesWorkload::build(key);
}

/** Encrypt @p blocks fresh input blocks, one whole run each. */
Invoke
aesBlocks(const AesWorkload &workload, int blocks)
{
    return [&workload, blocks](Simulation &sim) {
        for (int block = 0; block < blocks; ++block) {
            AesReference::Block plain{};
            for (unsigned i = 0; i < 16; ++i)
                plain[i] = static_cast<std::uint8_t>(block * 7 + i);
            workload.setInput(sim.state().mem, plain);
            sim.restart();
            sim.runToHalt();
        }
    };
}

TEST(SuperblockDetailed, AesBitIdenticalAcrossTierAndThreshold)
{
    const AesWorkload workload = detailedAes();
    const FullRecord on = expectDetailedChainIdentical(
        workload.program, nullptr, aesBlocks(workload, 20));
    // Straight-line AES runs almost entirely on the chain.
    EXPECT_GT(on.fp.uopsRetired, on.uops * 9 / 10);
}

TEST(SuperblockDetailed, RsaStealthWatchdog100BitIdentical)
{
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);
    expectDetailedChainIdentical(
        workload.program,
        [&](MsrFile &msrs, TaintTracker &taint, ContextSensitiveDecoder &) {
            taint.addTaintSource(workload.exponentRange);
            msrs.setWatchdogPeriod(100);
            msrs.setDecoyIRange(0, workload.multiplyRange);
            msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
        },
        [](Simulation &sim) {
            for (int i = 0; i < 2; ++i) {
                sim.restart();
                sim.runToHalt();
            }
        });
}

TEST(SuperblockDetailed, TriggerTogglingBitIdentical)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x40 + i);
    const AesWorkload workload = AesWorkload::build(key);
    MsrFile *msrs_seen = nullptr;
    ContextSensitiveDecoder *csd_seen = nullptr;
    const FullRecord on = expectDetailedChainIdentical(
        workload.program,
        [&](MsrFile &msrs, TaintTracker &taint,
            ContextSensitiveDecoder &csd) {
            taint.addTaintSource(workload.keyRange);
            msrs.setWatchdogPeriod(700);
            msrs.setDecoyDRange(0, workload.tTableRange);
            msrs_seen = &msrs;
            csd_seen = &csd;
        },
        [&](Simulation &sim) {
            // Phases: native, stealth, devectorizing, timing noise —
            // each entry an epoch bump that stales every link.
            for (int block = 0; block < 24; ++block) {
                if (block % 3 == 0) {
                    switch ((block / 3) % 4) {
                      case 0:
                        msrs_seen->setControl(0);
                        csd_seen->setDevectorize(false);
                        break;
                      case 1:
                        msrs_seen->setControl(ctrlStealthEnable |
                                              ctrlDiftTrigger);
                        break;
                      case 2:
                        msrs_seen->setControl(0);
                        csd_seen->setDevectorize(true);
                        break;
                      case 3:
                        csd_seen->seedNoise(0x5eed);
                        msrs_seen->setControl(ctrlTimingNoise);
                        break;
                    }
                }
                AesReference::Block plain{};
                for (unsigned i = 0; i < 16; ++i)
                    plain[i] = static_cast<std::uint8_t>(block * 3 + i);
                workload.setInput(sim.state().mem, plain);
                sim.restart();
                sim.runToHalt();
            }
        });
    EXPECT_GT(stops(on.fp, SbExit::EpochBump), 0u);
}

// --- resuming after a stop ---------------------------------------------------

/**
 * After a stop the loop translates only the macro the walk stopped at,
 * and a new walk goes on right after it. Once every stable op is
 * cached, an AES invocation under stealth stops only at vetoed ops
 * (Unstable: each the one bypass of its macro), at the ops whose
 * translations the cache does not keep (each a miss) and at its Halt,
 * in both fidelities, and stays bit-identical to the flow-cache-off
 * run.
 */
TEST(SuperblockResume, UnstableExitContinuesAtNextMacro)
{
    const AesWorkload workload = detailedAes();
    const CsdSetup setup = [&](MsrFile &msrs, TaintTracker &taint,
                               ContextSensitiveDecoder &) {
        taint.addTaintSource(workload.keyRange);
        msrs.setWatchdogPeriod(300);
        msrs.setDecoyDRange(0, workload.tTableRange);
        msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
    };
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        FastPath::Counters warm;
        std::uint64_t warm_bypasses = 0;
        std::uint64_t warm_misses = 0;
        const Invoke invoke = [&](Simulation &sim) {
            aesBlocks(workload, 4)(sim);  // fill the flow cache
            warm = sim.fastPath().counters();
            warm_bypasses = sim.flowCache().bypasses;
            warm_misses = sim.flowCache().misses;
            aesBlocks(workload, 2)(sim);
        };
        // The chained run goes last: the warm counters are its own.
        const FullRecord off =
            runFull(workload.program, {mode, false}, setup, invoke);
        const FullRecord on =
            runFull(workload.program, {mode, true}, setup, invoke);
        const char *label =
            mode == SimMode::Detailed ? "detailed" : "cache-only";
        EXPECT_PRED_FORMAT2(testsupport::sameDump, on.dump, off.dump)
            << label;
        const std::uint64_t vetoed = stops(on.fp, SbExit::Unstable) -
                                     stops(warm, SbExit::Unstable);
        const std::uint64_t missed = on.fcMisses - warm_misses;
        EXPECT_GT(vetoed, 0u) << label;
        EXPECT_EQ(on.fcBypasses - warm_bypasses, vetoed) << label;
        EXPECT_EQ(stops(on.fp, SbExit::End) + stops(on.fp, SbExit::Branch) -
                      stops(warm, SbExit::End) -
                      stops(warm, SbExit::Branch),
                  missed + 2)
            << label;
        EXPECT_EQ(stops(on.fp, SbExit::EpochBump), 0u) << label;
        EXPECT_EQ(on.fp.entries - warm.entries, vetoed + missed + 2)
            << label;
    }
}

/**
 * run(n) slices stop walks mid-chain (Budget); the next slice looks
 * its first macro up and chains on. The sliced run is bit-identical to
 * one uninterrupted run, and every macro still counts exactly one
 * flow-cache hit, miss or bypass.
 */
TEST(SuperblockResume, BudgetSlicesResumeTheBlock)
{
    const AesWorkload workload = detailedAes();
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        const HostConfig host{mode, true};
        const FullRecord whole =
            runFull(workload.program, host, nullptr, aesBlocks(workload, 4));
        const FullRecord sliced = runFull(
            workload.program, host, nullptr, [&](Simulation &sim) {
                for (int block = 0; block < 4; ++block) {
                    AesReference::Block plain{};
                    for (unsigned i = 0; i < 16; ++i)
                        plain[i] = static_cast<std::uint8_t>(block * 7 + i);
                    workload.setInput(sim.state().mem, plain);
                    sim.restart();
                    while (!sim.halted())
                        sim.run(37);
                }
            });
        const char *label =
            mode == SimMode::Detailed ? "detailed" : "cache-only";
        EXPECT_PRED_FORMAT2(testsupport::sameDump, sliced.dump, whole.dump)
            << label;
        EXPECT_GT(stops(sliced.fp, SbExit::Budget), 0u) << label;
        EXPECT_GT(sliced.fp.macrosRetired, 0u) << label;
        EXPECT_EQ(sliced.fcHits, whole.fcHits) << label;
        EXPECT_EQ(sliced.fcMisses, whole.fcMisses) << label;
        EXPECT_EQ(sliced.fcBypasses, whole.fcBypasses) << label;
    }
}

// --- devectorization toggles --------------------------------------------------

/**
 * A vector loop whose body is reachable from two heads: the loop head
 * falls through to `mid`, and a backward branch on every fourth count
 * enters at `mid` itself.
 */
Program
overlappingVectorLoop()
{
    ProgramBuilder b;
    b.movri(Gpr::Rcx, 64);
    auto loop = b.newLabel();
    auto mid = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.addi(Gpr::R8, 3);
    b.vecOp(MacroOpcode::Paddd, Xmm::Xmm0, Xmm::Xmm1);
    b.vecOp(MacroOpcode::Mulps, Xmm::Xmm1, Xmm::Xmm2);
    b.xor_(Gpr::R9, Gpr::R8);
    b.bind(mid);
    b.vecOp(MacroOpcode::Pxor, Xmm::Xmm2, Xmm::Xmm0);
    b.addi(Gpr::R9, 5);
    b.vecOp(MacroOpcode::Paddw, Xmm::Xmm3, Xmm::Xmm1);
    b.imul(Gpr::R8, Gpr::R9);
    b.vecOp(MacroOpcode::Addps, Xmm::Xmm0, Xmm::Xmm3);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Eq, done);
    b.testi(Gpr::Rcx, 3);
    b.jcc(Cond::Eq, mid);
    b.jmp(loop);
    b.bind(done);
    b.halt();
    return b.build();
}

/**
 * Devectorization toggles every few macros, mid-walk included: a
 * toggle bumps no epoch, so no flow-cache entry goes stale; each slot
 * keeps its native and its devectorized flow side by side, and a link
 * whose target is the other context's entry fails its check, so the
 * walk probes the entry for the live context and goes on instead of
 * stopping. Output must match the flow-cache-off reference in both
 * fidelities. An insertion that overwrote an entry a link names would
 * read freed memory here (the sanitizer build runs this).
 */
TEST(SuperblockContext, DevectTogglesKeepFlowsAndBlocks)
{
    const Program prog = overlappingVectorLoop();
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        const char *label =
            mode == SimMode::Detailed ? "detailed" : "cache-only";
        ContextSensitiveDecoder *csd_seen = nullptr;
        const CsdSetup attach = [&](MsrFile &, TaintTracker &,
                                    ContextSensitiveDecoder &csd) {
            csd_seen = &csd;
        };
        std::uint64_t fc_invalidations = ~0ull;
        std::uint64_t fc_ctx_invalidations = ~0ull;
        const Invoke toggling = [&](Simulation &sim) {
            // The first run links native-context entries.
            sim.restart();
            sim.runToHalt();
            bool on = false;
            unsigned stride = 3;
            for (int run = 0; run < 4; ++run) {
                sim.restart();
                while (!sim.halted()) {
                    csd_seen->setDevectorize(on = !on);
                    sim.run(stride);
                    stride = stride == 7 ? 3 : stride + 2;
                }
            }
            fc_invalidations = sim.flowCache().invalidations;
            fc_ctx_invalidations = sim.flowCache().ctx_invalidations;
        };
        const FullRecord ref = runFull(prog, {mode, false}, attach, toggling);
        const FullRecord chained =
            runFull(prog, {mode, true}, attach, toggling);
        EXPECT_PRED_FORMAT2(testsupport::sameDump, chained.dump, ref.dump)
            << label;
        EXPECT_EQ(fc_invalidations, 0u) << label;
        EXPECT_EQ(fc_ctx_invalidations, 0u) << label;
        EXPECT_GT(chained.fp.macrosRetired, 0u) << label;
        // Links met the other context's entries and the walk went on.
        EXPECT_GT(chained.fp.invalidated, 0u) << label;
        EXPECT_EQ(stops(chained.fp, SbExit::Unstable), 0u) << label;
        EXPECT_EQ(stops(chained.fp, SbExit::EpochBump), 0u) << label;
    }
}

// --- DIFT counters ----------------------------------------------------------

/**
 * The decoder's taint query is pure: host-side stability probes (the
 * flow cache's and the chain's) must not bump dift.tainted_loads /
 * tainted_branches, which count decode-time tainted uses only. The
 * counters therefore agree with the flow cache on and off.
 */
TEST(SuperblockDift, TaintCountersIndependentOfHostSwitches)
{
    const AesWorkload workload = detailedAes();
    const CsdSetup setup = [&](MsrFile &msrs, TaintTracker &taint,
                               ContextSensitiveDecoder &) {
        taint.addTaintSource(workload.keyRange);
        msrs.setWatchdogPeriod(100);
        msrs.setDecoyDRange(0, workload.tTableRange);
        msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
    };
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        std::string reference;
        for (const bool flow_cache : {false, true}) {
            const FullRecord rec =
                runFull(workload.program, {mode, flow_cache}, setup,
                        aesBlocks(workload, 4));
            EXPECT_EQ(rec.dift.find("\"tainted_loads\": 0,"),
                      std::string::npos)
                << rec.dift;
            if (reference.empty())
                reference = rec.dift;
            EXPECT_EQ(rec.dift, reference) << "flow_cache=" << flow_cache;
        }
    }
}

// --- tracing ---------------------------------------------------------------

/**
 * Tracing runs on the chain: every macro passes the same protocol,
 * which keeps clock-less components' events on the timeline, whether
 * it retires from a walk or from its own translation. With every trace
 * flag on, the chained run must record exactly the events the
 * flow-cache-off run does, at the same time stamps, next to identical
 * dumps: AES under a 100-cycle stealth watchdog, and the namd preset
 * under CSD-devectorization power gating, in both fidelities.
 */
TEST(SuperblockTrace, TracedTierMatchesInterpreter)
{
    const AesWorkload aes = detailedAes();
    const SpecWorkload namd = SpecWorkload::build(specPreset("namd"), 20);
    const CsdSetup stealth = [&](MsrFile &msrs, TaintTracker &taint,
                                 ContextSensitiveDecoder &) {
        taint.addTaintSource(aes.keyRange);
        msrs.setWatchdogPeriod(100);
        msrs.setDecoyDRange(0, aes.tTableRange);
        msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
    };
    const CsdSetup attach = [](MsrFile &, TaintTracker &,
                               ContextSensitiveDecoder &) {};
    const Invoke twice = [](Simulation &sim) {
        for (int i = 0; i < 2; ++i) {
            sim.restart();
            sim.runToHalt();
        }
    };
    const struct
    {
        const char *name;
        const Program &prog;
        CsdSetup setup;
        Invoke invoke;
        std::optional<GatingPolicy> policy;
    } cases[] = {
        {"aes stealth", aes.program, stealth, aesBlocks(aes, 3),
         std::nullopt},
        {"namd csd-devect", namd.program, attach, twice,
         GatingPolicy::CsdDevect},
    };
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        for (const auto &c : cases) {
            const std::string label =
                std::string(mode == SimMode::Detailed ? "detailed "
                                                      : "cache-only ") +
                c.name;
            const FullRecord off = runFull(c.prog, {mode, false, true},
                                           c.setup, c.invoke, c.policy);
            const FullRecord on = runFull(c.prog, {mode, true, true},
                                          c.setup, c.invoke, c.policy);
            EXPECT_NE(off.trace.find("\"ts\""), std::string::npos)
                << label;
            EXPECT_PRED_FORMAT2(testsupport::sameDump, on.trace, off.trace)
                << label;
            EXPECT_PRED_FORMAT2(testsupport::sameDump, on.dump, off.dump)
                << label;
            EXPECT_EQ(off.fp.entries, 0u) << label;
            EXPECT_GT(on.fp.macrosRetired, 0u) << label;
        }
    }
}

// --- micro-loops -------------------------------------------------------------

TEST(SuperblockRepStos, MicroLoopIdenticalAcrossCacheAndTier)
{
    // A rep-stos flow is a micro-loop (prologue, body x trips) that
    // the flow cache stores unrolled. One short enough to be stored is
    // retired by the walk like any other entry; one past
    // FlowCache::maxStoredUops is resolved per step on the uncached
    // path, so the walk stops at it and resumes after it. The flow
    // cache may not show in the stats dump, in either fidelity.
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 64 * 8192);
    b.markEntry();
    b.movri(Gpr::Rcx, 6);
    const ProgramBuilder::Label loop = b.newLabel();
    b.bind(loop);
    b.load(Gpr::Rax, memAbs(buf));
    b.repStos(buf + 64, 5);
    b.addi(Gpr::Rax, 1);
    b.store(memAbs(buf + 8), Gpr::Rax);
    b.repStos(buf, 4200);
    b.subi(Gpr::Rcx, 1);
    b.cmpi(Gpr::Rcx, 0);
    b.jcc(Cond::Ne, loop);
    b.halt();
    const Program prog = b.build();
    const UopFlow short_flow = translateNative(prog.code()[2]);
    const UopFlow long_flow = translateNative(prog.code()[5]);
    ASSERT_TRUE(FlowCache::admits(short_flow));
    ASSERT_FALSE(FlowCache::admits(long_flow));

    // The second run starts warm: only its first macro (looked up by
    // the loop) and the long rep-stos's six trips are not chained.
    std::uint64_t first_uops = 0;
    std::uint64_t first_chained = 0;
    const Invoke twice = [&](Simulation &sim) {
        sim.runToHalt();
        first_uops = sim.uopsSimulated();
        first_chained = sim.fastPath().counters().uopsRetired;
        sim.restart();
        sim.runToHalt();
    };
    const std::uint64_t unchained =
        translateNative(prog.code()[0]).expandedCount() +
        6 * long_flow.expandedCount();
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        const std::string label =
            mode == SimMode::Detailed ? "detailed" : "cache-only";
        const FullRecord ref = runFull(prog, {mode, false}, nullptr, twice);
        const FullRecord chained =
            runFull(prog, {mode, true}, nullptr, twice);
        EXPECT_PRED_FORMAT2(testsupport::sameDump, chained.dump, ref.dump)
            << label;
        EXPECT_EQ(chained.fcBypasses, 0u) << label;
        EXPECT_EQ(chained.fp.uopsRetired - first_chained,
                  chained.uops - first_uops - unchained)
            << label;
    }
}

// --- randomized differential ------------------------------------------------

/**
 * Generated programs (the robustness fuzzer's generator), run bare and
 * under stealth with DIFT sourcing part of the data buffer and a short
 * watchdog, in both fidelities: the chained run must match the
 * flow-cache-off reference byte for byte.
 */
class SuperblockFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /** Stealth over part of the generated program's buffer, with DIFT
     *  sourcing its first 256 bytes and a 150-cycle watchdog. */
    static CsdSetup
    stealth(const Program &prog)
    {
        const AddrRange buf = prog.symbol("buf");
        return [buf](MsrFile &msrs, TaintTracker &taint,
                     ContextSensitiveDecoder &) {
            taint.addTaintSource(AddrRange(buf.start, buf.start + 256));
            msrs.setWatchdogPeriod(150);
            msrs.setDecoyDRange(
                0, AddrRange(buf.start + 4096, buf.start + 4096 + 512));
            msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
        };
    }

    static void
    invoke(Simulation &sim)
    {
        for (int i = 0; i < 2; ++i) {
            sim.restart();
            sim.runToHalt();
        }
    }
};

TEST_P(SuperblockFuzz, TierMatchesInterpreter)
{
    Random rng(GetParam() ^ 0x5b);
    const Program prog = testsupport::randomProgram(rng, 90);
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        for (const CsdSetup &setup : {CsdSetup{}, stealth(prog)}) {
            const std::string label = std::string(mode == SimMode::Detailed
                                                      ? "detailed"
                                                      : "cache-only") +
                                      (setup ? " stealth" : " bare");
            const FullRecord ref = runFull(prog, {mode, false}, setup, invoke);
            const FullRecord chained =
                runFull(prog, {mode, true}, setup, invoke);
            EXPECT_PRED_FORMAT2(testsupport::sameDump, chained.dump,
                                ref.dump)
                << label;
            EXPECT_GT(chained.fp.macrosRetired, 0u) << label;
        }
    }
}

/**
 * The same programs, bare and under stealth, retired through run(n)
 * slices of varying n, n = 1 as step(): a slice ends mid-walk, after
 * a vetoed macro, or between two translated macros. Every sliced run
 * must publish exactly what one uninterrupted run does, with the flow
 * cache on and off.
 */
TEST_P(SuperblockFuzz, SlicedRunsMatchWholeRuns)
{
    Random rng(GetParam() ^ 0x5b);
    const Program prog = testsupport::randomProgram(rng, 90);
    const Invoke sliced = [](Simulation &sim) {
        static constexpr std::uint64_t slices[] = {1, 3, 1, 7, 2, 1, 31, 5};
        std::size_t k = 0;
        for (int i = 0; i < 2; ++i) {
            sim.restart();
            while (!sim.halted()) {
                const std::uint64_t n = slices[k++ % std::size(slices)];
                if (n == 1)
                    sim.step();
                else
                    sim.run(n);
            }
        }
    };
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        for (const CsdSetup &setup : {CsdSetup{}, stealth(prog)}) {
            const std::string label = std::string(mode == SimMode::Detailed
                                                      ? "detailed"
                                                      : "cache-only") +
                                      (setup ? " stealth" : " bare");
            const FullRecord whole =
                runFull(prog, {mode, true}, setup, invoke);
            for (const bool flow_cache : {false, true}) {
                const FullRecord rec =
                    runFull(prog, {mode, flow_cache}, setup, sliced);
                EXPECT_PRED_FORMAT2(testsupport::sameDump, rec.dump,
                                    whole.dump)
                    << label << ", flow cache " << flow_cache;
                if (flow_cache) {
                    EXPECT_GT(stops(rec.fp, SbExit::Budget), 0u) << label;
                }
            }
        }
    }
}

/**
 * The same programs under each VPU gating policy (the CSD attached for
 * CsdDevect, whose toggles move vector ops' stable context mid-walk),
 * plus conventional gating over CSD stealth so watchdog ticks meet
 * demand-wake stalls, in both fidelities: the chained run must publish
 * exactly what the flow-cache-off run does — stats, the controller's
 * tree and every energy term — which holds only if the power hook runs
 * once per macro, in order, whether the macro is chained or
 * translated.
 */
TEST_P(SuperblockFuzz, PowerGatedTierMatchesInterpreter)
{
    Random rng(GetParam() ^ 0x5b);
    const Program prog = testsupport::randomProgram(rng, 90);
    const CsdSetup attach = [](MsrFile &, TaintTracker &,
                               ContextSensitiveDecoder &) {};
    const struct
    {
        const char *name;
        GatingPolicy policy;
        CsdSetup setup;
    } variants[] = {
        {"always-on", GatingPolicy::AlwaysOn, nullptr},
        {"conv-pg", GatingPolicy::ConventionalPG, nullptr},
        {"csd-devect", GatingPolicy::CsdDevect, attach},
        {"conv-pg+stealth", GatingPolicy::ConventionalPG, stealth(prog)},
    };
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        for (const auto &v : variants) {
            const std::string label =
                std::string(mode == SimMode::Detailed ? "detailed "
                                                      : "cache-only ") +
                v.name;
            const FullRecord off =
                runFull(prog, {mode, false}, v.setup, invoke, v.policy);
            EXPECT_EQ(off.fp.entries, 0u) << label;
            const FullRecord on =
                runFull(prog, {mode, true}, v.setup, invoke, v.policy);
            EXPECT_PRED_FORMAT2(testsupport::sameDump, on.dump, off.dump)
                << label;
            EXPECT_GT(on.fp.macrosRetired, 0u) << label;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperblockFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
} // namespace csd
