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
 * The superblock tier (sim/fastpath.hh) is, like the flow cache it
 * builds on, a host-side optimization: with the tier on or off the
 * simulated machine must be bit-identical — cycles, uop counts,
 * energy scalars, the whole stat tree. These tests mirror the
 * flow-cache equivalence suite in both fidelities across the paper's
 * crypto victims and the adversarial trigger-toggling program (in
 * detailed mode with the CPI stack and lifecycle tracer armed), pin
 * the tier's exit and resume protocol with targeted unit scenarios,
 * and run a randomized differential over generated programs.
 */

struct CacheOnlyRecord
{
    Tick cycles = 0;
    std::uint64_t uops = 0;
    std::uint64_t instructions = 0;
    std::string simStats;  //!< full dumpStatsJson text (phases scrubbed)
    std::string csdStats;  //!< the CSD's own stat tree (when attached)
    FastPath::Counters fp; //!< host-side tier counters
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
    // The tier-off run must never have entered a superblock.
    EXPECT_EQ(off.fp.entries, 0u);
    EXPECT_EQ(off.fp.built, 0u);
}

CacheOnlyRecord
runAesNative(bool tier_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x20 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockEnabled(tier_on);
    sim.setSuperblockThreshold(2);

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
runRsaStealth(bool tier_on)
{
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockEnabled(tier_on);
    sim.setSuperblockThreshold(2);

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
 * that bumps the translation epoch and must drop compiled blocks.
 */
CacheOnlyRecord
runTriggerToggling(bool tier_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x40 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockEnabled(tier_on);
    sim.setSuperblockThreshold(2);

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
}

TEST(Superblock, TriggerTogglingBitIdentical)
{
    const CacheOnlyRecord on = runTriggerToggling(true);
    const CacheOnlyRecord off = runTriggerToggling(false);
    expectIdentical(on, off);
    EXPECT_GT(on.fp.entries, 0u);
    // The MSR writes at phase entry bump the epoch; blocks compiled in
    // the previous phase must be dropped at their next entry attempt.
    EXPECT_GT(on.fp.invalidated, 0u);
}

// --- exit-protocol unit scenarios --------------------------------------

TEST(Superblock, ThresholdNotReachedNeverCompiles)
{
    std::array<std::uint8_t, 16> key{};
    const AesWorkload workload = AesWorkload::build(key);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockThreshold(100000);

    sim.runToHalt();
    sim.restart();
    sim.runToHalt();
    EXPECT_EQ(sim.fastPath().counters().built, 0u);
    EXPECT_EQ(sim.fastPath().counters().entries, 0u);
}

TEST(Superblock, BranchOutExitsBlock)
{
    // RSA's square-and-multiply loop takes real branches: a compiled
    // straight-line region is left by a taken branch mid-stream (the
    // loop back-edge), never by running past it into wrong code.
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockThreshold(1);

    for (int i = 0; i < 2; ++i) {
        sim.restart();
        sim.runToHalt();
    }
    const FastPath::Counters &fp = sim.fastPath().counters();
    EXPECT_GT(fp.entries, 0u);
    EXPECT_GT(fp.exits[static_cast<unsigned>(SbExit::Branch)], 0u);
    // The sum over all exit reasons must equal the number of entries:
    // every entered block leaves through exactly one recorded reason.
    std::uint64_t total = 0;
    for (unsigned i = 0; i < numSbExits; ++i)
        total += fp.exits[i];
    EXPECT_EQ(total, fp.entries);
}

TEST(Superblock, EpochBumpMidBlockFallsBack)
{
    // The stealth watchdog period (5000 cycles) outlives one AES run
    // (~3200 cycles) but not two: blocks compile between retriggers,
    // and then a retrigger fires mid-execution. A retrigger refills the
    // decoy queue without changing any stable translation, so it keeps
    // the epoch: the first tainted op surfaces as an Unstable exit and
    // the compiled blocks stay valid. An MSR write does move the epoch,
    // and the blocks compiled before it are dropped at their next entry.
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x60 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockThreshold(1);

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
    EXPECT_GT(fp.exits[static_cast<unsigned>(SbExit::Unstable)], 0u);
    EXPECT_EQ(fp.exits[static_cast<unsigned>(SbExit::EpochBump)], 0u);
    EXPECT_EQ(fp.invalidated, 0u);
    EXPECT_EQ(sim.flowCache().invalidations, 0u);

    // A decoy-range write halfway through a run bumps the epoch.
    const std::uint64_t epoch = csd.translationEpoch();
    sim.restart();
    sim.run(1000);
    msrs.setDecoyDRange(0, workload.tTableRange);
    EXPECT_GT(csd.translationEpoch(), epoch);
    sim.runToHalt();
    sim.restart();
    sim.runToHalt();
    EXPECT_GT(fp.invalidated, 0u);
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
 * so memoized flows and compiled blocks live across dozens of decoy
 * bursts. Runs @p invoke under every flow-cache x tier setting for
 * each fidelity and demands byte-identical dumps; in cache-only mode
 * with both on the tier must engage and the flow cache must keep
 * hitting across retriggers.
 */
template <class Setup, class Invoke>
void
expectStealthDifferential(const Program &prog, Setup setup, Invoke invoke)
{
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        std::string reference;
        for (const bool flow_cache : {false, true}) {
            for (const bool tier : {false, true}) {
                SimParams params;
                params.mode = mode;
                Simulation sim(prog, params);
                sim.setFlowCacheEnabled(flow_cache);
                sim.setSuperblockEnabled(tier);
                sim.setSuperblockThreshold(2);
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
                    << " flow_cache=" << flow_cache << " tier=" << tier;
                if (mode == SimMode::CacheOnly && flow_cache && tier) {
                    EXPECT_GT(sim.fastPath().counters().entries, 0u);
                    EXPECT_EQ(sim.fastPath().counters().invalidated, 0u);
                }
                if (flow_cache) {
                    EXPECT_GT(sim.flowCache().hits, 0u);
                    EXPECT_EQ(sim.flowCache().invalidations, 0u);
                }
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
    // bench_sim_throughput.cc emits one sidecar counter per exit
    // reason under "superblock.exit_<name>"; dashboards key on the
    // exact spellings, so renaming an enumerator is a breaking change
    // this test makes explicit.
    const std::array<const char *, numSbExits> names = {
        "end", "branch", "epoch_bump", "unstable", "budget"};
    for (unsigned i = 0; i < numSbExits; ++i) {
        const SbExit exit = static_cast<SbExit>(i);
        EXPECT_STREQ(sbExitName(exit), names[i]);
        const std::string key =
            std::string("superblock.exit_") + sbExitName(exit);
        EXPECT_EQ(key, std::string("superblock.exit_") + names[i]);
    }
}

TEST(Superblock, ExitMetaContractInvariants)
{
    // The contract the tier-equivalence prover enforces per block
    // (verify/tier_equiv.hh): every exit flushes a clean whole-macro
    // prefix; only End is not a mid-block exit; the exits taken under
    // changed translation state (epoch bump, instability) hand control
    // back to the interpreter instead of chaining into another block.
    for (unsigned i = 0; i < numSbExits; ++i) {
        const SbExit exit = static_cast<SbExit>(i);
        const SbExitMeta meta = sbExitMeta(exit);
        EXPECT_TRUE(meta.flushesPrefix) << sbExitName(exit);
        EXPECT_EQ(meta.midBlock, exit != SbExit::End) << sbExitName(exit);
    }
    EXPECT_TRUE(sbExitMeta(SbExit::EpochBump).resumesInterpreter);
    EXPECT_TRUE(sbExitMeta(SbExit::Unstable).resumesInterpreter);
    EXPECT_TRUE(sbExitMeta(SbExit::Budget).resumesInterpreter);
    EXPECT_FALSE(sbExitMeta(SbExit::Branch).resumesInterpreter);
    EXPECT_FALSE(sbExitMeta(SbExit::End).resumesInterpreter);
    // Re-entry points: k+1 once the interpreter retired the vetoed
    // macro k, k itself after a budget slice, never after an epoch
    // bump (the block's translations are stale).
    EXPECT_TRUE(sbExitMeta(SbExit::Unstable).reentersBlock);
    EXPECT_EQ(sbExitMeta(SbExit::Unstable).interpreterMacros, 1u);
    EXPECT_TRUE(sbExitMeta(SbExit::Budget).reentersBlock);
    EXPECT_EQ(sbExitMeta(SbExit::Budget).interpreterMacros, 0u);
    EXPECT_FALSE(sbExitMeta(SbExit::EpochBump).reentersBlock);
    EXPECT_FALSE(sbExitMeta(SbExit::Branch).reentersBlock);
    EXPECT_FALSE(sbExitMeta(SbExit::End).reentersBlock);
}

TEST(Superblock, DisablingDropsCompiledBlocks)
{
    std::array<std::uint8_t, 16> key{};
    const AesWorkload workload = AesWorkload::build(key);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockThreshold(1);

    // Two runs: the first fills the flow cache (a build at the entry
    // head can only stitch already-cached flows), the second compiles.
    sim.restart();
    sim.runToHalt();
    sim.restart();
    sim.runToHalt();
    ASSERT_GT(sim.fastPath().counters().built, 0u);
    ASSERT_GT(sim.fastPath().cache().size(), 0u);

    sim.setSuperblockEnabled(false);
    EXPECT_EQ(sim.fastPath().cache().size(), 0u);
    const std::uint64_t entries_before = sim.fastPath().counters().entries;
    sim.restart();
    sim.runToHalt();
    EXPECT_EQ(sim.fastPath().counters().entries, entries_before);
}

// --- detailed mode on the superblock stream ------------------------------

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
    bool tier = true;
    std::uint32_t threshold = 16;
    bool traced = false;  //!< every trace flag on, in a private context
};

/** Everything a run publishes, plus the host-side tier counters. */
struct FullRecord
{
    std::string dump;   //!< stats + CSD + DIFT trees, CPI stack, lifecycle
    std::string dift;   //!< the DIFT tree alone
    std::string trace;  //!< the Chrome trace export (traced runs)
    FastPath::Counters fp;
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
    sim.setSuperblockEnabled(host.tier);
    sim.setSuperblockThreshold(host.threshold);
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
    return rec;
}

/**
 * Detailed mode, CPI stack and lifecycle armed: the tier at threshold
 * 1 and 16 must publish exactly what the interpreter does, and at
 * threshold 1 it must engage. Returns the threshold-1 record for
 * scenario-specific checks.
 */
FullRecord
expectDetailedTierIdentical(const Program &prog, const CsdSetup &setup,
                            const Invoke &invoke)
{
    const FullRecord off =
        runFull(prog, {SimMode::Detailed, true, false, 16}, setup, invoke);
    EXPECT_EQ(off.fp.entries, 0u);
    FullRecord engaged;
    for (const std::uint32_t threshold : {1u, 16u}) {
        const FullRecord on = runFull(
            prog, {SimMode::Detailed, true, true, threshold}, setup, invoke);
        EXPECT_PRED_FORMAT2(testsupport::sameDump, on.dump, off.dump)
            << "threshold " << threshold;
        if (threshold == 1) {
            EXPECT_GT(on.fp.entries, 0u);
            engaged = on;
        }
    }
    return engaged;
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
    const FullRecord on = expectDetailedTierIdentical(
        workload.program, nullptr, aesBlocks(workload, 20));
    // Straight-line AES runs almost entirely on the stream.
    EXPECT_GT(on.fp.uopsRetired, 10 * on.fp.blockUops);
}

TEST(SuperblockDetailed, RsaStealthWatchdog100BitIdentical)
{
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);
    expectDetailedTierIdentical(
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
    const FullRecord on = expectDetailedTierIdentical(
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
            // each entry an epoch bump that must drop compiled blocks.
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
    EXPECT_GT(on.fp.invalidated, 0u);
}

// --- resume protocol --------------------------------------------------------

/**
 * After an Unstable exit the interpreter retires only the vetoed macro
 * and the tier continues the same block at the next one: once the
 * blocks are compiled, every vetoed op of an AES invocation (none of
 * which ends its block here) is followed by a resume, in both
 * fidelities, and the invocation stays bit-identical to the
 * interpreter's.
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
    const auto unstable = [](const FastPath::Counters &c) {
        return c.exits[static_cast<unsigned>(SbExit::Unstable)];
    };
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        FastPath::Counters warm;
        const Invoke invoke = [&](Simulation &sim) {
            aesBlocks(workload, 4)(sim);  // fill the flow cache, compile
            warm = sim.fastPath().counters();
            aesBlocks(workload, 2)(sim);
        };
        const FullRecord on =
            runFull(workload.program, {mode, true, true, 1}, setup, invoke);
        const FullRecord off =
            runFull(workload.program, {mode, true, false, 1}, setup, invoke);
        const char *label =
            mode == SimMode::Detailed ? "detailed" : "cache-only";
        EXPECT_PRED_FORMAT2(testsupport::sameDump, on.dump, off.dump)
            << label;
        const std::uint64_t vetoed = unstable(on.fp) - unstable(warm);
        EXPECT_GT(vetoed, 0u) << label;
        EXPECT_EQ(on.fp.resumes - warm.resumes, vetoed) << label;
    }
}

/**
 * run(n) slices end in Budget exits mid-block; the next slice resumes
 * the block where the last one stopped instead of compiling an
 * overlapping block at the slice boundary, and the sliced run is
 * bit-identical to one uninterrupted run.
 */
TEST(SuperblockResume, BudgetSlicesResumeTheBlock)
{
    const AesWorkload workload = detailedAes();
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        const HostConfig host{mode, true, true, 1};
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
        EXPECT_GT(sliced.fp.exits[static_cast<unsigned>(SbExit::Budget)],
                  0u)
            << label;
        EXPECT_GT(sliced.fp.resumes, 0u) << label;
        EXPECT_EQ(sliced.fp.built, whole.fp.built) << label;
        EXPECT_EQ(sliced.fp.macrosRetired, whole.fp.macrosRetired) << label;
    }
}

// --- devectorization toggles --------------------------------------------------

/**
 * A vector loop whose body is reachable from two heads, so the tier
 * compiles overlapping blocks over the same flow-cache entries: the
 * loop head's block runs through `mid`, and a backward branch on every
 * fourth count enters a second block at `mid` itself.
 */
Program
overlappingVectorLoop(Addr &loop_pc, Addr &mid_pc)
{
    ProgramBuilder b;
    b.movri(Gpr::Rcx, 64);
    auto loop = b.newLabel();
    auto mid = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    loop_pc = b.here();
    b.addi(Gpr::R8, 3);
    b.vecOp(MacroOpcode::Paddd, Xmm::Xmm0, Xmm::Xmm1);
    b.vecOp(MacroOpcode::Mulps, Xmm::Xmm1, Xmm::Xmm2);
    b.xor_(Gpr::R9, Gpr::R8);
    b.bind(mid);
    mid_pc = b.here();
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
 * Devectorization toggles every few macros, mid-block included, under
 * live overlapping blocks: a toggle bumps no epoch, so no flow-cache
 * entry or block goes stale; each slot keeps its native and its
 * devectorized flow side by side, and the context guard hands a vector
 * macro compiled under the other context to the interpreter. Output
 * must match the interpreter and the flow-cache-off reference in both
 * fidelities. An insertion that overwrote a flow live blocks point
 * into would read freed memory here (the sanitizer build runs this).
 */
TEST(SuperblockContext, DevectTogglesKeepFlowsAndBlocks)
{
    Addr loop_pc = 0;
    Addr mid_pc = 0;
    const Program prog = overlappingVectorLoop(loop_pc, mid_pc);
    const auto slot = [&](Addr pc) {
        return static_cast<std::size_t>(prog.at(pc) - prog.code().data());
    };
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
        bool overlapping = false;
        const Invoke toggling = [&](Simulation &sim) {
            // The first run compiles native-context blocks: the loop
            // head's, through `mid`, before `mid` is first branched to.
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
            const SuperblockCache &blocks = sim.fastPath().cache();
            const Superblock *outer = blocks.at(slot(loop_pc));
            const Superblock *inner = blocks.at(slot(mid_pc));
            if (outer && inner) {
                for (const SbMacro *m : outer->macros)
                    overlapping = overlapping || m->op->pc == mid_pc;
            }
        };
        const FullRecord ref =
            runFull(prog, {mode, false, false, 1}, attach, toggling);
        const FullRecord interp =
            runFull(prog, {mode, true, false, 1}, attach, toggling);
        EXPECT_PRED_FORMAT2(testsupport::sameDump, interp.dump, ref.dump)
            << label;
        EXPECT_EQ(fc_invalidations, 0u) << label;
        const FullRecord tier =
            runFull(prog, {mode, true, true, 1}, attach, toggling);
        EXPECT_PRED_FORMAT2(testsupport::sameDump, tier.dump, ref.dump)
            << label;
        EXPECT_EQ(fc_invalidations, 0u) << label;
        EXPECT_EQ(fc_ctx_invalidations, 0u) << label;
        EXPECT_EQ(tier.fp.invalidated, 0u) << label;
        EXPECT_TRUE(overlapping) << label;
        EXPECT_GT(tier.fp.macrosRetired, 0u) << label;
        // The context guard handed vector macros back.
        EXPECT_GT(tier.fp.exits[static_cast<unsigned>(SbExit::Unstable)],
                  0u)
            << label;
        EXPECT_EQ(tier.fp.exits[static_cast<unsigned>(SbExit::EpochBump)],
                  0u)
            << label;
    }
}

// --- DIFT counters ----------------------------------------------------------

/**
 * The decoder's taint query is pure: host-side stability probes (flow
 * cache, superblock guards) must not bump dift.tainted_loads /
 * tainted_branches, which count decode-time tainted uses only. The
 * counters therefore agree across flow cache on/off x tier on/off.
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
            for (const bool tier : {false, true}) {
                const FullRecord rec = runFull(
                    workload.program, {mode, flow_cache, tier, 2}, setup,
                    aesBlocks(workload, 4));
                EXPECT_EQ(rec.dift.find("\"tainted_loads\": 0,"),
                          std::string::npos)
                    << rec.dift;
                if (reference.empty())
                    reference = rec.dift;
                EXPECT_EQ(rec.dift, reference)
                    << "flow_cache=" << flow_cache << " tier=" << tier;
            }
        }
    }
}

// --- tracing ---------------------------------------------------------------

/**
 * Tracing runs on the tier: every macro passes the same protocol,
 * which keeps clock-less components' events on the timeline, whichever
 * stream it retires from. With every trace flag on, the tier
 * (threshold 1) must engage and record exactly the events the
 * interpreter does, at the same time stamps, next to identical dumps:
 * AES under a 100-cycle stealth watchdog, and the namd preset under
 * CSD-devectorization power gating, in both fidelities.
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
            const FullRecord off =
                runFull(c.prog, {mode, true, false, 1, true}, c.setup,
                        c.invoke, c.policy);
            const FullRecord on =
                runFull(c.prog, {mode, true, true, 1, true}, c.setup,
                        c.invoke, c.policy);
            EXPECT_NE(off.trace.find("\"ts\""), std::string::npos)
                << label;
            EXPECT_PRED_FORMAT2(testsupport::sameDump, on.trace, off.trace)
                << label;
            EXPECT_PRED_FORMAT2(testsupport::sameDump, on.dump, off.dump)
                << label;
            EXPECT_EQ(off.fp.entries, 0u) << label;
            EXPECT_GT(on.fp.entries, 0u) << label;
        }
    }
}

// --- micro-loops -------------------------------------------------------------

TEST(SuperblockRepStos, MicroLoopIdenticalAcrossCacheAndTier)
{
    // A rep-stos flow is a micro-loop (prologue, body x trips) that
    // the flow cache stores unrolled. One short enough to be stored
    // joins the block around it; one past FlowCache::maxStoredUops is
    // resolved per step on the uncached path and ends the region.
    // Neither the flow cache nor the tier may show in the stats dump,
    // in either fidelity.
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
    ASSERT_TRUE(FlowCache::admits(translateNative(prog.code()[2])));
    ASSERT_FALSE(FlowCache::admits(translateNative(prog.code()[5])));

    const Invoke twice = [](Simulation &sim) {
        for (int run = 0; run < 2; ++run) {
            sim.restart();
            sim.runToHalt();
        }
    };
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        const std::string label =
            mode == SimMode::Detailed ? "detailed" : "cache-only";
        const FullRecord ref =
            runFull(prog, {mode, false, false, 1}, nullptr, twice);
        const FullRecord cached =
            runFull(prog, {mode, true, false, 1}, nullptr, twice);
        const FullRecord tier =
            runFull(prog, {mode, true, true, 1}, nullptr, twice);
        EXPECT_PRED_FORMAT2(testsupport::sameDump, cached.dump, ref.dump)
            << label;
        EXPECT_PRED_FORMAT2(testsupport::sameDump, tier.dump, ref.dump)
            << label;
        // The short rep-stos retires from a block: its span is among
        // the compiled ones.
        EXPECT_GT(tier.fp.entries, 0u) << label;
        EXPECT_GE(tier.fp.blockUops, 1u + 2u * 5u) << label;
    }
}

// --- randomized differential ------------------------------------------------

/**
 * Generated programs (the robustness fuzzer's generator), run bare and
 * under stealth with DIFT sourcing part of the data buffer and a short
 * watchdog, in both fidelities: the tier (threshold 1) and the
 * interpreter must both match the flow-cache-off reference byte for
 * byte.
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
            const FullRecord ref =
                runFull(prog, {mode, false, false, 1}, setup, invoke);
            const FullRecord interp =
                runFull(prog, {mode, true, false, 1}, setup, invoke);
            const std::string label = std::string(mode == SimMode::Detailed
                                                      ? "detailed"
                                                      : "cache-only") +
                                      (setup ? " stealth" : " bare");
            EXPECT_PRED_FORMAT2(testsupport::sameDump, interp.dump, ref.dump)
                << label;
            for (const std::uint32_t threshold : {1u, 16u}) {
                const FullRecord tier = runFull(
                    prog, {mode, true, true, threshold}, setup, invoke);
                EXPECT_PRED_FORMAT2(testsupport::sameDump, tier.dump,
                                    ref.dump)
                    << label << ", threshold " << threshold;
                if (threshold == 1) {
                    EXPECT_GT(tier.fp.entries, 0u) << label;
                }
            }
        }
    }
}

/**
 * The same programs, bare and under stealth, retired through run(n)
 * slices of varying n, n = 1 as step(): a slice ends mid-block (the
 * next one resumes at the cursor), after a vetoed macro, or anywhere
 * on the interpreter. Every sliced run must publish exactly what one
 * uninterrupted run does, tier on at thresholds 1 and 16 and off.
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
                runFull(prog, {mode, true, false, 1}, setup, invoke);
            for (const HostConfig &host :
                 {HostConfig{mode, true, false, 1},
                  HostConfig{mode, true, true, 1},
                  HostConfig{mode, true, true, 16}}) {
                const FullRecord rec = runFull(prog, host, setup, sliced);
                EXPECT_PRED_FORMAT2(testsupport::sameDump, rec.dump,
                                    whole.dump)
                    << label << ", tier " << host.tier << ", threshold "
                    << host.threshold;
                if (host.tier && host.threshold == 1) {
                    EXPECT_GT(rec.fp.entries, 0u) << label;
                }
            }
        }
    }
}

/**
 * The same programs under each VPU gating policy (the CSD attached for
 * CsdDevect, whose toggles move vector ops' stable context mid-block),
 * plus conventional gating over CSD stealth so watchdog ticks meet
 * demand-wake stalls, in both fidelities: the tier at thresholds 1 and
 * 16 must publish exactly what the interpreter does — stats, the
 * controller's tree and every energy term — which holds only if the
 * power hook runs once per macro, in order, whichever driver retires
 * it.
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
            const FullRecord off = runFull(prog, {mode, true, false, 1},
                                           v.setup, invoke, v.policy);
            EXPECT_EQ(off.fp.entries, 0u) << label;
            for (const std::uint32_t threshold : {1u, 16u}) {
                const FullRecord on =
                    runFull(prog, {mode, true, true, threshold}, v.setup,
                            invoke, v.policy);
                EXPECT_PRED_FORMAT2(testsupport::sameDump, on.dump, off.dump)
                    << label << ", threshold " << threshold;
                if (threshold == 1) {
                    EXPECT_GT(on.fp.entries, 0u) << label;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperblockFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
} // namespace csd
