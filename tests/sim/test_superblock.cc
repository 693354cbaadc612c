#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "csd/csd.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"
#include "workloads/aes.hh"
#include "workloads/rsa.hh"

namespace csd
{
namespace
{

/**
 * The superblock tier (sim/fastpath.hh) is, like the flow cache it
 * builds on, a host-side optimization: with the tier on or off the
 * simulated machine must be bit-identical — cycles, uop counts,
 * energy scalars, the whole stat tree. These tests mirror the
 * flow-cache equivalence suite in cache-only mode (the only mode the
 * tier engages in) across the paper's crypto victims and the
 * adversarial trigger-toggling program, then pin the tier's exit
 * protocol with targeted unit scenarios.
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
    EXPECT_EQ(on.simStats, off.simStats);
    EXPECT_EQ(on.csdStats, off.csdStats);
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
                EXPECT_EQ(dump, reference)
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

} // namespace
} // namespace csd
