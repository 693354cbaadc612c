#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "csd/csd.hh"
#include "sim/simulation.hh"
#include "tests/support/dump_diff.hh"
#include "uop/translate.hh"
#include "workloads/aes.hh"
#include "workloads/rsa.hh"

namespace csd
{
namespace
{

/**
 * The predecoded-flow cache (decode/flow_cache.hh) is a host-side
 * memoization: with it on or off, the *simulated* machine must be
 * bit-identical — cycles, uop-cache hit rates, CPI-stack buckets, and
 * in fact the whole stat tree (the flow-cache's own hit/miss counters
 * live outside the tree precisely so this holds). These tests run the
 * paper's crypto victims and a CSD-trigger-toggling program both ways
 * and diff everything.
 */

struct RunRecord
{
    Tick cycles = 0;
    std::uint64_t uops = 0;
    double uopCacheHitRate = 0;
    std::array<Cycles, numCpiBuckets> cpi{};
    std::string simStats;   //!< full dumpStatsJson text
    std::string csdStats;   //!< the CSD's own stat tree
    std::uint64_t fcHits = 0;
    std::uint64_t fcMisses = 0;
    std::uint64_t fcBypasses = 0;
    std::uint64_t fcInvalidations = 0;
};

void
expectIdentical(const RunRecord &on, const RunRecord &off)
{
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.uops, off.uops);
    EXPECT_DOUBLE_EQ(on.uopCacheHitRate, off.uopCacheHitRate);
    for (unsigned i = 0; i < numCpiBuckets; ++i)
        EXPECT_EQ(on.cpi[i], off.cpi[i])
            << "bucket " << cpiBucketName(static_cast<CpiBucket>(i));
    EXPECT_PRED_FORMAT2(testsupport::sameDump, on.simStats, off.simStats);
    EXPECT_PRED_FORMAT2(testsupport::sameDump, on.csdStats, off.csdStats);
    // The disabled run must have taken the uncached path throughout.
    EXPECT_EQ(off.fcHits, 0u);
    EXPECT_GT(off.fcBypasses, 0u);
}

/**
 * Blank the manifest's host wall-time phases — the one legitimately
 * nondeterministic line in a stats dump (the same subtree
 * scripts/check_sidecar_determinism.py normalizes).
 */
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

RunRecord
finishRecord(Simulation &sim, ContextSensitiveDecoder &csd)
{
    RunRecord rec;
    rec.cycles = sim.cycles();
    rec.uops = sim.uopsExecuted();
    rec.uopCacheHitRate = sim.frontend().uopCache().hitRate();
    if (const CpiStack *cpi = sim.cpiStack())
        rec.cpi = cpi->buckets();
    std::ostringstream sim_os, csd_os;
    sim.dumpStatsJson(sim_os);
    csd.stats().dumpJson(csd_os);
    rec.simStats = scrubPhases(sim_os.str());
    rec.csdStats = csd_os.str();
    rec.fcHits = sim.flowCache().hits;
    rec.fcMisses = sim.flowCache().misses;
    rec.fcBypasses = sim.flowCache().bypasses;
    rec.fcInvalidations = sim.flowCache().invalidations;
    return rec;
}

RunRecord
runAesStealth(bool cache_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x20 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mem.extraL2Latency = 4;
    Simulation sim(workload.program, params);
    sim.setFlowCacheEnabled(cache_on);
    sim.enableCpiStack();

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    taint.addTaintSource(workload.keyRange);
    // The AES victim is nearly straight-line per block (~700 PCs per
    // ~3200-cycle block), so the watchdog period must outlive a block
    // for memoized flows to be revisited before the epoch moves on.
    msrs.setWatchdogPeriod(5000);
    msrs.setDecoyDRange(0, workload.tTableRange);
    msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    for (int block = 0; block < 6; ++block) {
        AesReference::Block plain{};
        for (unsigned i = 0; i < 16; ++i)
            plain[i] = static_cast<std::uint8_t>(block * 16 + i);
        workload.setInput(sim.state().mem, plain);
        sim.restart();
        sim.runToHalt();
    }
    return finishRecord(sim, csd);
}

RunRecord
runRsaStealth(bool cache_on)
{
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);

    Simulation sim(workload.program);
    sim.setFlowCacheEnabled(cache_on);
    sim.enableCpiStack();

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
    return finishRecord(sim, csd);
}

/**
 * The adversarial case for memoization: CSD trigger state toggles
 * between (and during) invocations — stealth off/on, devectorization
 * off/on, timing noise off/on — so cached flows go stale repeatedly.
 * Every toggle is an MSR write, which bumps the translation epoch.
 */
RunRecord
runTriggerToggling(bool cache_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x40 + i);
    const AesWorkload workload = AesWorkload::build(key);

    Simulation sim(workload.program);
    sim.setFlowCacheEnabled(cache_on);
    sim.enableCpiStack();

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    taint.addTaintSource(workload.keyRange);
    msrs.setWatchdogPeriod(700);
    msrs.setDecoyDRange(0, workload.tTableRange);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    // Three blocks per phase: the MSR writes at each phase entry bump
    // the epoch (stale entries must re-translate), while the repeat
    // blocks inside a phase run with a settled epoch (entries hit).
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
    return finishRecord(sim, csd);
}

TEST(FlowCache, AesStealthBitIdentical)
{
    const RunRecord on = runAesStealth(true);
    expectIdentical(on, runAesStealth(false));
    EXPECT_GT(on.fcHits, 0u);
}

TEST(FlowCache, RsaStealthBitIdentical)
{
    const RunRecord on = runRsaStealth(true);
    expectIdentical(on, runRsaStealth(false));
    EXPECT_GT(on.fcHits, 0u);
}

TEST(FlowCache, TriggerTogglingBitIdentical)
{
    const RunRecord on = runTriggerToggling(true);
    const RunRecord off = runTriggerToggling(false);
    expectIdentical(on, off);
    // The settled blocks inside each phase replay cached flows ...
    EXPECT_GT(on.fcHits, 0u);
    // ... the MSR toggles at phase entry show up as stale lookups ...
    EXPECT_GT(on.fcInvalidations, 0u);
    // ... and timing-noise phases force the uncached path throughout.
    EXPECT_GT(on.fcBypasses, 0u);
}

TEST(FlowCache, NativeRunsAreFullyCachedAfterWarmup)
{
    std::array<std::uint8_t, 16> key{};
    const AesWorkload workload = AesWorkload::build(key);
    Simulation sim(workload.program);
    ASSERT_TRUE(sim.flowCacheEnabled());

    sim.runToHalt();
    const std::uint64_t misses_first = sim.flowCache().misses;
    EXPECT_GT(misses_first, 0u);
    EXPECT_EQ(sim.flowCache().bypasses, 0u);

    // restart() keeps the cache: the second invocation of the same
    // (static) program misses nothing.
    sim.restart();
    sim.runToHalt();
    EXPECT_EQ(sim.flowCache().misses, misses_first);
    EXPECT_GT(sim.flowCache().hits, 0u);
    EXPECT_EQ(sim.flowCache().invalidations, 0u);
}

/** insert() for unit tests that need no particular macro-op. */
const FlowCache::Entry &
insertFlow(FlowCache &cache, std::size_t slot, std::uint64_t epoch,
           unsigned ctx, UopFlow flow)
{
    static const MacroOp op;
    static const EnergyModel energy;
    return cache.insert(slot, epoch, ctx, op, std::move(flow), energy);
}

TEST(FlowCache, LookupRejectsOtherContextsEntry)
{
    // A slot keeps one entry per stable context side by side — the
    // native flow and the alternate (devectorized) one — so a
    // devectorization toggle, which bumps no epoch, reads the other
    // entry instead of overwriting the one compiled superblocks list.
    // The entry's context is still compared on lookup: an alternate-side
    // entry filled from another non-native context is rejected and
    // counted as a ctx invalidation, never served.
    FlowCache cache;
    cache.reset(4);
    UopFlow native_flow;
    native_flow.uops.push_back(Uop{});
    UopFlow devect_flow;
    devect_flow.uops.resize(3);

    const FlowCache::Entry &native =
        insertFlow(cache, /*slot=*/1, /*epoch=*/7, /*ctx=*/ctxNative,
                   native_flow);
    EXPECT_EQ(cache.lookup(1, 7, ctxNative), &native);
    EXPECT_EQ(cache.hits, 1u);

    // Same slot and epoch, devectorized context: nothing cached for it
    // yet is a plain miss, not an invalidation.
    EXPECT_EQ(cache.lookup(1, 7, ctxDevect), nullptr);
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_EQ(cache.ctx_invalidations, 0u);
    EXPECT_EQ(cache.invalidations, 0u);

    // The devectorized translation lands beside the native one: both
    // hit, and the native entry (and its flow) is untouched.
    const FlowCache::Entry &devect =
        insertFlow(cache, 1, 7, ctxDevect, devect_flow);
    EXPECT_NE(&devect, &native);
    EXPECT_EQ(cache.lookup(1, 7, ctxDevect), &devect);
    EXPECT_EQ(cache.lookup(1, 7, ctxNative), &native);
    EXPECT_EQ(native.flow.uops.size(), 1u);
    EXPECT_EQ(devect.flow.uops.size(), 3u);
    EXPECT_EQ(cache.hits, 3u);
    EXPECT_EQ(cache.size(), 2u);

    // Any other context is rejected and counted as a ctx invalidation.
    EXPECT_EQ(cache.lookup(1, 7, ctxMcu), nullptr);
    EXPECT_EQ(cache.ctx_invalidations, 1u);
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_EQ(cache.invalidations, 0u);

    // Epoch staleness still takes precedence in accounting: an entry
    // that is both stale and from another context counts as an epoch
    // invalidation (the epoch compare runs first).
    EXPECT_EQ(cache.lookup(1, 8, ctxMcu), nullptr);
    EXPECT_EQ(cache.invalidations, 1u);
    EXPECT_EQ(cache.ctx_invalidations, 1u);

    // peek() applies the same filters without touching counters.
    const std::uint64_t hits = cache.hits;
    EXPECT_EQ(cache.peek(1, 7, ctxDevect), &devect);
    EXPECT_EQ(cache.peek(1, 7, ctxNative), &native);
    EXPECT_EQ(cache.peek(1, 7, ctxMcu), nullptr);
    EXPECT_EQ(cache.peek(1, 8, ctxNative), nullptr);
    EXPECT_EQ(cache.hits, hits);

    // Re-translating for the rejected context overwrites the alternate
    // side only; the native entry survives.
    insertFlow(cache, 1, 7, ctxMcu, UopFlow{});
    EXPECT_NE(cache.lookup(1, 7, ctxMcu), nullptr);
    EXPECT_EQ(cache.lookup(1, 7, ctxDevect), nullptr);
    EXPECT_EQ(cache.ctx_invalidations, 2u);
    EXPECT_EQ(cache.lookup(1, 7, ctxNative), &native);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.peek(1, 7, ctxNative), nullptr);
    EXPECT_EQ(cache.peek(1, 7, ctxMcu), nullptr);
}

TEST(FlowCache, InsertResolvesTimingRecords)
{
    // insert() resolves the flow once into the entry's span, the form
    // the interpreter and the superblock tier both retire: one op per
    // dynamic uop in the reference executor's expansion order
    // (prologue, body x trips, epilogue), each with its uop's timing
    // record by value, its handler and its energy. A re-insertion
    // rewrites the entry in place with the span at its new exact size.
    const auto same = [](const UopTimingRec &a, const UopTimingRec &b) {
        return std::memcmp(&a, &b, sizeof(UopTimingRec)) == 0;
    };
    const EnergyModel energy;
    const MacroOp op;
    FlowCache cache;
    cache.reset(2);

    // Six uops, a micro-loop over [1, 3) run three times: it spills
    // the flow's inline storage and unrolls to ten ops.
    UopFlow flow;
    for (unsigned i = 0; i < 6; ++i) {
        Uop uop;
        uop.op = i % 2 ? MicroOpcode::Load : MicroOpcode::Add;
        uop.dst = intReg(Gpr::Rax);
        uop.src1 = RegId(RegClass::Int, static_cast<std::uint8_t>(
                                            numGprs + i % numIntTemps));
        uop.eliminated = i == 5;
        uop.uopIdx = static_cast<std::uint8_t>(i);
        flow.uops.push_back(uop);
    }
    flow.loop = MicroLoop{1, 3, 3};
    const std::vector<std::size_t> order = {0, 1, 2, 1, 2, 1, 2, 3, 4, 5};

    // Every stored op is its uop's, in expansion order, with nothing
    // left over from an earlier translation of the slot.
    const auto expect_span = [&](const FlowCache::Entry &entry,
                                 const std::vector<std::size_t> &uops) {
        ASSERT_EQ(entry.ops.size(), uops.size());
        EXPECT_EQ(entry.ops.capacity(), uops.size());
        EXPECT_EQ(entry.macro.ops, entry.ops.data());
        EXPECT_EQ(entry.macro.dynCount, uops.size());
        EXPECT_EQ(entry.macro.flow, &entry.flow);
        for (std::size_t k = 0; k < uops.size(); ++k) {
            const Uop &uop = entry.flow.uops[uops[k]];
            const SbOp &stored = entry.ops[k];
            EXPECT_EQ(stored.uop, &uop) << "op " << k;
            EXPECT_TRUE(same(stored.timing, timingRecordFor(uop)))
                << "op " << k;
            EXPECT_EQ(stored.handler, sbHandlerFor(uop.op)) << "op " << k;
            EXPECT_EQ(stored.energy, energy.uopEnergy(uop)) << "op " << k;
        }
    };

    const FlowCache::Entry &entry =
        cache.insert(0, 3, ctxNative, op, flow, energy);
    expect_span(entry, order);
    for (const SbOp &stored : entry.ops)
        EXPECT_TRUE(stored.timing.has(UopTimingRec::devectExpansion));
    EXPECT_EQ(entry.ops[1].timing.mem, UopMemKind::Load);
    EXPECT_FALSE(entry.ops.back().counted());
    EXPECT_EQ(entry.macro.delivered, order.size() - 1);

    UopFlow shorter;
    shorter.uops.push_back(flow.uops[1]);
    const FlowCache::Entry &again =
        cache.insert(0, 4, ctxNative, op, shorter, energy);
    EXPECT_EQ(&again, &entry);
    expect_span(again, {0});

    cache.insert(0, 5, ctxNative, op, flow, energy);
    expect_span(again, order);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.peek(0, 5, ctxNative), nullptr);
}

TEST(FlowCache, LongExpansionsAreNotStored)
{
    // A span holds one op per dynamic uop, and a rep-stos trip count
    // is a program immediate: a flow whose expansion exceeds
    // maxStoredUops is not admitted, so the uncached path resolves it
    // per step and nothing of it stays resident.
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 64 * 8192);
    b.markEntry();
    b.repStos(buf, 16);
    b.repStos(buf, 8192);
    b.halt();
    const Program prog = b.build();
    UopFlow fits = translateNative(prog.code()[0]);
    UopFlow spills = translateNative(prog.code()[1]);
    ASSERT_LE(fits.expandedCount(), FlowCache::maxStoredUops);
    ASSERT_GT(spills.expandedCount(), FlowCache::maxStoredUops);
    EXPECT_TRUE(FlowCache::admits(fits));
    EXPECT_FALSE(FlowCache::admits(spills));
    fits.cacheable = false;
    EXPECT_FALSE(FlowCache::admits(fits));

    Simulation sim(prog);
    sim.runToHalt();
    sim.restart();
    sim.runToHalt();
    const FlowCache &fc = sim.flowCache();
    EXPECT_NE(fc.peek(0, 0, ctxNative), nullptr);
    EXPECT_EQ(fc.peek(1, 0, ctxNative), nullptr);
    EXPECT_EQ(fc.size(), 2u);  // the short rep-stos and the halt
    EXPECT_EQ(fc.misses, 4u);  // all three, then the long one again
    EXPECT_EQ(fc.hits, 2u);
    EXPECT_EQ(sim.uopsSimulated(), 2 * (1 + 2 * 16 + 1 + 2 * 8192 + 1));
}

TEST(FlowCache, EntryReferencesStableUntilClear)
{
    // Compiled superblocks list cached entries' macros, so no entry may
    // move between reset() and clear(): not when the first non-native
    // insert allocates the alternate side, and not when a slot is
    // re-translated with a flow that spills its inline storage.
    FlowCache cache;
    cache.reset(64);
    UopFlow one;
    one.uops.push_back(Uop{});
    UopFlow many;
    many.uops.resize(9);

    std::vector<const FlowCache::Entry *> native;
    for (std::size_t slot = 0; slot < 64; ++slot)
        native.push_back(&insertFlow(cache, slot, 1, ctxNative, one));
    const FlowCache::Entry *devect =
        &insertFlow(cache, 5, 1, ctxDevect, many);
    for (std::size_t slot = 0; slot < 64; slot += 7) {
        const FlowCache::Entry *entry =
            &insertFlow(cache, slot, 2, ctxDevect, one);
        EXPECT_EQ(cache.peek(slot, 2, ctxDevect), entry);
    }
    for (std::size_t slot = 0; slot < 64; ++slot) {
        EXPECT_EQ(&insertFlow(cache, slot, 2, ctxNative, many),
                  native[slot]);
        EXPECT_EQ(native[slot]->flow.uops.size(), 9u);
        EXPECT_EQ(cache.lookup(slot, 2, ctxNative), native[slot]);
    }
    EXPECT_EQ(&insertFlow(cache, 5, 3, ctxDevect, one), devect);
    EXPECT_EQ(cache.lookup(5, 3, ctxDevect), devect);
    EXPECT_EQ(devect->flow.uops.size(), 1u);
    EXPECT_EQ(cache.size(), 64u + 11u);  // alternates: slot 5 and 0, 7, .., 63

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    for (std::size_t slot = 0; slot < 64; ++slot)
        EXPECT_EQ(cache.peek(slot, 2, ctxNative), nullptr);
}

TEST(FlowCache, ClearOfNeverFilledCache)
{
    // With no live entry clear() only resets the per-slot flags: a
    // lookup's recentAlternate goes, the heat stays, and no counter
    // moves.
    FlowCache cache;
    cache.reset(8);
    EXPECT_EQ(cache.bumpHeat(3), 1u);
    EXPECT_EQ(cache.bumpHeat(3), 2u);
    EXPECT_EQ(cache.lookup(3, 1, ctxDevect), nullptr);
    EXPECT_EQ(cache.lookup(6, 1, ctxNative), nullptr);
    EXPECT_TRUE(cache.recentAlternate(3));
    EXPECT_FALSE(cache.recentAlternate(6));
    EXPECT_EQ(cache.misses, 2u);
    EXPECT_EQ(cache.size(), 0u);

    cache.clear();
    for (std::size_t slot = 0; slot < cache.slots(); ++slot)
        EXPECT_FALSE(cache.recentAlternate(slot)) << "slot " << slot;
    EXPECT_EQ(cache.bumpHeat(3), 3u);
    EXPECT_EQ(cache.slots(), 8u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits, 0u);
    EXPECT_EQ(cache.misses, 2u);
    EXPECT_EQ(cache.invalidations, 0u);
    EXPECT_EQ(cache.ctx_invalidations, 0u);
    EXPECT_EQ(cache.bypasses, 0u);
    EXPECT_EQ(cache.peekRecent(3, 1), nullptr);
}

TEST(FlowCache, ClearKeepsHeatAndCounters)
{
    // The full clear() (live entries on both sides) drops every flow
    // but keeps each slot's heat and the host-side counters, and
    // resets recentAlternate like the empty one.
    FlowCache cache;
    cache.reset(4);
    UopFlow flow;
    flow.uops.push_back(Uop{});
    cache.bumpHeat(2);
    insertFlow(cache, 2, 1, ctxNative, flow);
    insertFlow(cache, 2, 1, ctxDevect, flow);
    EXPECT_TRUE(cache.recentAlternate(2));
    EXPECT_NE(cache.lookup(2, 1, ctxDevect), nullptr);
    EXPECT_EQ(cache.lookup(1, 1, ctxNative), nullptr);
    EXPECT_EQ(cache.lookup(2, 2, ctxNative), nullptr);
    EXPECT_EQ(cache.lookup(2, 1, ctxMcu), nullptr);
    const std::uint64_t hits = cache.hits;
    const std::uint64_t misses = cache.misses;
    const std::uint64_t invalidations = cache.invalidations;
    const std::uint64_t ctx_invalidations = cache.ctx_invalidations;

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.recentAlternate(2));
    EXPECT_EQ(cache.peekRecent(2, 1), nullptr);
    EXPECT_EQ(cache.bumpHeat(2), 2u);
    EXPECT_EQ(cache.hits, hits);
    EXPECT_EQ(cache.misses, misses);
    EXPECT_EQ(cache.invalidations, invalidations);
    EXPECT_EQ(cache.ctx_invalidations, ctx_invalidations);

    // After a full clear the alternate side is gone: a devectorized
    // lookup is a plain miss until the next non-native insert.
    EXPECT_EQ(cache.lookup(2, 1, ctxDevect), nullptr);
    EXPECT_EQ(cache.misses, misses + 1);
}

TEST(FlowCache, DevectorizationTogglesUseCtxPath)
{
    // End-to-end: toggling selective devectorization swaps the stable
    // context of vector ops (ctxNative <-> ctxDevect) without bumping
    // the epoch, so each context reads its own entry of the slot. The
    // equivalence guarantee (stats identical, cache on or off) must
    // hold across the ctx swap.
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x11 * (i & 3) + i);
    const AesWorkload workload = AesWorkload::build(key);

    auto run = [&](bool cache_on) {
        Simulation sim(workload.program);
        sim.setFlowCacheEnabled(cache_on);
        sim.enableCpiStack();
        MsrFile msrs;
        ContextSensitiveDecoder csd(msrs, nullptr);
        sim.setCsd(&csd);
        // Pairs of runs per setting: a context's entries fill on the
        // first run it translates under.
        for (int block = 0; block < 8; ++block) {
            csd.setDevectorize((block / 2) % 2 == 1);
            sim.restart();
            sim.runToHalt();
        }
        return finishRecord(sim, csd);
    };

    const RunRecord on = run(true);
    const RunRecord off = run(false);
    expectIdentical(on, off);
    EXPECT_GT(on.fcHits, 0u);
}

TEST(FlowCache, DisablingClearsAndBypasses)
{
    std::array<std::uint8_t, 16> key{};
    const AesWorkload workload = AesWorkload::build(key);
    Simulation sim(workload.program);
    sim.runToHalt();
    EXPECT_GT(sim.flowCache().size(), 0u);

    sim.setFlowCacheEnabled(false);
    EXPECT_EQ(sim.flowCache().size(), 0u);
    sim.restart();
    sim.runToHalt();
    EXPECT_GT(sim.flowCache().bypasses, 0u);
    EXPECT_EQ(sim.flowCache().size(), 0u);
}

} // namespace
} // namespace csd
