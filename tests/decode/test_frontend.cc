#include <gtest/gtest.h>

#include "decode/frontend.hh"
#include "isa/program.hh"
#include "uop/translate.hh"

namespace csd
{
namespace
{

/** Feed a straight-line program through the front end once. */
Tick
feedProgram(FrontEnd &fe, const Program &prog, unsigned ctx = 0)
{
    Tick last = 0;
    for (const MacroOp &op : prog.code()) {
        if (op.opcode == MacroOpcode::Halt)
            break;
        const UopFlow flow = translateNative(op);
        fe.beginMacroOp(op, flow, deliveredSlots(flow), ctx, false,
                        op.nextPc());
        for (std::uint64_t s = 0; s < deliveredSlots(flow); ++s)
            last = fe.nextSlotCycle();
    }
    return last;
}

Program
straightLine(unsigned count)
{
    ProgramBuilder b;
    for (unsigned i = 0; i < count; ++i)
        b.add(Gpr::Rax, Gpr::Rbx);
    b.halt();
    return b.build();
}

TEST(FrontEnd, LegacyDecodeRespectsWidth)
{
    FrontEndParams params;
    params.uopCacheEnabled = false;
    params.lsdEnabled = false;
    FrontEnd fe(params);
    // 40 single-uop instructions at 4/cycle (3-byte adds also cap at
    // 16 bytes -> 5/cycle; width of 4 binds first).
    const Tick last = feedProgram(fe, straightLine(40));
    EXPECT_GE(last, 40u / 4 - 1);
    EXPECT_EQ(fe.slotsFrom(DeliverySource::Legacy), 40u);
}

TEST(FrontEnd, UopCacheHitsOnSecondPass)
{
    FrontEndParams params;
    params.lsdEnabled = false;
    FrontEnd fe(params);
    Program prog = straightLine(16);
    feedProgram(fe, prog);
    EXPECT_EQ(fe.slotsFrom(DeliverySource::UopCache), 0u);
    fe.redirect(fe.cycle() + 10);
    feedProgram(fe, prog);
    // Second pass streams from the micro-op cache.
    EXPECT_GT(fe.slotsFrom(DeliverySource::UopCache), 0u);
}

TEST(FrontEnd, UopCacheStreamsFasterThanLegacy)
{
    Program prog = straightLine(60);

    FrontEndParams params;
    params.lsdEnabled = false;
    FrontEnd fe(params);
    feedProgram(fe, prog);
    fe.redirect(fe.cycle() + 100);
    const Tick start2 = fe.cycle();
    const Tick end2 = feedProgram(fe, prog);
    const Tick cached_time = end2 - start2;

    FrontEndParams no_cache = params;
    no_cache.uopCacheEnabled = false;
    FrontEnd fe2(no_cache);
    feedProgram(fe2, prog);
    fe2.redirect(fe2.cycle() + 100);
    const Tick start3 = fe2.cycle();
    const Tick end3 = feedProgram(fe2, prog);
    const Tick legacy_time = end3 - start3;

    EXPECT_LT(cached_time, legacy_time);
}

TEST(FrontEnd, ContextSwitchMissesWithoutRefill)
{
    FrontEndParams params;
    params.lsdEnabled = false;
    FrontEnd fe(params);
    Program prog = straightLine(16);
    feedProgram(fe, prog, 0);
    fe.redirect(fe.cycle() + 10);
    // Same code under a different translation context: cold again.
    const auto cached_before = fe.slotsFrom(DeliverySource::UopCache);
    feedProgram(fe, prog, 1);
    EXPECT_EQ(fe.slotsFrom(DeliverySource::UopCache), cached_before);
    // And both contexts can co-reside afterwards.
    fe.redirect(fe.cycle() + 10);
    feedProgram(fe, prog, 0);
    EXPECT_GT(fe.slotsFrom(DeliverySource::UopCache), cached_before);
}

TEST(FrontEnd, MsromFlowsUseMsromSource)
{
    FrontEndParams params;
    params.uopCacheEnabled = false;
    FrontEnd fe(params);
    ProgramBuilder b;
    b.cpuid();
    b.halt();
    feedProgram(fe, b.build());
    EXPECT_GT(fe.slotsFrom(DeliverySource::Msrom), 0u);
}

TEST(FrontEnd, FetchMissesStallWithMemory)
{
    MemHierarchy mem;
    FrontEndParams params;
    params.uopCacheEnabled = false;
    FrontEnd fe(params, &mem);
    Program prog = straightLine(8);
    const Tick cold_end = feedProgram(fe, prog);

    MemHierarchy mem2;
    // Pre-warm the second hierarchy's caches.
    for (Addr a = prog.codeRange().start; a < prog.codeRange().end;
         a += cacheBlockSize)
        mem2.fetchInstr(a);
    FrontEnd fe2(params, &mem2);
    const Tick warm_end = feedProgram(fe2, prog);
    EXPECT_LT(warm_end, cold_end);
}

TEST(FrontEnd, ComplexDecoderSerializesMultiUopFlows)
{
    FrontEndParams params;
    params.uopCacheEnabled = false;
    params.lsdEnabled = false;
    FrontEnd fe(params);
    // Multi-uop instructions need the single complex decoder: one per
    // cycle, so 10 pushes take >= ~10 cycles even at width 4.
    ProgramBuilder b;
    params.spTracker = false;
    for (int i = 0; i < 10; ++i)
        b.push(Gpr::Rax);
    b.halt();
    const Tick last = feedProgram(fe, b.build());
    EXPECT_GE(last, 9u);
}

TEST(FrontEnd, RedirectMovesTimeForward)
{
    FrontEnd fe{FrontEndParams{}};
    Program prog = straightLine(4);
    feedProgram(fe, prog);
    const Tick before = fe.cycle();
    fe.redirect(before + 50);
    EXPECT_EQ(fe.cycle(), before + 50);
    // Redirect backwards is ignored.
    fe.redirect(before);
    EXPECT_EQ(fe.cycle(), before + 50);
}

TEST(FrontEnd, LsdTakesOverSmallLoops)
{
    FrontEndParams params;
    FrontEnd fe(params);
    // Simulate a tiny loop executed many times.
    ProgramBuilder b;
    auto top = b.newLabel();
    b.bind(top);
    b.addi(Gpr::Rax, 1);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, top);
    Program prog = b.build();

    for (int iter = 0; iter < 50; ++iter) {
        for (const MacroOp &op : prog.code()) {
            const UopFlow flow = translateNative(op);
            const bool taken = op.opcode == MacroOpcode::Jcc;
            fe.beginMacroOp(op, flow, deliveredSlots(flow), 0, taken,
                            taken ? op.target : op.nextPc());
            for (std::uint64_t s = 0; s < deliveredSlots(flow); ++s)
                fe.nextSlotCycle();
        }
    }
    EXPECT_GT(fe.slotsFrom(DeliverySource::Lsd), 0u);
}

TEST(FrontEnd, L1iStallHistogramUnderStatsDetail)
{
    setStatsDetail(true);
    MemHierarchy mem;
    FrontEndParams params;
    params.uopCacheEnabled = false;
    params.lsdEnabled = false;
    FrontEnd fe(params, &mem);
    feedProgram(fe, straightLine(64));
    setStatsDetail(false);

    // Every compulsory L1I miss contributed one histogram sample, and
    // the samples reconstruct the cumulative stall counter exactly.
    const Distribution &hist = fe.l1iStallHistogram();
    EXPECT_GT(hist.count(), 0u);
    EXPECT_EQ(static_cast<std::uint64_t>(hist.sum()),
              fe.fetchStallCycles());
    EXPECT_GT(fe.fetchStallCycles(), 0u);
}

TEST(FrontEnd, L1iStallHistogramOffByDefault)
{
    setStatsDetail(false);
    MemHierarchy mem;
    FrontEndParams params;
    params.uopCacheEnabled = false;
    FrontEnd fe(params, &mem);
    feedProgram(fe, straightLine(64));

    // The cheap counter still accumulates; the histogram stays empty.
    EXPECT_GT(fe.fetchStallCycles(), 0u);
    EXPECT_EQ(fe.l1iStallHistogram().count(), 0u);
}

} // namespace
} // namespace csd
