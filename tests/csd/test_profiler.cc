#include <gtest/gtest.h>

#include <sstream>

#include "csd/csd.hh"
#include "csd/profiler.hh"
#include "isa/program.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"

namespace csd
{
namespace
{

Program
mixedProgram()
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 64);
    auto loop = b.newLabel();
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    b.movri(Gpr::Rcx, 10);
    b.bind(loop);
    b.load(Gpr::Rax, memAt(Gpr::Rbx));      // 10 loads
    b.store(memAt(Gpr::Rbx, 8), Gpr::Rax);  // 10 stores
    b.vecOp(MacroOpcode::Pxor, Xmm::Xmm0, Xmm::Xmm0);  // 10 vector
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, loop);                  // 10 branches
    b.halt();
    return b.build();
}

TEST(Profiler, CountsEventsWithoutAlteringFlows)
{
    NativeTranslator native;
    DecoderProfiler profiler(native);
    Program prog = mixedProgram();

    // Flows must be byte-identical to the native translation.
    for (const MacroOp &op : prog.code()) {
        const UopFlow a = profiler.translate(op);
        const UopFlow b = translateNative(op);
        ASSERT_EQ(a.uops.size(), b.uops.size());
        for (std::size_t i = 0; i < a.uops.size(); ++i)
            EXPECT_EQ(a.uops[i].op, b.uops[i].op);
    }
}

TEST(Profiler, EndToEndCountsMatchExecution)
{
    NativeTranslator native;
    DecoderProfiler profiler(native);
    Program prog = mixedProgram();
    Simulation sim(prog);
    sim.setTranslator(&profiler);
    sim.runToHalt();

    EXPECT_EQ(profiler.count(ProfileEvent::Instructions),
              sim.instructions());
    EXPECT_EQ(profiler.count(ProfileEvent::Loads), 10u);
    EXPECT_EQ(profiler.count(ProfileEvent::Stores), 10u);
    EXPECT_EQ(profiler.count(ProfileEvent::VectorOps), 10u);
    EXPECT_EQ(profiler.count(ProfileEvent::Branches), 10u);
}

TEST(Profiler, WrappedRunStaysOnTheInterpreter)
{
    // The retire routine chains resident entries for the native
    // translator and the CSD only: a profiler-wrapped run retires one
    // translated macro per call, flow cache on or off, and counts the
    // same either way; the bare native translator on the same program
    // chains, and the simulation cannot tell the two apart.
    const Program prog = mixedProgram();
    struct Outcome
    {
        std::vector<std::uint64_t> counts;
        std::string stats;
        FastPath::Counters chain;
    };
    const auto run = [&](bool flow_cache, bool wrapped) {
        NativeTranslator native;
        DecoderProfiler profiler(native);
        Simulation sim(prog);
        sim.setFlowCacheEnabled(flow_cache);
        if (wrapped)
            sim.setTranslator(&profiler);
        for (int i = 0; i < 3; ++i) {
            sim.restart();
            sim.runToHalt();
        }
        Outcome out;
        for (unsigned e = 0;
             e < static_cast<unsigned>(ProfileEvent::NumEvents); ++e)
            out.counts.push_back(
                profiler.count(static_cast<ProfileEvent>(e)));
        std::ostringstream os;
        sim.stats().dumpJson(os);
        out.stats = os.str();
        out.chain = sim.fastPath().counters();
        return out;
    };
    const Outcome on = run(true, true);
    const Outcome off = run(false, true);
    const Outcome bare = run(true, false);
    EXPECT_EQ(on.chain.entries, 0u);
    EXPECT_EQ(on.counts, off.counts);
    EXPECT_EQ(on.stats, off.stats);
    EXPECT_GT(on.counts.front(), 0u);
    EXPECT_GT(bare.chain.macrosRetired, 0u);
    EXPECT_EQ(bare.stats, on.stats);
}

TEST(Profiler, HotnessProfileFindsTheLoop)
{
    NativeTranslator native;
    DecoderProfiler profiler(native);
    Program prog = mixedProgram();
    Simulation sim(prog);
    sim.setTranslator(&profiler);
    sim.runToHalt();

    const auto hottest = profiler.hottest(3);
    ASSERT_GE(hottest.size(), 3u);
    // The loop body executes 10x; prologue PCs execute once.
    EXPECT_EQ(hottest[0].second, 10u);
    const AddrRange code = prog.codeRange();
    EXPECT_TRUE(code.contains(hottest[0].first));
}

TEST(Profiler, ToggleStopsCounting)
{
    NativeTranslator native;
    DecoderProfiler profiler(native);
    MacroOp nop;
    nop.opcode = MacroOpcode::Nop;
    nop.pc = 0x100;
    nop.length = 1;
    profiler.translate(nop);
    profiler.setEnabled(false);
    profiler.translate(nop);
    profiler.translate(nop);
    EXPECT_EQ(profiler.count(ProfileEvent::Instructions), 1u);
}

TEST(Profiler, ResetClearsEverything)
{
    NativeTranslator native;
    DecoderProfiler profiler(native);
    MacroOp nop;
    nop.opcode = MacroOpcode::Nop;
    nop.pc = 0x100;
    nop.length = 1;
    profiler.translate(nop);
    profiler.reset();
    EXPECT_EQ(profiler.count(ProfileEvent::Instructions), 0u);
    EXPECT_TRUE(profiler.pcProfile().empty());
}

TEST(Profiler, ComposesWithCsd)
{
    // The profiler can wrap the full context-sensitive decoder and
    // observes the custom translations' context ids transparently.
    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    DecoderProfiler profiler(csd);

    MacroOp vec;
    vec.opcode = MacroOpcode::Paddd;
    vec.xdst = Xmm::Xmm0;
    vec.xsrc = Xmm::Xmm1;
    vec.pc = 0x3000;
    vec.length = 4;

    csd.setDevectorize(true);
    const UopFlow flow = profiler.translate(vec);
    EXPECT_FALSE(flow.usesVpu());
    EXPECT_EQ(profiler.contextId(), ctxDevect);
    EXPECT_GT(profiler.count(ProfileEvent::Uops), 10u);
}

TEST(Profiler, ForwardsFlowCacheProtocolOfWrappedCsd)
{
    // Regression: the profiler did not forward stableContext(), so the
    // flow cache expected ctxNative for every op; a wrapped CSD that
    // devectorizes fills vector slots under ctxDevect, and every
    // lookup of those slots was rejected as a ctx invalidation.
    const Program prog = mixedProgram();
    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    csd.setDevectorize(true);
    DecoderProfiler profiler(csd);
    EXPECT_EQ(profiler.stableContext(prog.code()[4]), ctxDevect);

    Simulation sim(prog);
    sim.setTranslator(&profiler);
    for (int i = 0; i < 3; ++i) {
        sim.restart();
        sim.runToHalt();
    }
    EXPECT_EQ(sim.flowCache().ctx_invalidations, 0u);
    EXPECT_EQ(sim.flowCache().invalidations, 0u);
    EXPECT_GT(sim.flowCache().hits, 0u);
    EXPECT_EQ(profiler.count(ProfileEvent::Instructions),
              sim.instructions());

    // The manifest reports the wrapped decoder's epoch, stealth
    // retriggers included.
    msrs.setDecoyDRange(0, AddrRange(0x1000, 0x1040));
    msrs.setControl(ctrlStealthEnable);
    EXPECT_GT(csd.reportedEpoch(), csd.translationEpoch());
    EXPECT_EQ(profiler.reportedEpoch(), csd.reportedEpoch());
    EXPECT_EQ(profiler.translationEpoch(), csd.translationEpoch());
}

} // namespace
} // namespace csd
