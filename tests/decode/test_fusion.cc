#include <gtest/gtest.h>

#include "decode/fusion.hh"
#include "isa/program.hh"
#include "uop/translate.hh"

namespace csd
{
namespace
{

TEST(Fusion, CmpJccMacroFuse)
{
    ProgramBuilder b;
    auto label = b.newLabel();
    b.bind(label);
    b.cmpi(Gpr::Rax, 0);
    b.jcc(Cond::Ne, label);
    b.nop();
    b.jcc(Cond::Eq, label);  // not adjacent to a cmp
    Program prog = b.build();

    EXPECT_TRUE(macroFusesWithPrev(prog.code()[0], prog.code()[1]));
    EXPECT_FALSE(macroFusesWithPrev(prog.code()[2], prog.code()[3]));
    // Reverse order never fuses.
    EXPECT_FALSE(macroFusesWithPrev(prog.code()[1], prog.code()[0]));
}

TEST(Fusion, TestAndAluFormsFuse)
{
    ProgramBuilder b;
    auto label = b.newLabel();
    b.bind(label);
    b.testi(Gpr::Rax, 1);
    b.jcc(Cond::Eq, label);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, label);
    Program prog = b.build();
    EXPECT_TRUE(macroFusesWithPrev(prog.code()[0], prog.code()[1]));
    EXPECT_TRUE(macroFusesWithPrev(prog.code()[2], prog.code()[3]));
}

TEST(Fusion, MovDoesNotFuse)
{
    ProgramBuilder b;
    auto label = b.newLabel();
    b.bind(label);
    b.movri(Gpr::Rax, 1);
    b.jcc(Cond::Eq, label);
    Program prog = b.build();
    EXPECT_FALSE(macroFusesWithPrev(prog.code()[0], prog.code()[1]));
}

TEST(Fusion, MicroFusionDisableClearsMarks)
{
    ProgramBuilder b;
    b.aluMem(MacroOpcode::AddM, Gpr::Rax, memAt(Gpr::Rbx));
    UopFlow flow = translateNative(b.build().code()[0]);
    ASSERT_EQ(flow.fusedSlotCount(), 1u);

    FrontEndParams no_fusion;
    no_fusion.microFusion = false;
    applyFusionConfig(flow, no_fusion);
    EXPECT_EQ(flow.fusedSlotCount(), 2u);
    EXPECT_EQ(deliveredSlots(flow), 2u);
}

TEST(Fusion, SpTrackerEliminatesRspUpdates)
{
    ProgramBuilder b;
    b.push(Gpr::Rax);
    UopFlow flow = translateNative(b.build().code()[0]);
    FrontEndParams params;
    const unsigned eliminated = applySpTracking(flow, params);
    EXPECT_EQ(eliminated, 1u);
    EXPECT_EQ(deliveredSlots(flow), 1u);   // only the store remains
    EXPECT_EQ(deliveredUops(flow), 1u);
    // The rsp update still exists for functional execution.
    EXPECT_EQ(flow.uops.size(), 2u);
    EXPECT_TRUE(flow.uops[0].eliminated);
}

TEST(Fusion, SpTrackerRespectsDisable)
{
    ProgramBuilder b;
    b.pop(Gpr::Rax);
    UopFlow flow = translateNative(b.build().code()[0]);
    FrontEndParams params;
    params.spTracker = false;
    EXPECT_EQ(applySpTracking(flow, params), 0u);
    EXPECT_EQ(deliveredSlots(flow), 2u);
}

TEST(Fusion, SpTrackerLeavesExplicitRspMathAlone)
{
    // `sub rsp, 32` as an explicit instruction writes flags, which the
    // tracker must not eliminate.
    ProgramBuilder b;
    b.subi(Gpr::Rsp, 32);
    UopFlow flow = translateNative(b.build().code()[0]);
    FrontEndParams params;
    EXPECT_EQ(applySpTracking(flow, params), 0u);
}

TEST(Fusion, DeliveredSlotsExpandsMicroLoops)
{
    ProgramBuilder b;
    b.repStos(0x8000, 5);
    UopFlow flow = translateNative(b.build().code()[0]);
    // 1 prologue + 2-uop body; 5 trips -> 1 + 2*5 slots.
    EXPECT_EQ(deliveredSlots(flow), 11u);
    EXPECT_EQ(deliveredUops(flow), 11u);
}

TEST(Fusion, ZeroTripLoopDeliversOnlyPrologue)
{
    ProgramBuilder b;
    b.repStos(0x8000, 0);
    UopFlow flow = translateNative(b.build().code()[0]);
    EXPECT_EQ(deliveredSlots(flow), 1u);
}

TEST(Fusion, UopCacheEligibility)
{
    FrontEndParams params;
    ProgramBuilder b;
    b.add(Gpr::Rax, Gpr::Rbx);
    b.cpuid();
    b.repStos(0x8000, 4);
    Program prog = b.build();
    UopFlow simple = translateNative(prog.code()[0]);
    UopFlow msrom = translateNative(prog.code()[1]);
    UopFlow looped = translateNative(prog.code()[2]);
    EXPECT_TRUE(uopCacheEligible(simple, params, deliveredSlots(simple)));
    EXPECT_FALSE(uopCacheEligible(msrom, params, deliveredSlots(msrom)));
    EXPECT_FALSE(uopCacheEligible(looped, params, deliveredSlots(looped)));
}

} // namespace
} // namespace csd
