#include <gtest/gtest.h>

#include "isa/program.hh"
#include "uop/translate.hh"

namespace csd
{
namespace
{

MacroOp
firstOpOf(void (*emit)(ProgramBuilder &))
{
    ProgramBuilder builder;
    emit(builder);
    return builder.build().code()[0];
}

TEST(Translate, SimpleOpsAreSingleUop)
{
    auto op = firstOpOf([](ProgramBuilder &b) { b.movri(Gpr::Rax, 5); });
    const UopFlow flow = translateNative(op);
    ASSERT_EQ(flow.uops.size(), 1u);
    EXPECT_EQ(flow.uops[0].op, MicroOpcode::LoadImm);
    EXPECT_FALSE(flow.fromMsrom);
    EXPECT_EQ(nativeUopCount(op.opcode), 1u);
}

TEST(Translate, LoadOpFormsAreMicroFusedPairs)
{
    auto op = firstOpOf([](ProgramBuilder &b) {
        b.aluMem(MacroOpcode::AddM, Gpr::Rax, memAt(Gpr::Rbx, 16));
    });
    const UopFlow flow = translateNative(op);
    ASSERT_EQ(flow.uops.size(), 2u);
    EXPECT_EQ(flow.uops[0].op, MicroOpcode::Load);
    EXPECT_TRUE(flow.uops[0].fusedLeader);
    EXPECT_EQ(flow.uops[1].op, MicroOpcode::Add);
    EXPECT_TRUE(flow.uops[1].fusedFollower);
    // The pair takes a single fused-domain slot.
    EXPECT_EQ(flow.fusedSlotCount(), 1u);
    // The load writes a decoder temp, the ALU reads it.
    EXPECT_TRUE(flow.uops[0].dst.isIntTemp());
    EXPECT_EQ(flow.uops[1].src2, flow.uops[0].dst);
}

TEST(Translate, PushIsSpUpdatePlusStore)
{
    auto op = firstOpOf([](ProgramBuilder &b) { b.push(Gpr::Rbx); });
    const UopFlow flow = translateNative(op);
    ASSERT_EQ(flow.uops.size(), 2u);
    EXPECT_EQ(flow.uops[0].op, MicroOpcode::Sub);
    EXPECT_EQ(flow.uops[1].op, MicroOpcode::Store);
}

TEST(Translate, CallEmitsReturnAddressPushAndBranch)
{
    ProgramBuilder builder;
    auto fn = builder.newLabel();
    builder.call(fn);
    builder.bind(fn);
    builder.ret();
    Program prog = builder.build();

    const UopFlow call_flow = translateNative(prog.code()[0]);
    ASSERT_EQ(call_flow.uops.size(), 3u);
    EXPECT_EQ(call_flow.uops[1].op, MicroOpcode::StoreImm);
    EXPECT_EQ(static_cast<Addr>(call_flow.uops[1].imm),
              prog.code()[0].nextPc());
    EXPECT_EQ(call_flow.uops[2].op, MicroOpcode::Br);

    const UopFlow ret_flow = translateNative(prog.code()[1]);
    ASSERT_EQ(ret_flow.uops.size(), 3u);
    EXPECT_EQ(ret_flow.uops[0].op, MicroOpcode::Load);
    EXPECT_EQ(ret_flow.uops[2].op, MicroOpcode::BrInd);
}

TEST(Translate, JccCarriesCondAndTarget)
{
    ProgramBuilder builder;
    auto label = builder.newLabel();
    builder.bind(label);
    builder.nop();
    builder.jcc(Cond::Ult, label);
    Program prog = builder.build();
    const UopFlow flow = translateNative(prog.code()[1]);
    ASSERT_EQ(flow.uops.size(), 1u);
    EXPECT_EQ(flow.uops[0].cond, Cond::Ult);
    EXPECT_EQ(flow.uops[0].target, prog.code()[0].pc);
    EXPECT_TRUE(flow.uops[0].readsFlags);
}

TEST(Translate, VectorLaneWidths)
{
    const struct
    {
        MacroOpcode op;
        MicroOpcode uop;
        unsigned lane;
    } cases[] = {
        {MacroOpcode::Paddb, MicroOpcode::VAdd, 1},
        {MacroOpcode::Paddw, MicroOpcode::VAdd, 2},
        {MacroOpcode::Paddd, MicroOpcode::VAdd, 4},
        {MacroOpcode::Paddq, MicroOpcode::VAdd, 8},
        {MacroOpcode::Pmullw, MicroOpcode::VMulLo16, 2},
        {MacroOpcode::Pxor, MicroOpcode::VXor, 8},
    };
    for (const auto &c : cases) {
        ProgramBuilder builder;
        builder.vecOp(c.op, Xmm::Xmm1, Xmm::Xmm2);
        const UopFlow flow = translateNative(builder.build().code()[0]);
        ASSERT_EQ(flow.uops.size(), 1u) << mnemonic(c.op);
        EXPECT_EQ(flow.uops[0].op, c.uop) << mnemonic(c.op);
        EXPECT_EQ(flow.uops[0].lane, c.lane) << mnemonic(c.op);
        EXPECT_TRUE(onVpu(flow.uops[0]));
    }
}

TEST(Translate, CpuidIsMicrosequenced)
{
    auto op = firstOpOf([](ProgramBuilder &b) { b.cpuid(); });
    const UopFlow flow = translateNative(op);
    EXPECT_TRUE(flow.fromMsrom);
    EXPECT_GT(flow.uops.size(), 4u);
    EXPECT_TRUE(nativelyMicrosequenced(MacroOpcode::Cpuid));
}

TEST(Translate, RepStosHasMicroLoop)
{
    auto op = firstOpOf([](ProgramBuilder &b) { b.repStos(0x5000, 10); });
    const UopFlow flow = translateNative(op);
    ASSERT_TRUE(flow.loop.has_value());
    EXPECT_EQ(flow.loop->tripCount, 10u);
    EXPECT_TRUE(flow.fromMsrom);
    // 1 prologue + 2-uop body * 10 trips
    EXPECT_EQ(flow.expandedCount(), 1u + 2u * 10u);
}

TEST(Translate, ZeroTripRepStosExpandsPrologueOnly)
{
    // A zero-trip micro-loop runs its body no times, as the reference
    // executor and the flow cache's resolved span expand it.
    auto op = firstOpOf([](ProgramBuilder &b) { b.repStos(0x5000, 0); });
    const UopFlow flow = translateNative(op);
    ASSERT_TRUE(flow.loop.has_value());
    EXPECT_EQ(flow.loop->tripCount, 0u);
    const std::uint64_t body = flow.loop->bodyEnd - flow.loop->bodyStart;
    EXPECT_EQ(body, 2u);
    EXPECT_EQ(flow.expandedCount(), flow.uops.size() - body);
    EXPECT_EQ(flow.expandedCount(), 1u);
}

TEST(Translate, ExpandedCountWithoutLoopEqualsSize)
{
    auto op = firstOpOf([](ProgramBuilder &b) { b.push(Gpr::Rax); });
    const UopFlow flow = translateNative(op);
    EXPECT_EQ(flow.expandedCount(), flow.uops.size());
}

TEST(Translate, EveryOpcodeCountMatchesTranslation)
{
    // nativeUopCount must agree with the actual translation for the
    // decoder-steering logic to be consistent.
    ProgramBuilder builder;
    auto label = builder.newLabel();
    builder.bind(label);
    builder.movri(Gpr::Rax, 1);
    builder.movrr(Gpr::Rbx, Gpr::Rax);
    builder.load(Gpr::Rcx, memAt(Gpr::Rbx));
    builder.store(memAt(Gpr::Rbx), Gpr::Rcx);
    builder.storeImm(memAt(Gpr::Rbx), 4);
    builder.lea(Gpr::Rdx, memIdx(Gpr::Rbx, Gpr::Rcx, 2, 8));
    builder.push(Gpr::Rax);
    builder.pop(Gpr::Rax);
    builder.add(Gpr::Rax, Gpr::Rbx);
    builder.addi(Gpr::Rax, 3);
    builder.aluMem(MacroOpcode::XorM, Gpr::Rax, memAt(Gpr::Rbx));
    builder.jcc(Cond::Eq, label);
    builder.jmp(label);
    builder.call(label);
    builder.ret();
    builder.cpuid();
    builder.vecOp(MacroOpcode::Paddd, Xmm::Xmm0, Xmm::Xmm1);
    builder.halt();
    Program prog = builder.build();
    for (const MacroOp &op : prog.code()) {
        const UopFlow flow = translateNative(op);
        EXPECT_EQ(flow.uops.size(), nativeUopCount(op.opcode))
            << disassemble(op);
        EXPECT_EQ(flow.fromMsrom, nativelyMicrosequenced(op.opcode) ||
                                      flow.uops.size() > 4)
            << disassemble(op);
    }
}

TEST(Translate, UopsInheritMacroPc)
{
    ProgramBuilder builder(0x7000);
    builder.push(Gpr::Rax);
    const MacroOp op = builder.build().code()[0];
    const UopFlow flow = translateNative(op);
    for (const Uop &uop : flow.uops)
        EXPECT_EQ(uop.macroPc, 0x7000u);
}

} // namespace
} // namespace csd
