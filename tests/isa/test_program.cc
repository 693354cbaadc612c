#include <gtest/gtest.h>

#include <stdexcept>

#include "isa/program.hh"

namespace csd
{
namespace
{

TEST(ProgramBuilder, AssignsSequentialPcs)
{
    ProgramBuilder builder(0x400000);
    builder.movri(Gpr::Rax, 1);
    builder.movri(Gpr::Rbx, 2);
    builder.halt();
    Program prog = builder.build();
    ASSERT_EQ(prog.size(), 3u);
    EXPECT_EQ(prog.code()[0].pc, 0x400000u);
    EXPECT_EQ(prog.code()[1].pc,
              prog.code()[0].pc + prog.code()[0].length);
    EXPECT_EQ(prog.entry(), 0x400000u);
}

TEST(ProgramBuilder, ResolvesForwardAndBackwardLabels)
{
    ProgramBuilder builder;
    auto top = builder.newLabel();
    auto done = builder.newLabel();
    builder.movri(Gpr::Rcx, 3);
    builder.bind(top);
    builder.subi(Gpr::Rcx, 1);
    builder.jcc(Cond::Eq, done);   // forward
    builder.jmp(top);              // backward
    builder.bind(done);
    builder.halt();
    Program prog = builder.build();

    const MacroOp *jcc = nullptr, *jmp = nullptr;
    Addr top_pc = invalidAddr, done_pc = invalidAddr;
    for (const MacroOp &op : prog.code()) {
        if (op.opcode == MacroOpcode::Jcc)
            jcc = &op;
        if (op.opcode == MacroOpcode::Jmp)
            jmp = &op;
        if (op.opcode == MacroOpcode::SubI)
            top_pc = op.pc;
        if (op.opcode == MacroOpcode::Halt)
            done_pc = op.pc;
    }
    ASSERT_NE(jcc, nullptr);
    ASSERT_NE(jmp, nullptr);
    EXPECT_EQ(jcc->target, done_pc);
    EXPECT_EQ(jmp->target, top_pc);
}

TEST(ProgramBuilder, UnboundLabelPanics)
{
    ProgramBuilder builder;
    auto label = builder.newLabel();
    builder.jmp(label);
    EXPECT_DEATH(builder.build(), "unbound label");
}

TEST(ProgramBuilder, SymbolsCoverEmittedCode)
{
    ProgramBuilder builder;
    builder.nop();
    builder.beginSymbol("multiply");
    const Addr start = builder.here();
    builder.imul(Gpr::Rax, Gpr::Rbx);
    builder.ret();
    builder.endSymbol("multiply");
    const Addr end = builder.here();
    builder.halt();
    Program prog = builder.build();

    ASSERT_TRUE(prog.hasSymbol("multiply"));
    const AddrRange range = prog.symbol("multiply");
    EXPECT_EQ(range.start, start);
    EXPECT_EQ(range.end, end);
    EXPECT_THROW(prog.symbol("nonexistent"), std::runtime_error);
}

TEST(ProgramBuilder, DataPlacementAndAlignment)
{
    ProgramBuilder builder;
    builder.halt();
    const Addr a = builder.defineData("blob_a", {1, 2, 3}, 64);
    const Addr b = builder.defineData("blob_b", {4}, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 3);
    Program prog = builder.build();
    EXPECT_EQ(prog.symbol("blob_a").size(), 3u);
    ASSERT_EQ(prog.data().size(), 2u);
    EXPECT_EQ(prog.data()[0].bytes[1], 2);
}

TEST(ProgramBuilder, DataWordsLittleEndian)
{
    ProgramBuilder builder;
    builder.halt();
    builder.defineDataWords("words", {0x11223344});
    Program prog = builder.build();
    const auto &bytes = prog.data()[0].bytes;
    ASSERT_EQ(bytes.size(), 4u);
    EXPECT_EQ(bytes[0], 0x44);
    EXPECT_EQ(bytes[3], 0x11);
}

TEST(ProgramBuilder, AtLooksUpByPc)
{
    ProgramBuilder builder;
    builder.movri(Gpr::Rax, 7);
    builder.halt();
    Program prog = builder.build();
    const MacroOp *first = prog.at(prog.entry());
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->opcode, MacroOpcode::MovRI);
    EXPECT_EQ(prog.at(prog.entry() + 1), nullptr);
}

TEST(ProgramBuilder, MarkEntryOverridesDefault)
{
    ProgramBuilder builder;
    builder.nop();
    builder.markEntry();
    const Addr entry = builder.here();
    builder.halt();
    Program prog = builder.build();
    EXPECT_EQ(prog.entry(), entry);
}

TEST(ProgramBuilder, CodeRangeSpansAllInstructions)
{
    ProgramBuilder builder(0x1000);
    builder.nop();
    builder.nop();
    builder.halt();
    Program prog = builder.build();
    const AddrRange range = prog.codeRange();
    EXPECT_EQ(range.start, 0x1000u);
    EXPECT_EQ(range.end, prog.code().back().nextPc());
}

TEST(ProgramBuilder, CallAndRetEmit)
{
    ProgramBuilder builder;
    auto fn = builder.newLabel();
    builder.call(fn);
    builder.halt();
    builder.bind(fn);
    builder.ret();
    Program prog = builder.build();
    EXPECT_EQ(prog.code()[0].opcode, MacroOpcode::Call);
    EXPECT_EQ(prog.code()[0].target, prog.code()[2].pc);
}

} // namespace
} // namespace csd
