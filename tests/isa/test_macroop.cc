#include <gtest/gtest.h>

#include "isa/macroop.hh"
#include "isa/program.hh"

namespace csd
{
namespace
{

MacroOp
makeOp(MacroOpcode opcode)
{
    MacroOp op;
    op.opcode = opcode;
    return op;
}

TEST(MacroOp, BranchClassification)
{
    EXPECT_TRUE(isBranch(MacroOpcode::Jmp));
    EXPECT_TRUE(isBranch(MacroOpcode::Jcc));
    EXPECT_TRUE(isBranch(MacroOpcode::Call));
    EXPECT_TRUE(isBranch(MacroOpcode::Ret));
    EXPECT_TRUE(isBranch(MacroOpcode::JmpInd));
    EXPECT_FALSE(isBranch(MacroOpcode::Add));
    EXPECT_TRUE(isConditionalBranch(MacroOpcode::Jcc));
    EXPECT_FALSE(isConditionalBranch(MacroOpcode::Jmp));
    EXPECT_TRUE(isDirectBranch(MacroOpcode::Call));
    EXPECT_FALSE(isDirectBranch(MacroOpcode::Ret));
}

TEST(MacroOp, MemoryClassification)
{
    MacroOp load = makeOp(MacroOpcode::Load);
    MacroOp store = makeOp(MacroOpcode::Store);
    MacroOp addm = makeOp(MacroOpcode::AddM);
    MacroOp add = makeOp(MacroOpcode::Add);
    EXPECT_TRUE(isMemRead(load));
    EXPECT_FALSE(isMemWrite(load));
    EXPECT_TRUE(isMemWrite(store));
    EXPECT_TRUE(isMemRead(addm));
    EXPECT_FALSE(isMemRead(add));
    // Ret reads the stack; call writes it.
    EXPECT_TRUE(isMemRead(makeOp(MacroOpcode::Ret)));
    EXPECT_TRUE(isMemWrite(makeOp(MacroOpcode::Call)));
}

TEST(MacroOp, VectorClassification)
{
    EXPECT_TRUE(isVector(MacroOpcode::Paddb));
    EXPECT_TRUE(isVector(MacroOpcode::MovdqaLoad));
    EXPECT_TRUE(isVector(MacroOpcode::Mulps));
    EXPECT_FALSE(isVector(MacroOpcode::Imul));
    EXPECT_TRUE(isVectorArith(MacroOpcode::Paddb));
    EXPECT_FALSE(isVectorArith(MacroOpcode::MovdqaLoad));
    EXPECT_FALSE(isVectorArith(MacroOpcode::MovdqaRR));
}

TEST(MacroOp, TraitTableIsConsistent)
{
    // Every opcode's row of macroOpTraits: the finer branch classes
    // imply isBranch, vector arithmetic implies isVector, and the VPU
    // opcodes are exactly the SSE block of the enum.
    for (unsigned i = 0; i < static_cast<unsigned>(MacroOpcode::NumOpcodes);
         ++i) {
        const auto op = static_cast<MacroOpcode>(i);
        SCOPED_TRACE(mnemonic(op));
        const bool finer = isConditionalBranch(op) || isDirectBranch(op) ||
                           isCall(op) || isReturn(op);
        EXPECT_TRUE(!finer || isBranch(op));
        EXPECT_TRUE(!isCall(op) || isDirectBranch(op));
        EXPECT_TRUE(!isVectorArith(op) || isVector(op));
        EXPECT_EQ(isVector(op), op >= MacroOpcode::MovdqaLoad &&
                                    op <= MacroOpcode::Sqrtps);
        EXPECT_EQ(isVectorArith(op), op > MacroOpcode::MovdqaRR &&
                                         op <= MacroOpcode::Sqrtps);
    }
}

TEST(MacroOp, FlagUse)
{
    MacroOp adc = makeOp(MacroOpcode::Adc);
    EXPECT_TRUE(readsFlags(adc));
    EXPECT_TRUE(writesFlags(adc));
    MacroOp jcc = makeOp(MacroOpcode::Jcc);
    jcc.cond = Cond::Eq;
    EXPECT_TRUE(readsFlags(jcc));
    jcc.cond = Cond::Always;
    EXPECT_FALSE(readsFlags(jcc));
    EXPECT_FALSE(writesFlags(makeOp(MacroOpcode::MovRR)));
    EXPECT_TRUE(writesFlags(makeOp(MacroOpcode::Cmp)));
}

TEST(MacroOp, EncodedLengthsArePlausible)
{
    MacroOp mov = makeOp(MacroOpcode::MovRR);
    mov.dst = Gpr::Rax;
    mov.src1 = Gpr::Rbx;
    const unsigned mov_len = encodedLength(mov);
    EXPECT_GE(mov_len, 2u);
    EXPECT_LE(mov_len, 4u);

    MacroOp movri = makeOp(MacroOpcode::MovRI);
    movri.dst = Gpr::Rax;
    movri.imm = 0x1122334455667788;
    EXPECT_EQ(encodedLength(movri), 10u); // REX + opcode + imm64

    movri.imm = 5;
    EXPECT_LE(encodedLength(movri), 6u);

    MacroOp jcc = makeOp(MacroOpcode::Jcc);
    EXPECT_EQ(encodedLength(jcc), 6u);

    MacroOp ret = makeOp(MacroOpcode::Ret);
    ret.width = OpWidth::W32; // no REX influence on ret
    EXPECT_EQ(encodedLength(ret), 1u);
}

TEST(MacroOp, LengthNeverExceedsX86Limit)
{
    MacroOp op = makeOp(MacroOpcode::StoreImm);
    op.mem = memIdx(Gpr::R13, Gpr::R14, 8, 0x12345678);
    op.imm = 0x7fffffff;
    EXPECT_LE(encodedLength(op), 15u);
}

TEST(MacroOp, MemOperandLengthGrowsWithDisp)
{
    MacroOp small = makeOp(MacroOpcode::Load);
    small.dst = Gpr::Rax;
    small.mem = memAt(Gpr::Rbx, 8);
    MacroOp large = small;
    large.mem.disp = 0x12345;
    EXPECT_LT(encodedLength(small), encodedLength(large));
}

TEST(MacroOp, DisassembleSmoke)
{
    MacroOp op = makeOp(MacroOpcode::Load);
    op.dst = Gpr::Rax;
    op.mem = memIdx(Gpr::Rbx, Gpr::Rcx, 4, 0x10);
    op.pc = 0x400000;
    op.length = encodedLength(op);
    const std::string text = disassemble(op);
    EXPECT_NE(text.find("mov"), std::string::npos);
    EXPECT_NE(text.find("rax"), std::string::npos);
    EXPECT_NE(text.find("rbx"), std::string::npos);
    EXPECT_NE(text.find("rcx*4"), std::string::npos);
}

TEST(MacroOp, CondEval)
{
    RFlags flags;
    flags.zf = true;
    EXPECT_TRUE(evalCond(Cond::Eq, flags));
    EXPECT_FALSE(evalCond(Cond::Ne, flags));
    EXPECT_TRUE(evalCond(Cond::Always, flags));

    // signed: sf != of means less-than
    flags = RFlags();
    flags.sf = true;
    EXPECT_TRUE(evalCond(Cond::Lt, flags));
    flags.of = true;
    EXPECT_FALSE(evalCond(Cond::Lt, flags));
    EXPECT_TRUE(evalCond(Cond::Ge, flags));

    // unsigned: cf means below
    flags = RFlags();
    flags.cf = true;
    EXPECT_TRUE(evalCond(Cond::Ult, flags));
    EXPECT_TRUE(evalCond(Cond::Ule, flags));
    EXPECT_FALSE(evalCond(Cond::Uge, flags));
    flags.cf = false;
    EXPECT_TRUE(evalCond(Cond::Uge, flags));
    EXPECT_TRUE(evalCond(Cond::Ugt, flags));
}

} // namespace
} // namespace csd
