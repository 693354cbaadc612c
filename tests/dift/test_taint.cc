#include <gtest/gtest.h>

#include "cpu/executor.hh"
#include "dift/taint.hh"
#include "isa/program.hh"
#include "uop/translate.hh"

namespace csd
{
namespace
{

/** Runs a program propagating taint through every executed uop. */
struct TaintRig
{
    ArchState state;
    TaintTracker taint;

    void
    run(const Program &prog)
    {
        state.loadProgram(prog);
        FunctionalExecutor exec(state);
        while (!state.halted) {
            const MacroOp *op = prog.at(state.pc);
            ASSERT_NE(op, nullptr);
            const UopFlow flow = translateNative(*op);
            const FlowResult result = exec.execute(*op, flow);
            for (const DynUop &dyn : result.dynUops)
                taint.propagateUop(*dyn.uop, dyn.effAddr);
        }
    }
};

TEST(Taint, LoadFromSourceTaintsRegister)
{
    ProgramBuilder b;
    const Addr key = b.defineDataWords("key", {0xdeadbeef});
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(key));
    b.load(Gpr::Rax, memAt(Gpr::Rbx, 0, MemSize::B4));
    b.halt();
    TaintRig rig;
    rig.taint.addTaintSource(AddrRange(key, key + 4));
    rig.run(b.build());
    EXPECT_TRUE(rig.taint.regTainted(intReg(Gpr::Rax)));
    EXPECT_FALSE(rig.taint.regTainted(intReg(Gpr::Rbx)));
}

TEST(Taint, AluPropagatesAndLimmClears)
{
    ProgramBuilder b;
    const Addr key = b.defineDataWords("key", {1});
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(key));
    b.load(Gpr::Rax, memAt(Gpr::Rbx, 0, MemSize::B4));
    b.movrr(Gpr::Rcx, Gpr::Rax);        // taint flows via mov
    b.add(Gpr::Rdx, Gpr::Rcx);          // and via ALU
    b.movri(Gpr::Rax, 0);               // limm clears taint
    b.halt();
    TaintRig rig;
    rig.taint.addTaintSource(AddrRange(key, key + 4));
    rig.run(b.build());
    EXPECT_TRUE(rig.taint.regTainted(intReg(Gpr::Rcx)));
    EXPECT_TRUE(rig.taint.regTainted(intReg(Gpr::Rdx)));
    EXPECT_FALSE(rig.taint.regTainted(intReg(Gpr::Rax)));
}

TEST(Taint, StoreTaintsMemoryAndReloadsIt)
{
    ProgramBuilder b;
    const Addr key = b.defineDataWords("key", {1});
    const Addr buf = b.reserveData("buf", 8);
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(key));
    b.load(Gpr::Rax, memAt(Gpr::Rbx, 0, MemSize::B4));
    b.movri(Gpr::Rsi, static_cast<std::int64_t>(buf));
    b.store(memAt(Gpr::Rsi), Gpr::Rax);     // spreads taint to buf
    b.load(Gpr::Rdx, memAt(Gpr::Rsi));      // reloads tainted data
    b.halt();
    TaintRig rig;
    rig.taint.addTaintSource(AddrRange(key, key + 4));
    rig.run(b.build());
    EXPECT_TRUE(rig.taint.memTainted(buf, 8));
    EXPECT_TRUE(rig.taint.regTainted(intReg(Gpr::Rdx)));
}

TEST(Taint, FlagsTaintMakesJccTainted)
{
    ProgramBuilder b;
    const Addr key = b.defineDataWords("key", {1});
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(key));
    b.load(Gpr::Rax, memAt(Gpr::Rbx, 0, MemSize::B4));
    b.cmpi(Gpr::Rax, 0);  // flags now key-dependent
    b.halt();
    TaintRig rig;
    rig.taint.addTaintSource(AddrRange(key, key + 4));
    rig.run(b.build());
    EXPECT_TRUE(rig.taint.regTainted(flagsReg()));

    MacroOp jcc;
    jcc.opcode = MacroOpcode::Jcc;
    jcc.cond = Cond::Ne;
    EXPECT_TRUE(rig.taint.taintedLoadOrBranch(jcc));
    jcc.cond = Cond::Always;
    EXPECT_FALSE(rig.taint.taintedLoadOrBranch(jcc));
}

TEST(Taint, TaintedIndexMakesLoadTainted)
{
    // The AES pattern: T[x] where x derives from the key.
    ProgramBuilder b;
    const Addr key = b.defineDataWords("key", {2});
    const Addr table = b.defineDataWords("table", {10, 20, 30, 40});
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(key));
    b.load(Gpr::Rcx, memAt(Gpr::Rbx, 0, MemSize::B4));  // rcx tainted
    b.movri(Gpr::Rsi, static_cast<std::int64_t>(table));
    b.halt();
    TaintRig rig;
    rig.taint.addTaintSource(AddrRange(key, key + 4));
    rig.run(b.build());

    MacroOp lookup;
    lookup.opcode = MacroOpcode::Load;
    lookup.hasMem = true;
    lookup.mem = memIdx(Gpr::Rsi, Gpr::Rcx, 4);
    EXPECT_TRUE(rig.taint.taintedLoadOrBranch(lookup));

    MacroOp untainted;
    untainted.opcode = MacroOpcode::Load;
    untainted.hasMem = true;
    untainted.mem = memAt(Gpr::Rsi, 8);
    EXPECT_FALSE(rig.taint.taintedLoadOrBranch(untainted));
}

TEST(Taint, DecoysDoNotPropagate)
{
    TaintTracker taint;
    taint.addTaintSource(AddrRange(0x1000, 0x1008));

    Uop decoy_load;
    decoy_load.op = MicroOpcode::Load;
    decoy_load.dst = intTemp(7);
    decoy_load.decoy = true;
    decoy_load.memSize = 8;
    // Loads tainted data, but as a decoy.
    taint.propagateUop(decoy_load, 0x1000);
    EXPECT_FALSE(taint.regTainted(intTemp(7)));
}

TEST(Taint, ResetClearsEverything)
{
    TaintTracker taint;
    taint.addTaintSource(AddrRange(0x2000, 0x2010));
    EXPECT_TRUE(taint.memTainted(0x2000, 1));
    taint.reset();
    EXPECT_FALSE(taint.memTainted(0x2000, 1));
}

TEST(Taint, GranuleBoundaryQueries)
{
    TaintTracker taint;
    taint.addTaintSource(AddrRange(0x3008, 0x3010));
    EXPECT_TRUE(taint.memTainted(0x3008, 1));
    EXPECT_TRUE(taint.memTainted(0x3000, 16));  // overlaps
    EXPECT_FALSE(taint.memTainted(0x3010, 8));
    EXPECT_FALSE(taint.memTainted(0x2ff8, 8));
}

} // namespace
} // namespace csd
