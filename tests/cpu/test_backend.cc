#include <gtest/gtest.h>

#include "cpu/backend.hh"

namespace csd
{
namespace
{

Uop
aluUop(Gpr dst, Gpr src1, Gpr src2)
{
    Uop uop;
    uop.op = MicroOpcode::Add;
    uop.dst = intReg(dst);
    uop.src1 = intReg(src1);
    uop.src2 = intReg(src2);
    return uop;
}

TEST(BackEnd, DependentChainSerializes)
{
    BackEnd backend{BackEndParams{}, nullptr};
    // rax = rax + rbx, three times: each must wait for the previous.
    const Uop uop = aluUop(Gpr::Rax, Gpr::Rax, Gpr::Rbx);
    Tick prev_complete = 0;
    for (int i = 0; i < 3; ++i) {
        const auto t = backend.process(timingRecordFor(uop), invalidAddr, 0);
        EXPECT_GE(t.issue, prev_complete);
        prev_complete = t.complete;
    }
    // 3 chained single-cycle adds: at least 3 cycles apart overall.
    EXPECT_GE(prev_complete, 3u);
}

TEST(BackEnd, IndependentOpsOverlap)
{
    BackEnd backend{BackEndParams{}, nullptr};
    const Uop a = aluUop(Gpr::Rax, Gpr::Rbx, Gpr::Rcx);
    const Uop b = aluUop(Gpr::Rdx, Gpr::Rsi, Gpr::Rdi);
    const auto ta = backend.process(timingRecordFor(a), invalidAddr, 0);
    const auto tb = backend.process(timingRecordFor(b), invalidAddr, 0);
    // Different ALU ports: same issue cycle.
    EXPECT_EQ(ta.issue, tb.issue);
}

TEST(BackEnd, PortContentionSerializesSameClass)
{
    BackEnd backend{BackEndParams{}, nullptr};
    Uop mul = aluUop(Gpr::Rax, Gpr::Rbx, Gpr::Rcx);
    mul.op = MicroOpcode::Mul;  // single port (p1)
    Uop mul2 = aluUop(Gpr::Rdx, Gpr::Rsi, Gpr::Rdi);
    mul2.op = MicroOpcode::Mul;
    const auto t1 = backend.process(timingRecordFor(mul), invalidAddr, 0);
    const auto t2 = backend.process(timingRecordFor(mul2), invalidAddr, 0);
    EXPECT_GT(t2.issue, t1.issue);  // pipelined: next cycle at best
    EXPECT_GT(backend.stats().counterValue("port_conflict_cycles"), 0u);
}

TEST(BackEnd, LoadLatencyFromMemory)
{
    MemHierarchy mem;
    BackEnd backend{BackEndParams{}, &mem};
    Uop load;
    load.op = MicroOpcode::Load;
    load.dst = intReg(Gpr::Rax);
    load.memSize = 8;
    const auto cold = backend.process(timingRecordFor(load), 0x1000, 0);
    const auto warm = backend.process(timingRecordFor(load), 0x1000, 0);
    // Cold miss goes to DRAM; warm hit is an L1 access.
    EXPECT_GT(cold.complete - cold.issue, 100u);
    EXPECT_LE(warm.complete - warm.issue,
              mem.params().l1d.hitLatency + 1);
}

TEST(BackEnd, EliminatedUopsCostNothing)
{
    BackEnd backend{BackEndParams{}, nullptr};
    Uop rsp_update = aluUop(Gpr::Rsp, Gpr::Rsp, Gpr::Rsp);
    rsp_update.immData = true;
    rsp_update.imm = 8;
    rsp_update.eliminated = true;
    const auto before = backend.uopsExecuted();
    const auto t =
        backend.process(timingRecordFor(rsp_update), invalidAddr, 5);
    EXPECT_EQ(backend.uopsExecuted(), before);
    EXPECT_EQ(t.issue, 5u);
}

TEST(BackEnd, FlagsCarryDependences)
{
    BackEnd backend{BackEndParams{}, nullptr};
    Uop cmp = aluUop(Gpr::Rax, Gpr::Rax, Gpr::Rbx);
    cmp.op = MicroOpcode::Cmp;
    cmp.dst = RegId();
    cmp.writesFlags = true;
    Uop br;
    br.op = MicroOpcode::Br;
    br.cond = Cond::Ne;
    br.readsFlags = true;
    const auto t_cmp = backend.process(timingRecordFor(cmp), invalidAddr, 0);
    const auto t_br = backend.process(timingRecordFor(br), invalidAddr, 0);
    EXPECT_GE(t_br.issue, t_cmp.complete);
}

TEST(BackEnd, RobLimitsInFlightUops)
{
    BackEndParams params;
    params.robEntries = 8;
    BackEnd backend(params, nullptr);
    // A long-latency producer followed by many dependents of nothing:
    // the 9th uop cannot dispatch until the 1st commits.
    Uop div = aluUop(Gpr::Rax, Gpr::Rbx, Gpr::Rcx);
    div.op = MicroOpcode::FDivS;  // 14 cycles
    const auto t0 = backend.process(timingRecordFor(div), invalidAddr, 0);
    Tick last_dispatch = 0;
    for (int i = 0; i < 8; ++i) {
        const Uop indep = aluUop(Gpr::Rdx, Gpr::Rsi, Gpr::Rdi);
        last_dispatch =
            backend.process(timingRecordFor(indep), invalidAddr, 0)
                .dispatch;
    }
    EXPECT_GE(last_dispatch, t0.commit);
}

TEST(BackEnd, CommitIsInOrder)
{
    BackEnd backend{BackEndParams{}, nullptr};
    Uop slow = aluUop(Gpr::Rax, Gpr::Rbx, Gpr::Rcx);
    slow.op = MicroOpcode::FDivS;
    Uop fast = aluUop(Gpr::Rdx, Gpr::Rsi, Gpr::Rdi);
    const auto t_slow = backend.process(timingRecordFor(slow), invalidAddr, 0);
    const auto t_fast = backend.process(timingRecordFor(fast), invalidAddr, 0);
    // fast completes early but must commit at or after slow.
    EXPECT_LT(t_fast.complete, t_slow.complete);
    EXPECT_GE(t_fast.commit, t_slow.commit);
}

TEST(BackEnd, CommitWidthBounded)
{
    BackEndParams params;
    params.commitWidth = 2;
    BackEnd backend(params, nullptr);
    // 6 independent 1-cycle uops all complete together; commits spread
    // across >= 3 cycles.
    std::vector<Tick> commits;
    for (int i = 0; i < 6; ++i) {
        const Uop u = aluUop(static_cast<Gpr>(8 + i % 4),
                             static_cast<Gpr>(i % 2), Gpr::Rcx);
        commits.push_back(
            backend.process(timingRecordFor(u), invalidAddr, 0).commit);
    }
    EXPECT_GE(commits.back() - commits.front(), 2u);
}

TEST(BackEnd, StoresWriteMemoryAtIssue)
{
    MemHierarchy mem;
    BackEnd backend{BackEndParams{}, &mem};
    Uop store;
    store.op = MicroOpcode::Store;
    store.src3 = intReg(Gpr::Rax);
    store.memSize = 8;
    backend.process(timingRecordFor(store), 0x2000, 0);
    EXPECT_TRUE(mem.l1d().contains(0x2000));
    EXPECT_EQ(backend.stats().counterValue("stores"), 1u);
}

TEST(BackEnd, VpuUopsCounted)
{
    BackEnd backend{BackEndParams{}, nullptr};
    Uop vadd;
    vadd.op = MicroOpcode::VAdd;
    vadd.dst = vecReg(Xmm::Xmm0);
    vadd.src1 = vecReg(Xmm::Xmm0);
    vadd.src2 = vecReg(Xmm::Xmm1);
    backend.process(timingRecordFor(vadd), invalidAddr, 0);
    EXPECT_EQ(backend.stats().counterValue("vpu_uops"), 1u);
}

} // namespace
} // namespace csd
