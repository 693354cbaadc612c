/**
 * @file
 * CPI-stack invariant tests: directed micro-programs that each expose
 * one stall class (DRAM-bound load + ROB pressure, port conflict, L1I
 * miss, decoy injection) and, for every one of them, the accountant's
 * hard invariant — buckets sum *exactly* to the simulated cycles.
 * Also covers the per-PC profile table and its JSON/CSV dumps.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "csd/csd.hh"
#include "sim/simulation.hh"

namespace csd
{
namespace
{

using minijson::parseJson;

/** Sum of all buckets must equal the run's cycles, with no residue. */
void
expectExactSum(const Simulation &sim)
{
    ASSERT_NE(sim.cpiStack(), nullptr);
    const CpiStack &cpi = *sim.cpiStack();
    EXPECT_EQ(cpi.totalBucketCycles(), sim.cycles());
    EXPECT_EQ(cpi.accounted(), sim.cycles());
}

Program
loopProgram(unsigned iterations)
{
    ProgramBuilder b;
    auto top = b.newLabel();
    b.movri(Gpr::Rax, 0);
    b.movri(Gpr::Rcx, iterations);
    b.bind(top);
    b.add(Gpr::Rax, Gpr::Rcx);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    return b.build();
}

TEST(CpiStackTest, BucketsSumOnSimpleLoop)
{
    Program prog = loopProgram(3000);
    Simulation sim(prog);
    sim.enableCpiStack();
    sim.runToHalt();

    expectExactSum(sim);
    EXPECT_GT(sim.cpiStack()->bucketCycles(CpiBucket::Base), 0u);
}

TEST(CpiStackTest, PortConflictBucket)
{
    // Independent multiplies all bind to port 1; delivered 4 wide but
    // issued 1 per cycle, the conflict must surface as backend_port.
    ProgramBuilder b;
    b.movri(Gpr::Rbx, 3);
    const Gpr dsts[] = {Gpr::Rax, Gpr::Rcx, Gpr::Rdx,
                        Gpr::Rsi, Gpr::Rdi, Gpr::R8};
    for (unsigned i = 0; i < 240; ++i)
        b.imul(dsts[i % 6], Gpr::Rbx);
    b.halt();
    Program prog = b.build();

    Simulation sim(prog);
    sim.enableCpiStack();
    sim.runToHalt();

    expectExactSum(sim);
    EXPECT_GT(sim.cpiStack()->bucketCycles(CpiBucket::BackendPort), 0u);
}

TEST(CpiStackTest, DramAndRobFullBuckets)
{
    // A compulsory-miss load walks to DRAM; behind it, far more cheap
    // uops than the (shrunken) ROB holds. The load's exposed latency
    // must land in mem_dram and the dispatch backpressure in
    // backend_rob (commit width widened so it cannot mask the ROB).
    ProgramBuilder b;
    const Addr data = b.defineData("d", std::vector<std::uint8_t>(64, 1));
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(data));
    b.load(Gpr::Rax, memAt(Gpr::Rbx));
    for (unsigned i = 0; i < 300; ++i)
        b.addi(Gpr::Rcx, 1);
    b.halt();
    Program prog = b.build();

    SimParams params;
    params.backend.robEntries = 8;
    params.backend.commitWidth = 32;
    Simulation sim(prog, params);
    sim.enableCpiStack();
    sim.runToHalt();

    expectExactSum(sim);
    EXPECT_GT(sim.cpiStack()->bucketCycles(CpiBucket::MemDram), 0u);
    EXPECT_GT(sim.cpiStack()->bucketCycles(CpiBucket::BackendRob), 0u);
}

TEST(CpiStackTest, L1iMissBucket)
{
    // A long straight-line program: every fresh 64-byte code block
    // compulsory-misses the L1I while the back end sits idle.
    ProgramBuilder b;
    for (unsigned i = 0; i < 600; ++i)
        b.addi(Gpr::Rax, 1);
    b.halt();
    Program prog = b.build();

    Simulation sim(prog);
    sim.enableCpiStack();
    sim.runToHalt();

    expectExactSum(sim);
    EXPECT_GT(sim.cpiStack()->bucketCycles(CpiBucket::FrontendL1i), 0u);
}

TEST(CpiStackTest, DecoyInjectionBucketAndPcProfile)
{
    // Stealth-mode translation: a tainted key load makes the next
    // key-indexed access a stealth trigger, and the injected decoy
    // flows must be charged to csd_decoy. The per-PC profile must see
    // both the taint hits and the decoy uops.
    ProgramBuilder b;
    const Addr key = b.defineData("key", std::vector<std::uint8_t>(8, 5));
    const Addr table =
        b.defineData("table", std::vector<std::uint8_t>(64 * 64, 7));
    auto top = b.newLabel();
    b.movri(Gpr::Rcx, 200);
    b.bind(top);
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(key));
    b.load(Gpr::Rax, memAt(Gpr::Rbx));       // taints rax
    b.andi(Gpr::Rax, 0x3f);
    b.movri(Gpr::Rdx, static_cast<std::int64_t>(table));
    b.add(Gpr::Rdx, Gpr::Rax);
    b.load(Gpr::Rsi, memAt(Gpr::Rdx));       // tainted address: trigger
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    Program prog = b.build();

    Simulation sim(prog);
    MsrFile msrs;
    TaintTracker taint;
    taint.addTaintSource(AddrRange(key, key + 8));
    ContextSensitiveDecoder csd(msrs, &taint);
    msrs.setWatchdogPeriod(500);
    msrs.setDecoyDRange(0, AddrRange(table, table + 64 * 64));
    msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    sim.enableCpiStack();
    sim.runToHalt();

    expectExactSum(sim);
    const CpiStack &cpi = *sim.cpiStack();
    EXPECT_GT(cpi.bucketCycles(CpiBucket::CsdDecoy), 0u);

    std::uint64_t taint_hits = 0, decoy_uops = 0;
    for (const auto &[pc, profile] : cpi.pcProfiles()) {
        taint_hits += profile.taintHits;
        decoy_uops += profile.decoyUops;
    }
    EXPECT_GT(taint_hits, 0u);
    EXPECT_GT(decoy_uops, 0u);
}

TEST(CpiStackTest, VpuWakeBucketUnderConventionalPg)
{
    // Conventional power gating stalls the pipeline on demand wakes;
    // those external stall cycles must be accounted too or the sum
    // invariant would break.
    ProgramBuilder b;
    std::vector<std::uint8_t> ones(16, 1);
    const Addr vdata = b.defineData("v", ones, 16);
    b.movri(Gpr::Rsi, static_cast<std::int64_t>(vdata));
    b.movdqaLoad(Xmm::Xmm0, memAt(Gpr::Rsi));
    b.movdqaLoad(Xmm::Xmm1, memAt(Gpr::Rsi));
    auto top = b.newLabel();
    b.movri(Gpr::Rcx, 400);
    b.bind(top);
    for (unsigned i = 0; i < 8; ++i)
        b.addi(Gpr::Rax, 1);
    b.vecOp(MacroOpcode::Paddb, Xmm::Xmm0, Xmm::Xmm1);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    Program prog = b.build();

    EnergyModel energy;
    GatingParams gp;
    gp.policy = GatingPolicy::ConventionalPG;
    gp.windowInstrs = 50;
    PowerGateController power(gp, energy);

    Simulation sim(prog);
    sim.setPowerController(&power);
    sim.enableCpiStack();
    sim.runToHalt();
    power.finalize(sim.cycles());

    expectExactSum(sim);
    EXPECT_GT(sim.cpiStack()->bucketCycles(CpiBucket::VpuWake), 0u);
}

TEST(CpiStackTest, JsonAndCsvDumps)
{
    Program prog = loopProgram(500);
    Simulation sim(prog);
    sim.enableCpiStack();
    sim.runToHalt();

    std::ostringstream json;
    sim.cpiStack()->dumpJson(json, 16);
    const auto doc = parseJson(json.str());
    EXPECT_DOUBLE_EQ(doc->at("total_cycles").number,
                     static_cast<double>(sim.cycles()));
    double bucket_sum = 0;
    for (unsigned i = 0; i < numCpiBuckets; ++i) {
        bucket_sum += doc->at("buckets")
                          .at(cpiBucketName(static_cast<CpiBucket>(i)))
                          .number;
    }
    EXPECT_DOUBLE_EQ(bucket_sum, static_cast<double>(sim.cycles()));
    ASSERT_TRUE(doc->at("pcs").isArray());
    ASSERT_GT(doc->at("pcs").size(), 0u);
    // Hottest-first ordering.
    const auto &pcs = doc->at("pcs");
    for (std::size_t i = 1; i < pcs.size(); ++i) {
        EXPECT_GE(pcs.at(i - 1).at("cycles").number,
                  pcs.at(i).at("cycles").number);
    }

    std::ostringstream csv;
    sim.cpiStack()->dumpCsv(csv, 8);
    EXPECT_EQ(csv.str().rfind("pc,uops,cycles,taint_hits,decoy_uops", 0),
              0u);
}

TEST(CpiStackTest, SlotRowsReportByPc)
{
    // Rows are stored by instruction slot, but every query and dump is
    // keyed and ordered by PC: ties on cycles break by ascending PC
    // whatever the slot order, and a slot past the sized table grows it.
    CpiStack cpi(0, 2);
    BackEnd::UopTiming timing;
    const auto account = [&](std::size_t slot, Addr pc, Tick commit) {
        CpiStack::UopContext ctx;
        ctx.slot = slot;
        ctx.pc = pc;
        timing.commit = commit;
        cpi.accountUop(timing, ctx);
    };
    account(3, 0x500, 10);
    account(0, 0x900, 20);
    account(1, 0x100, 30);
    account(1, 0x100, 30);  // overlapped: a uop, no cycles

    EXPECT_EQ(cpi.hottestPcs(), (std::vector<Addr>{0x100, 0x500, 0x900}));
    EXPECT_EQ(cpi.hottestPcs(2), (std::vector<Addr>{0x100, 0x500}));
    const auto profiles = cpi.pcProfiles();
    ASSERT_EQ(profiles.size(), 3u);
    EXPECT_EQ(profiles.at(0x100).uops, 2u);
    EXPECT_EQ(profiles.at(0x100).cycles, 10u);
    EXPECT_EQ(profiles.at(0x500).buckets[static_cast<unsigned>(
                  CpiBucket::Base)],
              10u);

    std::ostringstream csv;
    cpi.dumpCsv(csv);
    std::istringstream lines(csv.str());
    std::string header, first;
    std::getline(lines, header);
    std::getline(lines, first);
    EXPECT_EQ(first.rfind("256,2,10,", 0), 0u) << first;
}

TEST(CpiStackTest, CacheOnlyModeRejectsAccounting)
{
    Program prog = loopProgram(10);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(prog, params);
    EXPECT_THROW(sim.enableCpiStack(), std::runtime_error);
    EXPECT_THROW(sim.enableLifecycle(), std::runtime_error);
}

} // namespace
} // namespace csd
