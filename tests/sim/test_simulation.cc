#include <gtest/gtest.h>

#include "csd/csd.hh"
#include "sim/simulation.hh"
#include "workloads/spec.hh"

namespace csd
{
namespace
{

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

TEST(Simulation, RunsToHaltAndComputes)
{
    Program prog = loopProgram(100);
    Simulation sim(prog);
    sim.runToHalt();
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.state().gpr(Gpr::Rax), 5050u);
    EXPECT_GT(sim.cycles(), 0u);
    EXPECT_GT(sim.instructions(), 300u);
    EXPECT_GE(sim.uopsExecuted(), sim.instructions() - 3);
}

TEST(Simulation, CacheOnlyModeMatchesArchitecturally)
{
    Program prog = loopProgram(50);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(prog, params);
    sim.runToHalt();
    EXPECT_EQ(sim.state().gpr(Gpr::Rax), 1275u);
}

TEST(Simulation, DetailedTimingScalesWithWork)
{
    // Iteration counts large enough that cold-start cache misses are
    // amortized; 10x the work must cost clearly more time.
    Program small = loopProgram(2000);
    Program large = loopProgram(20000);
    Simulation sim_small(small), sim_large(large);
    sim_small.runToHalt();
    sim_large.runToHalt();
    EXPECT_GT(sim_large.cycles(), 5 * sim_small.cycles());
}

TEST(Simulation, StepAndRunBatches)
{
    Program prog = loopProgram(100);
    Simulation sim(prog);
    EXPECT_TRUE(sim.step());
    const auto ran = sim.run(10);
    EXPECT_EQ(ran, 10u);
    EXPECT_EQ(sim.instructions(), 11u);
    sim.runToHalt();
    EXPECT_TRUE(sim.halted());
}

TEST(Simulation, MaxInstructionsBound)
{
    Program prog = loopProgram(1000000);
    SimParams params;
    params.maxInstructions = 500;
    Simulation sim(prog, params);
    sim.runToHalt();
    EXPECT_FALSE(sim.halted());
    EXPECT_EQ(sim.instructions(), 500u);
}

TEST(Simulation, StealthDecoysReachTheCache)
{
    // A program with a load at a known PC; stealth mode must pull the
    // decoy range into the D-cache even though the program never
    // touches it.
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 8);
    const Addr decoy_region = b.reserveData("decoys", 4 * 64, 64);
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    Addr load_pc = 0;
    {
        load_pc = b.here();
        b.load(Gpr::Rax, memAt(Gpr::Rbx));
    }
    b.halt();
    Program prog = b.build();

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    msrs.setDecoyDRange(0, AddrRange(decoy_region, decoy_region + 4 * 64));
    msrs.setTaintedPc(0, load_pc);
    msrs.setControl(ctrlStealthEnable | ctrlPcRangeTrigger);

    Simulation sim(prog);
    sim.setCsd(&csd);
    sim.runToHalt();

    for (unsigned blk = 0; blk < 4; ++blk) {
        EXPECT_TRUE(sim.mem().l1d().contains(decoy_region + blk * 64))
            << "decoy block " << blk;
    }
    EXPECT_GT(sim.stats().counterValue("decoy_uops_executed"), 0u);
    // Architectural result unaffected.
    EXPECT_EQ(sim.state().gpr(Gpr::Rax), 0u);
}

TEST(Simulation, InstrDecoysReachTheICache)
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 8);
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    const Addr load_pc = b.here();
    b.load(Gpr::Rax, memAt(Gpr::Rbx));
    b.halt();
    Program prog = b.build();

    // Use a fake "function" range far from the actual code.
    const AddrRange multiply_fn(0x700000, 0x700000 + 2 * 64);

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    msrs.setDecoyIRange(0, multiply_fn);
    msrs.setTaintedPc(0, load_pc);
    msrs.setControl(ctrlStealthEnable | ctrlPcRangeTrigger);

    Simulation sim(prog);
    sim.setCsd(&csd);
    sim.runToHalt();

    EXPECT_TRUE(sim.mem().l1i().contains(0x700000));
    EXPECT_TRUE(sim.mem().l1i().contains(0x700040));
    EXPECT_FALSE(sim.mem().l1d().contains(0x700000));
}

TEST(Simulation, StealthCostsCyclesButLittle)
{
    // Run the same loop with and without stealth; stealth should cost
    // extra uops but not blow up execution time.
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 8);
    const Addr decoys = b.reserveData("decoys", 8 * 64, 64);
    auto top = b.newLabel();
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    b.movri(Gpr::Rcx, 500);
    b.bind(top);
    const Addr load_pc = b.here();
    b.load(Gpr::Rax, memAt(Gpr::Rbx));
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    Program prog = b.build();

    Simulation base(prog);
    base.runToHalt();

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    msrs.setWatchdogPeriod(1000);
    msrs.setDecoyDRange(0, AddrRange(decoys, decoys + 8 * 64));
    msrs.setTaintedPc(0, load_pc);
    msrs.setControl(ctrlStealthEnable | ctrlPcRangeTrigger);
    Simulation stealth(prog);
    stealth.setCsd(&csd);
    stealth.runToHalt();

    EXPECT_EQ(stealth.state().gpr(Gpr::Rax), base.state().gpr(Gpr::Rax));
    EXPECT_GT(stealth.uopsExecuted(), base.uopsExecuted());
    EXPECT_GE(stealth.cycles(), base.cycles());
    // Overhead bounded: well under 2x for this decoy footprint.
    EXPECT_LT(static_cast<double>(stealth.cycles()),
              2.0 * static_cast<double>(base.cycles()));
}

TEST(Simulation, DevectPolicyKeepsResultsAndGates)
{
    // Scalar-heavy loop with occasional vector ops.
    ProgramBuilder b;
    std::vector<std::uint8_t> ones(16, 1);
    const Addr vdata = b.defineData("v", ones, 16);
    auto top = b.newLabel();
    b.movri(Gpr::Rsi, static_cast<std::int64_t>(vdata));
    b.movdqaLoad(Xmm::Xmm0, memAt(Gpr::Rsi));
    b.movdqaLoad(Xmm::Xmm1, memAt(Gpr::Rsi));
    b.movri(Gpr::Rcx, 2000);
    b.bind(top);
    b.add(Gpr::Rax, Gpr::Rcx);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, top);
    b.vecOp(MacroOpcode::Paddb, Xmm::Xmm0, Xmm::Xmm1);
    b.halt();
    Program prog = b.build();

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    EnergyModel energy;
    GatingParams gp;
    gp.policy = GatingPolicy::CsdDevect;
    gp.windowInstrs = 100;
    gp.lowWatermark = 0;
    gp.highWatermark = 50;
    PowerGateController power(gp, energy);

    Simulation sim(prog);
    sim.setCsd(&csd);
    sim.setPowerController(&power);
    sim.runToHalt();
    power.finalize(sim.cycles());

    // The final paddb executed while gated -> devectorized, still
    // correct: 1+1=2 per byte.
    EXPECT_EQ(sim.state().xmm(Xmm::Xmm0).bytes[0], 2);
    EXPECT_GT(power.gatedCycles(), 0u);
    EXPECT_GT(power.sseCount(SseExecClass::PowerGated), 0u);
}

TEST(Simulation, PowerHookRunsOncePerVectorMacroUnderAlwaysOn)
{
    // AlwaysOn has no deadlines, so only vector macros pass the
    // controller's event gate, chained or not, in either fidelity.
    const Program prog = SpecWorkload::build(specPreset("milc"), 4).program;
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        SimParams params;
        params.mode = mode;
        // Reference: the macro at the pc before each single step.
        Simulation stepped(prog, params);
        std::uint64_t macros = 0, vectors = 0;
        while (!stepped.halted()) {
            ++macros;
            vectors += isVector(prog.at(stepped.state().pc)->opcode);
            stepped.run(1);
        }

        EnergyModel energy(params.energy);
        GatingParams gp;
        gp.policy = GatingPolicy::AlwaysOn;
        PowerGateController power(gp, energy);
        Simulation sim(prog, params);
        sim.setPowerController(&power);
        sim.runToHalt();
        EXPECT_GT(vectors, 0u);
        EXPECT_LT(vectors, macros);
        EXPECT_EQ(power.calls(), vectors);
        EXPECT_EQ(power.macros(), macros);
        EXPECT_EQ(sim.instructions(), stepped.instructions());
    }
}

TEST(Simulation, EnergyBreakdownIsPositiveAndComplete)
{
    Program prog = loopProgram(200);
    Simulation sim(prog);
    sim.runToHalt();
    const EnergyBreakdown energy = sim.energy();
    EXPECT_GT(energy.coreDynamic, 0.0);
    EXPECT_GT(energy.coreStatic, 0.0);
    EXPECT_GT(energy.frontendDynamic, 0.0);
    EXPECT_GT(energy.total(), energy.coreDynamic);
    // Without a gating controller the VPU leaks the whole time.
    EXPECT_GT(energy.vpuStatic, 0.0);
}

TEST(Simulation, BranchPredictorLearnsTheLoop)
{
    Program prog = loopProgram(2000);
    Simulation sim(prog);
    sim.runToHalt();
    EXPECT_GT(sim.bpred().accuracy(), 0.95);
}

} // namespace
} // namespace csd
