#include <gtest/gtest.h>

#include "common/random.hh"
#include "cpu/executor.hh"
#include "csd/csd.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"
#include "tests/support/random_program.hh"
#include "uop/translate.hh"

namespace csd
{
namespace
{

/**
 * Robustness fuzzing: random programs through the full detailed
 * pipeline must never wedge or violate basic accounting invariants,
 * with and without the context-sensitive decoder active.
 */

using testsupport::randomProgram;

class SimFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SimFuzz, DetailedPipelineInvariants)
{
    Random rng(GetParam());
    Program prog = randomProgram(rng, 120);

    SimParams params;
    params.maxInstructions = 200000;
    Simulation sim(prog, params);
    sim.runToHalt();

    ASSERT_TRUE(sim.halted()) << "program wedged";
    // Accounting invariants.
    EXPECT_GT(sim.cycles(), 0u);
    EXPECT_GE(sim.uopsExecuted(), sim.instructions());
    EXPECT_GE(sim.slotsDelivered(), sim.instructions() / 2);
    // IPC physically bounded by the 4-wide commit (fused domain).
    EXPECT_LE(static_cast<double>(sim.slotsDelivered()) / sim.cycles(),
              4.05);
    // Energy is finite and positive.
    EXPECT_GT(sim.energy().total(), 0.0);
}

TEST_P(SimFuzz, CsdModesPreserveArchitecture)
{
    Random rng(GetParam() ^ 0xf00d);
    Program prog = randomProgram(rng, 100);

    SimParams params;
    params.maxInstructions = 200000;

    // Plain run.
    Simulation plain(prog, params);
    plain.runToHalt();
    ASSERT_TRUE(plain.halted());

    // Devectorize everything + timing noise, same program.
    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    msrs.setControl(ctrlTimingNoise);
    csd.setDevectorize(true);
    Simulation modded(prog, params);
    modded.setCsd(&csd);
    modded.runToHalt();
    ASSERT_TRUE(modded.halted());

    // Architectural state identical in every register.
    for (unsigned r = 0; r < numGprs; ++r) {
        EXPECT_EQ(modded.state().gpr(static_cast<Gpr>(r)),
                  plain.state().gpr(static_cast<Gpr>(r)))
            << gprName(static_cast<Gpr>(r));
    }
    for (unsigned x = 0; x < 4; ++x) {
        EXPECT_EQ(modded.state().xmm(static_cast<Xmm>(x)),
                  plain.state().xmm(static_cast<Xmm>(x)))
            << xmmName(static_cast<Xmm>(x));
    }
}

TEST_P(SimFuzz, DeterministicAcrossRuns)
{
    Random rng(GetParam() ^ 0xd5);
    Program prog = randomProgram(rng, 80);
    SimParams params;
    params.maxInstructions = 100000;

    Simulation a(prog, params), b(prog, params);
    a.runToHalt();
    b.runToHalt();
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.uopsExecuted(), b.uopsExecuted());
    EXPECT_EQ(a.state().gpr(Gpr::R8), b.state().gpr(Gpr::R8));
}

/**
 * The simulator retires every macro through one engine (its resolved
 * uop streams and threaded handlers); this pins that engine to the
 * reference executor's semantics (FunctionalExecutor::execute over
 * native flows) on random programs, in both fidelities, on the
 * interpreter and on the superblock tier.
 */
TEST_P(SimFuzz, EngineMatchesReferenceExecutor)
{
    Random rng(GetParam() ^ 0x3e);
    const Program prog = randomProgram(rng, 100);

    ArchState ref;
    ref.loadProgram(prog);
    FunctionalExecutor exec(ref);
    while (!ref.halted) {
        const MacroOp *op = prog.at(ref.pc);
        ASSERT_NE(op, nullptr);
        exec.execute(*op, translateNative(*op));
    }

    const AddrRange buf = prog.symbol("buf");
    for (const SimMode mode : {SimMode::Detailed, SimMode::CacheOnly}) {
        for (const bool tier : {false, true}) {
            SimParams params;
            params.mode = mode;
            Simulation sim(prog, params);
            sim.setSuperblockEnabled(tier);
            sim.setSuperblockThreshold(1);
            sim.runToHalt();
            ASSERT_TRUE(sim.halted());
            const std::string label =
                std::string(mode == SimMode::Detailed ? "detailed"
                                                      : "cache-only") +
                (tier ? ", tier" : ", interpreter");
            if (tier) {
                EXPECT_GT(sim.fastPath().counters().entries, 0u) << label;
            }

            for (unsigned r = 0; r < numGprs; ++r) {
                EXPECT_EQ(sim.state().gpr(static_cast<Gpr>(r)),
                          ref.gpr(static_cast<Gpr>(r)))
                    << label << " " << gprName(static_cast<Gpr>(r));
            }
            for (unsigned x = 0; x < numXmms; ++x) {
                EXPECT_EQ(sim.state().xmm(static_cast<Xmm>(x)),
                          ref.xmm(static_cast<Xmm>(x)))
                    << label << " " << xmmName(static_cast<Xmm>(x));
            }
            for (Addr a = buf.start; a < buf.end; a += 8) {
                ASSERT_EQ(sim.state().mem.read(a, 8), ref.mem.read(a, 8))
                    << label << " buf+" << (a - buf.start);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
} // namespace csd
