#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "power/gating.hh"

namespace csd
{
namespace
{

MacroOp
scalarOp(Addr pc)
{
    MacroOp op;
    op.opcode = MacroOpcode::Add;
    op.pc = pc;
    op.length = 3;
    return op;
}

MacroOp
vectorOp(Addr pc)
{
    MacroOp op;
    op.opcode = MacroOpcode::Paddd;
    op.xdst = Xmm::Xmm0;
    op.xsrc = Xmm::Xmm1;
    op.pc = pc;
    op.length = 4;
    return op;
}

TEST(Gating, AlwaysOnNeverGates)
{
    EnergyModel energy;
    GatingParams params;
    params.policy = GatingPolicy::AlwaysOn;
    PowerGateController ctrl(params, energy);
    Tick now = 0;
    for (int i = 0; i < 10000; ++i) {
        const auto d = ctrl.onMacroOp(scalarOp(0x1000), now, 0);
        EXPECT_FALSE(d.devectorize);
        EXPECT_EQ(d.stallCycles, 0u);
        ++now;
    }
    ctrl.finalize(now);
    EXPECT_EQ(ctrl.gatedCycles(), 0u);
    EXPECT_EQ(ctrl.gateEvents(), 0u);
}

TEST(Gating, ConventionalGatesAfterIdleAndStallsOnDemand)
{
    EnergyModel energy;
    GatingParams params;
    params.policy = GatingPolicy::ConventionalPG;
    params.idleGateThreshold = 100;
    PowerGateController ctrl(params, energy);

    Tick now = 0;
    // One vector op, then a long scalar stretch.
    ctrl.onMacroOp(vectorOp(0x1000), now, 1);
    for (int i = 0; i < 500; ++i)
        ctrl.onMacroOp(scalarOp(0x2000), ++now, 0);
    EXPECT_EQ(ctrl.state(), VpuState::Gated);

    // Demand wake stalls for the power-on latency.
    const auto d = ctrl.onMacroOp(vectorOp(0x1000), ++now, 1);
    EXPECT_FALSE(d.devectorize);
    EXPECT_EQ(d.stallCycles, energy.params().vpuWakeLatency);
    EXPECT_EQ(ctrl.state(), VpuState::On);
    ctrl.finalize(now + d.stallCycles);
    EXPECT_GT(ctrl.gatedCycles(), 0u);
    EXPECT_EQ(ctrl.sseCount(SseExecClass::PoweredOn), 2u);
}

TEST(Gating, CsdDevectorizesInsteadOfStalling)
{
    EnergyModel energy;
    GatingParams params;
    params.policy = GatingPolicy::CsdDevect;
    params.windowInstrs = 64;
    params.lowWatermark = 0;
    params.highWatermark = 32;
    PowerGateController ctrl(params, energy);

    Tick now = 0;
    // Scalar phase: window count drops to 0 -> gate.
    for (int i = 0; i < 200; ++i)
        ctrl.onMacroOp(scalarOp(0x2000), ++now, 0);
    EXPECT_EQ(ctrl.state(), VpuState::Gated);

    // An isolated vector op: devectorize, no stall, stay gated.
    const auto d = ctrl.onMacroOp(vectorOp(0x1000), ++now, 1);
    EXPECT_TRUE(d.devectorize);
    EXPECT_EQ(d.stallCycles, 0u);
    EXPECT_EQ(ctrl.state(), VpuState::Gated);
    EXPECT_EQ(ctrl.sseCount(SseExecClass::PowerGated), 1u);
}

TEST(Gating, CsdWakesOnSustainedVectorActivity)
{
    EnergyModel energy;
    GatingParams params;
    params.policy = GatingPolicy::CsdDevect;
    params.windowInstrs = 64;
    params.lowWatermark = 0;
    params.highWatermark = 8;
    PowerGateController ctrl(params, energy);

    Tick now = 0;
    for (int i = 0; i < 200; ++i)
        ctrl.onMacroOp(scalarOp(0x2000), ++now, 0);
    ASSERT_EQ(ctrl.state(), VpuState::Gated);

    // Burst of vector work: crosses the high watermark, initiates a
    // wake; instructions during the wake are devectorized (Fig. 16's
    // PoweringOn class), then run on the VPU.
    bool saw_waking = false, saw_on = false;
    for (int i = 0; i < 100; ++i) {
        const auto d = ctrl.onMacroOp(vectorOp(0x1000), ++now, 1);
        if (ctrl.state() == VpuState::PoweringOn) {
            saw_waking = true;
            EXPECT_TRUE(d.devectorize);
        }
        if (ctrl.state() == VpuState::On) {
            saw_on = true;
            EXPECT_FALSE(d.devectorize);
        }
    }
    EXPECT_TRUE(saw_waking);
    EXPECT_TRUE(saw_on);
    EXPECT_GT(ctrl.sseCount(SseExecClass::PoweringOn), 0u);
    EXPECT_GT(ctrl.sseCount(SseExecClass::PoweredOn), 0u);
}

TEST(Gating, WindowCountsExactlyTheLastWindowInstrs)
{
    // A 4-instruction window with the wake watermark at 3: the count
    // must drop the oldest weight exactly when a fifth op arrives.
    EnergyModel energy;
    GatingParams params;
    params.policy = GatingPolicy::CsdDevect;
    params.windowInstrs = 4;
    params.lowWatermark = 0;
    params.highWatermark = 3;
    PowerGateController ctrl(params, energy);

    Tick now = 0;
    for (int i = 0; i < 10; ++i)
        ctrl.onMacroOp(scalarOp(0x2000), ++now, 0);
    ASSERT_EQ(ctrl.state(), VpuState::Gated);

    // v v s s v: the last four hold two vector ops (a 5-wide window
    // would hold three and wake).
    for (const bool vec : {true, true, false, false, true}) {
        ctrl.onMacroOp(vec ? vectorOp(0x1000) : scalarOp(0x2000), ++now,
                       vec ? 1 : 0);
    }
    EXPECT_EQ(ctrl.state(), VpuState::Gated);
    ctrl.onMacroOp(vectorOp(0x1000), ++now, 1);  // s s v v
    EXPECT_EQ(ctrl.state(), VpuState::Gated);
    ctrl.onMacroOp(vectorOp(0x1000), ++now, 1);  // s v v v
    EXPECT_EQ(ctrl.state(), VpuState::PoweringOn);
}

TEST(Gating, CycleAccountingSumsToTotal)
{
    EnergyModel energy;
    GatingParams params;
    params.policy = GatingPolicy::CsdDevect;
    params.windowInstrs = 32;
    params.lowWatermark = 0;
    params.highWatermark = 4;
    PowerGateController ctrl(params, energy);

    Tick now = 0;
    for (int phase = 0; phase < 4; ++phase) {
        for (int i = 0; i < 100; ++i)
            ctrl.onMacroOp(scalarOp(0x2000), ++now, 0);
        for (int i = 0; i < 50; ++i)
            ctrl.onMacroOp(vectorOp(0x1000), ++now, 1);
    }
    ctrl.finalize(now);
    EXPECT_EQ(ctrl.gatedCycles() + ctrl.wakingCycles() + ctrl.onCycles(),
              now);
    EXPECT_GT(ctrl.gatedFraction(), 0.0);
    EXPECT_LT(ctrl.gatedFraction(), 1.0);
}

TEST(Gating, GatedFractionHighForScalarCode)
{
    EnergyModel energy;
    GatingParams params;
    params.policy = GatingPolicy::CsdDevect;
    PowerGateController ctrl(params, energy);
    Tick now = 0;
    for (int i = 0; i < 100000; ++i)
        ctrl.onMacroOp(scalarOp(0x2000), ++now, 0);
    ctrl.finalize(now);
    EXPECT_GT(ctrl.gatedFraction(), 0.95);
}

/**
 * The event gate against the every-instruction reference: two
 * controllers see one random instruction stream, the reference through
 * onMacroOp() for every instruction, the other only when skipMacro()
 * passes the instruction on, as the simulator drives it. Every skipped
 * instruction must be one the reference answered {false, 0} while the
 * devectorization switch the directives drive was already off, every
 * directive must match, the state must match after every instruction,
 * and counters, gated stretches and cycle totals after finalize().
 *
 * The streams mix scalar runs (some far longer than the largest window
 * and the idle thresholds), sparse and dense vector bursts, vector
 * loads that weigh in the window without using the VPU, multi-uop
 * weights, cycle jumps, demand-wake stalls added to the clock as the
 * simulator adds them, and a finalize() midway in half of them.
 */
struct StreamConfig
{
    const char *name;
    GatingParams params;
    EnergyParams energy;
};

std::vector<StreamConfig>
streamConfigs()
{
    const auto gating = [](unsigned window, unsigned low, unsigned high,
                           Cycles idle) {
        GatingParams p;
        p.windowInstrs = window;
        p.lowWatermark = low;
        p.highWatermark = high;
        p.idleGateThreshold = idle;
        return p;
    };
    EnergyParams never_repays;  // break-even time unreachable
    never_repays.headerLeakage = never_repays.vpuLeakage;
    return {
        {"defaults", GatingParams{}, EnergyParams{}},
        {"window1", gating(1, 0, 1, 150), EnergyParams{}},
        {"window16-low0", gating(16, 0, 4, 40), EnergyParams{}},
        {"window256-low0", gating(256, 0, 32, 300), EnergyParams{}},
        {"idle-below-break-even", gating(16, 2, 8, 1), EnergyParams{}},
        {"high-at-low", gating(16, 3, 3, 60), EnergyParams{}},
        {"high0", gating(4, 0, 0, 60), EnergyParams{}},
        {"window0", gating(0, 0, 1, 60), EnergyParams{}},
        {"never-repays", gating(16, 2, 8, 60), never_repays},
    };
}

/** Compare one stream; returns the first divergence, empty if none,
 *  and adds the stream's skipped instructions to @p skipped. */
std::string
compareStream(const StreamConfig &config, GatingPolicy policy,
              std::uint64_t seed, std::uint64_t &skipped)
{
    GatingParams params = config.params;
    params.policy = policy;
    const EnergyModel energy(config.energy);
    PowerGateController ref(params, energy);
    PowerGateController dut(params, energy);
    std::mt19937_64 rng(seed);
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };

    MacroOp scalar = scalarOp(0x2000);
    MacroOp vec_arith = vectorOp(0x1000);
    MacroOp vec_load = vectorOp(0x1004);
    vec_load.opcode = MacroOpcode::MovdqaLoad;

    const std::uint64_t midway_finalize = seed % 2 ? 3 : ~0ull;
    std::uint64_t skips = 0;
    Tick now = below(50);
    std::uint64_t n = 0;
    bool devectorizing = false;  //!< as the last directive received set it
    for (unsigned phase = 0; phase < 8; ++phase) {
        if (phase == midway_finalize) {
            ref.finalize(now);
            dut.finalize(now);
        }
        // Scalar run: short, window-scale, or a long idle gap.
        const std::uint64_t scalars = below(3) == 0 ? below(20)
            : below(2) == 0                        ? below(600)
                                                   : 1000 + below(4000);
        // Vector burst density in percent (0: none).
        const unsigned density = below(4) == 0 ? 0
            : below(2) == 0                    ? 2 + below(20)
                                               : 50 + below(51);
        const std::uint64_t burst = below(400);
        for (std::uint64_t i = 0; i < scalars + burst; ++i, ++n) {
            const bool in_burst = i >= scalars;
            const bool is_vec = in_burst && below(100) < density;
            const MacroOp &op = !is_vec ? scalar
                : below(5) == 0         ? vec_load
                                        : vec_arith;
            const unsigned vec_uops =
                &op == &vec_arith ? 1 + (below(4) == 0 ? below(3) : 0) : 0;
            // Mostly a cycle or two per instruction; sometimes a miss.
            now += below(50) == 0 ? 40 + below(400) : below(3);

            const PowerGateController::Directive want =
                ref.onMacroOp(op, now, vec_uops);
            const auto at = [&](const char *what) {
                std::ostringstream os;
                os << config.name << " policy " << static_cast<int>(policy)
                   << " seed " << seed << " instruction " << n << ": "
                   << what;
                return os.str();
            };
            if (dut.skipMacro(op, now)) {
                ++skips;
                if (want.devectorize || want.stallCycles != 0)
                    return at("skipped an active directive");
            } else {
                const PowerGateController::Directive got =
                    dut.onMacroOp(op, now, vec_uops);
                if (got.devectorize != want.devectorize ||
                    got.stallCycles != want.stallCycles)
                    return at("directives differ");
                devectorizing = got.devectorize;
            }
            // The simulator's devectorization switch follows the
            // directives it receives, so a skip must find it off.
            if (devectorizing != want.devectorize)
                return at("devectorization left on");
            if (dut.state() != ref.state())
                return at("states differ");
            now += want.stallCycles;  // the demand wake stalls
        }
    }
    ref.finalize(now);
    dut.finalize(now);

    std::ostringstream want_stats, got_stats;
    ref.stats().dumpJson(want_stats);
    dut.stats().dumpJson(got_stats);
    std::ostringstream at;
    at << config.name << " policy " << static_cast<int>(policy) << " seed "
       << seed << " after finalize: ";
    if (got_stats.str() != want_stats.str())
        return at.str() + "stats differ:\n" + got_stats.str() + "\n" +
               want_stats.str();
    if (dut.gatedCycles() != ref.gatedCycles() ||
        dut.wakingCycles() != ref.wakingCycles() ||
        dut.onCycles() != ref.onCycles())
        return at.str() + "cycle totals differ";
    if (dut.state() != ref.state())
        return at.str() + "states differ";
    if (dut.macros() != ref.macros() || ref.calls() != ref.macros() ||
        dut.calls() + skips != dut.macros())
        return at.str() + "instruction counts differ";
    skipped += skips;
    return {};
}

TEST(GatingDifferential, EventGateMatchesEveryInstructionReference)
{
    for (const StreamConfig &config : streamConfigs()) {
        for (const GatingPolicy policy :
             {GatingPolicy::AlwaysOn, GatingPolicy::ConventionalPG,
              GatingPolicy::CsdDevect}) {
            std::uint64_t skipped = 0;
            for (std::uint64_t seed = 1; seed <= 64; ++seed) {
                const std::string diff =
                    compareStream(config, policy, seed, skipped);
                ASSERT_TRUE(diff.empty()) << diff;
            }
            // The gate engages under every configuration.
            EXPECT_GT(skipped, 0u) << config.name;
        }
    }
}

} // namespace
} // namespace csd
