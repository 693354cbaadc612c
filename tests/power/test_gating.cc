#include <gtest/gtest.h>

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

} // namespace
} // namespace csd
