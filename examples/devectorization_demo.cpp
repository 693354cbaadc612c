/**
 * @file
 * Selective devectorization demo (paper Case Study II).
 *
 * Runs one vector-bursty workload under the three VPU power policies
 * and prints time / energy / gating behaviour, then shows a single
 * instruction's native vs scalarized micro-op flows.
 *
 *   ./examples/devectorization_demo
 */

#include <cstdio>

#include "common/env.hh"
#include "csd/csd.hh"
#include "csd/devect.hh"
#include "sim/simulation.hh"
#include "workloads/spec.hh"

using namespace csd;

namespace
{

void
runPolicy(const SpecWorkload &workload, GatingPolicy policy,
          const char *label)
{
    SimParams params;
    Simulation sim(workload.program, params);

    EnergyModel energy(params.energy);
    GatingParams gating;
    gating.policy = policy;
    PowerGateController controller(gating, energy);
    sim.setPowerController(&controller);

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    if (policy == GatingPolicy::CsdDevect)
        sim.setCsd(&csd);

    sim.runToHalt();
    controller.finalize(sim.cycles());

    const auto energy_total = sim.energy().total();
    std::printf("%-16s cycles=%-9llu uops=%-9llu energy=%-9.0f "
                "gated=%4.1f%% stalls=%llu devect_sse=%llu\n",
                label, static_cast<unsigned long long>(sim.cycles()),
                static_cast<unsigned long long>(sim.uopsExecuted()),
                energy_total, 100.0 * controller.gatedFraction(),
                static_cast<unsigned long long>(
                    sim.stats().counterValue("vpu_wake_stalls")),
                static_cast<unsigned long long>(
                    controller.sseCount(SseExecClass::PowerGated) +
                    controller.sseCount(SseExecClass::PoweringOn)));
}

} // namespace

int
main()
{
    // A bad CSD_* knob exits 2 with one message, not an abort.
    Knobs::processOrExit();

    std::printf("=== one instruction, two translations ===\n");
    MacroOp paddb;
    paddb.opcode = MacroOpcode::Paddb;
    paddb.xdst = Xmm::Xmm1;
    paddb.xsrc = Xmm::Xmm2;
    paddb.pc = 0x401000;
    paddb.length = encodedLength(paddb);

    const UopFlow native = translateNative(paddb);
    std::printf("native translation of 'paddb xmm1, xmm2' (%zu uop):\n",
                native.uops.size());
    for (const Uop &uop : native.uops)
        std::printf("    %s\n", toString(uop).c_str());

    const auto scalar = devectorize(paddb);
    std::printf("devectorized (VPU gated) translation (%zu uops, "
                "masked SWAR adds on the integer ALUs):\n",
                scalar->uops.size());
    for (std::size_t i = 0; i < scalar->uops.size() && i < 10; ++i)
        std::printf("    %s\n", toString(scalar->uops[i]).c_str());
    std::printf("    ... (%zu more)\n", scalar->uops.size() - 10);

    std::printf("\n=== milc-like workload under the three policies "
                "===\n");
    const SpecWorkload workload =
        SpecWorkload::build(specPreset("milc"), 300);
    runPolicy(workload, GatingPolicy::AlwaysOn, "always-on");
    runPolicy(workload, GatingPolicy::ConventionalPG, "conventional-pg");
    runPolicy(workload, GatingPolicy::CsdDevect, "csd-devect");

    std::printf("\nCSD keeps the VPU gated through the scalar phases "
                "and scalarizes stray vector work instead of\n"
                "paying 30-cycle demand-wake stalls; conventional "
                "gating stalls, always-on leaks.\n");
    return 0;
}
