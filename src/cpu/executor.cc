#include "cpu/executor.hh"

// The per-uop bodies (agen, execScalarAlu, execScalarFp, execVector,
// execUop) are inline in executor.hh so the simulator's retire routine
// (sim/retire.cc) can absorb them; only the flow-level loop lives here.

namespace csd
{

FlowResult
FunctionalExecutor::execute(const MacroOp &macro, const UopFlow &flow)
{
    FlowResult result;
    executeInto(macro, flow, result);
    return result;
}

void
FunctionalExecutor::executeInto(const MacroOp &macro, const UopFlow &flow,
                                FlowResult &result)
{
    result.dynUops.clear();  // keeps any spilled heap buffer
    result.nextPc = macro.nextPc();
    result.tookBranch = false;
    result.halted = false;
    result.dynUops.reserve(flow.expandedCount());

    auto run_range = [&](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last && !result.halted; ++i) {
            const Uop &uop = flow.uops[i];
            DynUop dyn;
            dyn.uop = &uop;
            execUop(uop, dyn, result, macro.nextPc());
            result.dynUops.push_back(dyn);
        }
    };

    if (flow.loop) {
        const MicroLoop &loop = *flow.loop;
        if (loop.bodyEnd > flow.uops.size() ||
            loop.bodyStart > loop.bodyEnd) {
            csd_panic("FunctionalExecutor: malformed micro-loop");
        }
        run_range(0, loop.bodyStart);
        for (std::uint32_t trip = 0; trip < loop.tripCount; ++trip)
            run_range(loop.bodyStart, loop.bodyEnd);
        run_range(loop.bodyEnd, flow.uops.size());
    } else {
        run_range(0, flow.uops.size());
    }

    state_.pc = result.nextPc;
}

} // namespace csd
