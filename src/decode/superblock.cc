#include "decode/superblock.hh"

#include <algorithm>

#include "decode/fusion.hh"

namespace csd
{

SbHandler
sbHandlerFor(MicroOpcode op)
{
    switch (op) {
      case MicroOpcode::Load:        return SbHandler::Load;
      case MicroOpcode::Store:       return SbHandler::Store;
      case MicroOpcode::StoreImm:    return SbHandler::StoreImm;
      case MicroOpcode::LoadVec:     return SbHandler::LoadVec;
      case MicroOpcode::StoreVec:    return SbHandler::StoreVec;
      case MicroOpcode::Br:          return SbHandler::Br;
      case MicroOpcode::BrInd:       return SbHandler::BrInd;
      case MicroOpcode::CacheFlush:  return SbHandler::CacheFlush;
      case MicroOpcode::ReadCycles:  return SbHandler::ReadCycles;
      case MicroOpcode::Nop:         return SbHandler::Nop;
      case MicroOpcode::VAdd: case MicroOpcode::VSub:
      case MicroOpcode::VAnd: case MicroOpcode::VOr:
      case MicroOpcode::VXor: case MicroOpcode::VMulLo16:
      case MicroOpcode::VShlI: case MicroOpcode::VShrI:
      case MicroOpcode::VMov:
      case MicroOpcode::FAddPs: case MicroOpcode::FMulPs:
      case MicroOpcode::FSubPs: case MicroOpcode::FAddPd:
      case MicroOpcode::FMulPd: case MicroOpcode::FSubPd:
      case MicroOpcode::FDivPs: case MicroOpcode::FSqrtPs:
      case MicroOpcode::VInsert:
        return SbHandler::Vector;
      case MicroOpcode::VExtract:    return SbHandler::VExtract;
      case MicroOpcode::FAddS: case MicroOpcode::FSubS:
      case MicroOpcode::FMulS: case MicroOpcode::FDivS:
      case MicroOpcode::FSqrtS:
      case MicroOpcode::FAddSd: case MicroOpcode::FSubSd:
      case MicroOpcode::FMulSd:
        return SbHandler::ScalarFp;
      default:
        return SbHandler::ScalarAlu;
    }
}

namespace
{

/** Does the flow contain a Halt uop (never admitted to a block)? */
bool
containsHalt(const UopFlow &flow)
{
    for (const Uop &uop : flow.uops)
        if (uop.op == MicroOpcode::Halt)
            return true;
    return false;
}

/** Region ends inclusively at an unconditional control transfer. */
bool
endsRegion(MacroOpcode op)
{
    return op == MacroOpcode::Jmp || op == MacroOpcode::JmpInd ||
           op == MacroOpcode::Call || op == MacroOpcode::Ret;
}

} // namespace

const char *
sbExitName(SbExit exit)
{
    // Exhaustive on purpose (no default): a new SbExit enumerator
    // without a sidecar name fails to compile under -Werror=switch,
    // and the static_assert catches a count drift even without it.
    static_assert(numSbExits == 5,
                  "new SbExit enumerator: name it here, give it "
                  "sbExitMeta (sim/fastpath.hh), and extend the "
                  "tier-equivalence exit-protocol proof");
    switch (exit) {
      case SbExit::End:       return "end";
      case SbExit::Branch:    return "branch";
      case SbExit::EpochBump: return "epoch_bump";
      case SbExit::Unstable:  return "unstable";
      case SbExit::Budget:    return "budget";
      case SbExit::NumExits:  break;
    }
    return "?";
}

std::unique_ptr<Superblock>
SuperblockBuilder::build(Addr entry_pc) const
{
    const Program &prog = prog_;
    const FlowCache &fc = fc_;
    const Translator &translator = translator_;
    const EnergyModel &energy = energy_;
    const SuperblockLimits &limits = limits_;

    const std::uint64_t epoch = translator.translationEpoch();
    const MacroOp *const code_base = prog.code().data();

    // Pass 1: pick the region's macros. The picks go to a per-thread
    // scratch list so the block itself is allocated once at its exact
    // size: blocks live as long as their flows, and growth garbage
    // from incremental appends would fragment the heap around them.
    // The list is sized for the cap up front for the same reason: each
    // regrowth would leave its old buffer as a hole between blocks.
    struct Pick
    {
        const MacroOp *op;
        const FlowCache::Entry *entry;
    };
    thread_local std::vector<Pick> picks;
    picks.clear();
    picks.reserve(limits.maxMacros);
    std::uint64_t uop_count = 0;
    Addr pc = entry_pc;
    for (;;) {
        const MacroOp *op = prog.at(pc);
        if (!op)
            break;
        const auto slot = static_cast<std::size_t>(op - code_base);
        if (slot >= fc.slots())
            break;
        // The interpreter owns program termination (Halt commits but
        // isn't counted by run()'s budget).
        if (op->opcode == MacroOpcode::Halt)
            break;
        // Chain instead of overlapping: a live block already starts
        // here, and the fast path enters it from this block's End.
        if (!picks.empty() && blocks_.live(slot, epoch))
            break;
        // An op that is unstable right now still joins the block if
        // its stable translation is cached: the dispatch loop re-runs
        // the stability probe before every macro and hands a vetoed
        // one to the interpreter (Unstable exit, resume at the next).
        const FlowCache::Entry *entry =
            fc.peek(slot, epoch, translator.stableContext(*op));
        if (!entry)
            break;
        const UopFlow &flow = entry->flow;
        if (containsHalt(flow))
            break;

        const std::uint64_t expand = flow.expandedCount();
        if (picks.size() >= limits.maxMacros ||
            uop_count + expand > limits.maxUops)
            break;
        picks.push_back({op, entry});
        uop_count += expand;

        if (endsRegion(op->opcode))
            break;
        // Conditional branches stay mid-block: the stream follows the
        // fall-through edge and exits dynamically when one is taken.
        pc = op->nextPc();
    }
    if (picks.size() < limits.minMacros)
        return nullptr;

    // Pass 2: resolve the stream.
    auto block = std::make_unique<Superblock>();
    block->entryPc = entry_pc;
    block->epoch = epoch;
    block->macros.reserve(picks.size());
    block->uops.reserve(uop_count);

    // Emit uop @p i of the entry's flow (one of its dynamic expansion)
    // into the stream, folding in the per-macro accounting deltas
    // stepCacheOnly derives at run time.
    const auto emit = [&](const FlowCache::Entry &entry, std::size_t i,
                          SbMacro &macro) {
        const Uop &uop = entry.flow.uops[i];
        SbOp sbop;
        sbop.uop = &uop;
        sbop.timing = &entry.timing[i];
        sbop.bits = sbop.timing->bits;
        sbop.energy = energy.uopEnergy(uop);
        sbop.handler = sbHandlerFor(uop.op);
        block->uops.push_back(sbop);
        ++macro.dynCount;
        if (!uop.eliminated) {
            ++macro.delivered;
            if (uop.decoy)
                ++macro.decoyDelta;
        }
    };

    for (const Pick &pick : picks) {
        const MacroOp *op = pick.op;
        const FlowCache::Entry &entry = *pick.entry;
        const UopFlow &flow = entry.flow;
        SbMacro macro;
        macro.op = op;
        macro.flow = &flow;
        macro.ctx = static_cast<std::uint16_t>(entry.ctx);
        macro.fallThrough = op->nextPc();
        macro.frontEndSlots =
            static_cast<std::uint32_t>(deliveredSlots(flow));
        macro.fetchFirst = blockAlign(op->pc);
        macro.fetchLast = blockAlign(op->pc + op->length - 1);
        macro.uopBegin = static_cast<std::uint32_t>(block->uops.size());
        // Build provenance: the dispatch loop performs the full guard
        // sequence before every macro (sim/fastpath.cc); the prover
        // audits these bits against the effects in the uop range.
        macro.guards = sbGuardAll;

        // Mirror FunctionalExecutor::executeInto's expansion order:
        // prologue, body x tripCount, epilogue.
        if (flow.loop) {
            const MicroLoop &loop = *flow.loop;
            macro.unrollTrips = loop.tripCount;
            for (std::size_t i = 0; i < loop.bodyStart; ++i)
                emit(entry, i, macro);
            for (std::uint32_t trip = 0; trip < loop.tripCount; ++trip)
                for (std::size_t i = loop.bodyStart; i < loop.bodyEnd; ++i)
                    emit(entry, i, macro);
            for (std::size_t i = loop.bodyEnd; i < flow.uops.size(); ++i)
                emit(entry, i, macro);
        } else {
            for (std::size_t i = 0; i < flow.uops.size(); ++i)
                emit(entry, i, macro);
        }
        macro.uopEnd = static_cast<std::uint32_t>(block->uops.size());
        block->maxMacroUops =
            std::max(block->maxMacroUops, macro.uopEnd - macro.uopBegin);
        block->macros.push_back(macro);
    }
    return block;
}

} // namespace csd
