#include "decode/superblock.hh"

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
      case MicroOpcode::Halt:        return SbHandler::Halt;
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

/**
 * Append uops [@p lo, @p hi) of @p flow to @p uops, counting delivered
 * uops and front-end slots. Forced inline: resolveMacro runs once per
 * interpreted macro.
 */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline void
emitUops(const UopFlow &flow, const UopTimingRec *timing,
         const EnergyModel &energy, std::size_t lo, std::size_t hi,
         std::vector<SbOp> &uops, std::uint32_t &delivered,
         std::uint32_t &slots)
{
    for (std::size_t i = lo; i < hi; ++i) {
        const Uop &uop = flow.uops[i];
        const UopTimingRec &rec = timing[i];
        uops.push_back({&uop, &rec, energy.fuEnergy(rec.fu), rec.bits,
                        sbHandlerFor(uop.op)});
        if (!uop.eliminated) {
            ++delivered;
            slots += uop.fusedFollower ? 0 : 1;
        }
    }
}

} // namespace

SbMacro
resolveMacro(const MacroOp &op, const UopFlow &flow,
             const UopTimingRec *timing, unsigned ctx,
             const EnergyModel &energy, std::vector<SbOp> &uops)
{
    const auto begin = static_cast<std::uint32_t>(uops.size());
    std::uint32_t delivered = 0;
    std::uint32_t slots = 0;
    // The expansion: prologue, body x tripCount, epilogue.
    if (!flow.loop) {
        emitUops(flow, timing, energy, 0, flow.uops.size(), uops, delivered,
                 slots);
    } else {
        const MicroLoop &loop = *flow.loop;
        emitUops(flow, timing, energy, 0, loop.bodyStart, uops, delivered,
                 slots);
        for (std::uint32_t trip = 0; trip < loop.tripCount; ++trip)
            emitUops(flow, timing, energy, loop.bodyStart, loop.bodyEnd,
                     uops, delivered, slots);
        emitUops(flow, timing, energy, loop.bodyEnd, flow.uops.size(), uops,
                 delivered, slots);
    }
    const auto end = static_cast<std::uint32_t>(uops.size());
    return {.op = &op,
            .flow = &flow,
            .fallThrough = op.nextPc(),
            .fetchFirst = blockAlign(op.pc),
            .fetchLast = blockAlign(op.pc + op.length - 1),
            .uopBegin = begin,
            .uopEnd = end,
            .dynCount = end - begin,
            .delivered = delivered,
            .frontEndSlots = slots,
            .ctx = static_cast<std::uint16_t>(ctx),
            // Build provenance: the tier performs the full guard
            // sequence before every macro (sim/retire.cc); the
            // prover audits these bits against the uop range's effects.
            .guards = sbGuardAll};
}

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
        // its stable translation is cached: the tier re-runs the
        // stability probe before every macro and hands a vetoed
        // one to the interpreter (Unstable exit, resume at the next).
        // The head's context is the live one; a later op's is
        // predicted from its slot's most recent use (a power
        // controller toggles devectorization per macro), and the
        // tier's context guard vetoes a wrong prediction the same way.
        const FlowCache::Entry *entry =
            picks.empty()
                ? fc.peek(slot, epoch, translator.stableContext(*op))
                : fc.peekRecent(slot, epoch);
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
    for (const Pick &pick : picks) {
        const FlowCache::Entry &entry = *pick.entry;
        block->macros.push_back(resolveMacro(*pick.op, entry.flow,
                                             entry.timing.data(), entry.ctx,
                                             energy, block->uops));
    }
    return block;
}

} // namespace csd
