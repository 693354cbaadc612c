#include "decode/superblock.hh"

namespace csd
{

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
    const SuperblockLimits &limits = limits_;

    const std::uint64_t epoch = translator.translationEpoch();
    const MacroOp *const code_base = prog.code().data();

    // Pass 1: pick the region's macros. The picks go to a per-thread
    // scratch list so the block itself is allocated once at its exact
    // size: blocks live as long as their flows, and growth garbage
    // from incremental appends would fragment the heap around them.
    // The list is sized for the cap up front for the same reason: each
    // regrowth would leave its old buffer as a hole between blocks.
    thread_local std::vector<const FlowCache::Entry *> picks;
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
        picks.push_back(entry);
        uop_count += expand;

        if (endsRegion(op->opcode))
            break;
        // Conditional branches stay mid-block: the stream follows the
        // fall-through edge and exits dynamically when one is taken.
        pc = op->nextPc();
    }
    if (picks.size() < limits.minMacros)
        return nullptr;

    // Pass 2: list the entries' resolved macros.
    auto block = std::make_unique<Superblock>();
    block->entryPc = entry_pc;
    block->epoch = epoch;
    block->macros.reserve(picks.size());
    for (const FlowCache::Entry *entry : picks)
        block->macros.push_back(&entry->macro);
    return block;
}

} // namespace csd
