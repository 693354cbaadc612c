#include "sim/fastpath.hh"

#include "sim/simulation.hh"

namespace csd
{

FastPath::Cursor
FastPath::enter(const MacroOp &op, bool head, std::uint64_t epoch,
                bool stable)
{
    Cursor at = cursor_;
    cursor_ = {};
    if (at.block && (*at.macro)->op == &op) {
        ++counters_.resumes;
        ++counters_.entries;
        return at;
    }
    const auto slot =
        static_cast<std::size_t>(&op - sim_.prog_.code().data());
    // A Halt is translated and retires uncounted.
    if (!head || op.opcode == MacroOpcode::Halt || slot >= cache_.slots())
        return {};

    Superblock *block = cache_.at(slot);
    if (block && block->epoch != epoch) {
        cache_.invalidate(slot);
        ++counters_.invalidated;
        block = nullptr;
    }
    if (!block) {
        // No block starts at an op that must be translated right now
        // (a pending decoy injection), nor at a cold head.
        if (!stable || sim_.flowCache_.bumpHeat(slot) < threshold_)
            return {};
        std::unique_ptr<Superblock> built =
            SuperblockBuilder(sim_.prog_, sim_.flowCache_, *sim_.translator_,
                              cache_, limits_)
                .build(op.pc);
        if (!built) {
            // Nothing compilable here (uncached/unstable region); back
            // off so the next visits don't retry immediately.
            ++counters_.buildAborts;
            sim_.flowCache_.coolSlot(slot);
            return {};
        }
        ++counters_.built;
        counters_.blockMacros += built->macros.size();
        counters_.blockUops += built->uopCount();
        cache_.install(slot, std::move(built));
        block = cache_.at(slot);
    }
    ++counters_.entries;
    return {block, block->macros.data()};
}

void
FastPath::leave(const Cursor &from, const SbMacro *const *stop, SbExit exit,
                std::uint64_t uops)
{
    const auto retired = static_cast<std::uint64_t>(stop - from.macro);
    // Each retired macro counts as the flow-cache hit its translation
    // would have been.
    sim_.flowCache_.hits += retired;
    counters_.macrosRetired += retired;
    counters_.uopsRetired += uops;
    ++counters_.exits[static_cast<unsigned>(exit)];

    const SbExitMeta meta = sbExitMeta(exit);
    if (!meta.reentersBlock)
        return;
    const SbMacro *const *next = stop + meta.interpreterMacros;
    if (next != from.block->macros.data() + from.block->macros.size())
        cursor_ = {from.block, next};
}

} // namespace csd
