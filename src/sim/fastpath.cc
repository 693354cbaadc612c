#include "sim/fastpath.hh"

#include "csd/csd.hh"
#include "sim/simulation.hh"

namespace csd
{

std::uint64_t
FastPath::run(std::uint64_t budget, bool at_head)
{
    // Resolve the per-run-invariant branches once: the concrete
    // translator type (native hooks fold away; the CSD's inline
    // hooks devirtualize), DIFT presence, and the fidelity select a
    // specialization, so the per-macro loop carries no dead virtual
    // calls. run() is re-entered at every region head, so the
    // dynamic_cast result is memoized until the simulation swaps
    // translators.
    Translator *const tr = sim_.translator_;
    if (tr != resolvedFor_) {
        resolvedFor_ = tr;
        resolvedCsd_ = dynamic_cast<ContextSensitiveDecoder *>(tr);
    }
    const bool taint = sim_.taint_ != nullptr;
    const bool detailed = sim_.params_.mode == SimMode::Detailed;
    const auto go = [&]<class Tr>(Tr &typed) -> std::uint64_t {
        if (detailed) {
            return taint ? runImpl<Tr, true, true>(typed, budget, at_head)
                         : runImpl<Tr, false, true>(typed, budget, at_head);
        }
        return taint ? runImpl<Tr, true, false>(typed, budget, at_head)
                     : runImpl<Tr, false, false>(typed, budget, at_head);
    };
    if (tr == &sim_.nativeTranslator_)
        return go(sim_.nativeTranslator_);
    // Simulation::tierEngaged() admits no other translator.
    return go(*resolvedCsd_);
}

template <class Tr, bool Taint, bool Detailed>
std::uint64_t
FastPath::runImpl(Tr &tr, std::uint64_t budget, bool at_head)
{
    // Mirror step()'s maxInstructions gate.
    const std::uint64_t max = sim_.params_.maxInstructions;
    const std::uint64_t done = sim_.instructions_.value();
    if (done >= max)
        return 0;
    budget = std::min(budget, max - done);

    const MacroOp *const code_base = sim_.prog_.code().data();
    std::uint64_t executed = 0;

    // Re-entry at the point the previous call left (Resume), if control
    // is still there: the interpreter retired the op the tier could not
    // run and fell through, or a budget slice ended there. A block to
    // resume continues at its macro; otherwise the point counts as a
    // region head.
    const Superblock *block = nullptr;
    std::size_t macro = 0;
    if (resume_.pc == sim_.state_.pc) {
        if (resume_.block) {
            block = resume_.block;
            macro = resume_.macro;
            ++counters_.resumes;
        }
        at_head = true;
    }
    resume_ = {};
    if (!at_head)
        return 0;

    // A lookup that fails right after a block ran (the chained op is
    // cold, not compilable, or must be translated now) leaves a retry
    // point after that op: once the interpreter retired it, the next
    // block may start there. Failing again before any block ran does
    // not re-arm it, so an uncompilable stretch costs one probe per
    // block exit, not one per interpreted op.
    bool progressed = false;
    while (executed < budget && !sim_.state_.halted) {
        if (!block) {
            const MacroOp *op = sim_.prog_.at(sim_.state_.pc);
            if (!op)
                break;  // the interpreter owns the fetch-fault fatal
            const auto slot = static_cast<std::size_t>(op - code_base);
            if (slot >= cache_.slots())
                break;
            if (op->opcode == MacroOpcode::Halt)
                break;  // Halt commits via the interpreter, uncounted

            // The interpreter's order at a macro is power hook, tick,
            // translate. The hook runs here once: the op retires next,
            // in the block found below or else in step(), and the mark
            // keeps either from observing it again.
            if (sim_.power_) {
                sim_.powerHook(*op);
                sim_.hookedPc_ = op->pc;
            }
            // Fire any due watchdog before consulting, exactly where
            // the interpreter would (step() ticks before translating).
            // The matching per-macro tick in execBlock at the same
            // cycle is a no-op: the watchdog disarms when it fires.
            tr.tick(sim_.cycles_);
            const std::uint64_t epoch = tr.translationEpoch();

            Superblock *head = cache_.at(slot);
            if (head && head->epoch != epoch) {
                cache_.invalidate(slot);
                ++counters_.invalidated;
                head = nullptr;
            }
            const auto retry_after = [&] {
                if (progressed)
                    resume_ = {op->nextPc(), nullptr, 0};
            };
            if (!head && !tr.translationStable(*op)) {
                // No block starts at an op the interpreter must
                // translate right now (a pending decoy injection).
                retry_after();
                break;
            }
            if (!head) {
                if (sim_.flowCache_.bumpHeat(slot) < threshold_) {
                    retry_after();
                    break;
                }
                std::unique_ptr<Superblock> built =
                    SuperblockBuilder(sim_.prog_, sim_.flowCache_,
                                      *sim_.translator_, sim_.energyModel_,
                                      cache_, limits_)
                        .build(sim_.state_.pc);
                if (!built) {
                    // Nothing compilable here (uncached/unstable
                    // region); back off so the next visits don't
                    // retry immediately.
                    ++counters_.buildAborts;
                    sim_.flowCache_.coolSlot(slot);
                    retry_after();
                    break;
                }
                ++counters_.built;
                counters_.blockMacros += built->macros.size();
                counters_.blockUops += built->uops.size();
                cache_.install(slot, std::move(built));
                head = cache_.at(slot);
            }
            block = head;
            macro = 0;
        }

        ++counters_.entries;
        const SbExit exit = execBlock<Tr, Taint, Detailed>(
            tr, *block, macro, budget, executed);
        ++counters_.exits[static_cast<unsigned>(exit)];
        progressed = true;
        const SbExitMeta meta = sbExitMeta(exit);
        if (meta.reentersBlock) {
            const std::size_t next = macro + meta.interpreterMacros;
            if (next < block->macros.size())
                resume_ = {block->macros[next].op->pc, block, next};
            else  // the vetoed macro was the last: chain after it
                resume_ = {block->macros.back().fallThrough, nullptr, 0};
        }
        if (meta.resumesInterpreter)
            break;
        // End or Branch landed on a new region head: chain into its
        // block (or compile it) without surfacing to the interpreter.
        block = nullptr;
    }
    return executed;
}

template <class Tr, bool Taint, bool Detailed>
SbExit
FastPath::execBlock(Tr &tr, const Superblock &block, std::size_t &macro,
                    std::uint64_t budget, std::uint64_t &executed)
{
    // The retire routine accumulates the simulation's per-macro
    // counters (and the cache-only clock) in a tally local to the
    // block, flushed at every exit, so the loop carries no
    // read-modify-write of member counters per macro. The final member
    // values are identical to per-macro updates — these are all integer
    // sums. The tier's own counts ride along the same way.
    Simulation::RetireTally tally{sim_.cycles_, sim_.lastFetchBlock_};
    std::uint64_t retired = 0;
    std::uint64_t retired_uops = 0;
    const auto leave = [&](SbExit exit) {
        sim_.flushTally(tally);
        // Each retired macro is a flow-cache hit the interpreted step
        // would have probed.
        sim_.flowCache_.hits += retired;
        counters_.macrosRetired += retired;
        counters_.uopsRetired += retired_uops;
        return exit;
    };

    const std::size_t macros = block.macros.size();
    for (; macro < macros; ++macro) {
        const SbMacro &m = block.macros[macro];
        if (executed >= budget)
            return leave(SbExit::Budget);

        // The interpreter's per-step protocol, in order: the power
        // hook, then the translator's tick (watchdog), epoch currency,
        // per-op stability, and the stable context the block's flow
        // was cached under (a devectorization toggle moves it without
        // an epoch bump). Any mid-block change surfaces here at the
        // macro boundary and hands the macro to the interpreter, whose
        // step() then skips the hook that already ran. For the native
        // translator every translator check folds to a constant.
        if (sim_.power_) {
            // The hook reads and may advance the clock.
            if constexpr (!Detailed)
                sim_.flushTally(tally);
            sim_.powerHook(*m.op);
            if constexpr (!Detailed)
                tally.cycles = sim_.cycles_;
        }
        const auto hand_back = [&](SbExit exit) {
            if (sim_.power_)
                sim_.hookedPc_ = m.op->pc;
            return leave(exit);
        };
        tr.tick(Detailed ? sim_.cycles_ : tally.cycles);
        if (tr.translationEpoch() != block.epoch)
            return hand_back(SbExit::EpochBump);
        if (!tr.translationStable(*m.op) || tr.stableContext(*m.op) != m.ctx)
            return hand_back(SbExit::Unstable);
        tr.noteCachedTranslation(*m.op, *m.flow, m.ctx);

        sim_.retireMacro<Taint, Detailed>(m, &block.uops[m.uopBegin], tally,
                                          nullptr);
        ++retired;
        retired_uops += m.dynCount;
        ++executed;
        if (sim_.state_.pc != m.fallThrough)
            return leave(SbExit::Branch);
    }
    return leave(SbExit::End);
}

} // namespace csd
