#include "sim/fastpath.hh"

#include "common/stats.hh"
#include "csd/csd.hh"
#include "sim/detailed.hh"
#include "sim/simulation.hh"

// Computed-goto (labels-as-values) dispatch where available; the
// portable build falls back to a dense switch over SbHandler.
#if defined(__GNUC__) || defined(__clang__)
#define CSD_SB_COMPUTED_GOTO 1
#else
#define CSD_SB_COMPUTED_GOTO 0
#endif

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
    ArchState &state = sim_.state_;
    MemHierarchy &mem = *sim_.mem_;
    FunctionalExecutor &exec = sim_.executor_;

    // The per-macro bookkeeping accumulates in locals (registers) and
    // flushes to the simulation members at every exit, so the loop
    // carries no read-modify-write of member counters per macro. The
    // final member values are identical to per-macro updates — these
    // are all integer sums. Energy scalars are NOT localized: double
    // addition is order-sensitive and must stay per-uop. Detailed mode
    // keeps the clock in the simulation: its timing consumer owns it.
    const bool detail = statsDetailEnabled();
    const bool sampling = sim_.sampleInterval_ != 0;
    Tick cycles = sim_.cycles_;
    Addr last_fetch = sim_.lastFetchBlock_;
    std::uint64_t d_instr = 0;
    std::uint64_t d_uops = 0;
    std::uint64_t d_hits = 0;
    std::uint64_t d_slots = 0;
    std::uint64_t d_decoys = 0;

    Addr *effs = nullptr;
    if constexpr (Detailed) {
        if (effs_.size() < block.maxMacroUops)
            effs_.resize(block.maxMacroUops);
        effs = effs_.data();
    }

    const auto flush = [&] {
        if constexpr (!Detailed) {
            sim_.cycles_ = cycles;
            sim_.lastFetchBlock_ = last_fetch;
            sim_.slotsDelivered_ += d_slots;
            sim_.decoyUopsExecuted_ += d_decoys;
        }
        sim_.instructions_ += d_instr;
        sim_.uopsSimulated_ += d_uops;
        sim_.flowCache_.hits += d_hits;
        counters_.uopsRetired += d_uops;
        counters_.macrosRetired += d_instr;
        d_instr = d_uops = d_hits = d_slots = d_decoys = 0;
    };

    const std::size_t macros = block.macros.size();
    for (; macro < macros; ++macro) {
        const SbMacro &m = block.macros[macro];
        if (executed >= budget) {
            flush();
            return SbExit::Budget;
        }

        // The interpreter's per-step translator protocol, in order:
        // tick (watchdog), epoch currency, per-op stability. Any
        // mid-block trigger change surfaces here at the macro boundary
        // and hands the macro to the interpreter. For the native
        // translator every check folds to a constant.
        if constexpr (Detailed)
            cycles = sim_.cycles_;
        tr.tick(cycles);
        if (tr.translationEpoch() != block.epoch) {
            flush();
            return SbExit::EpochBump;
        }
        if (!tr.translationStable(*m.op)) {
            flush();
            return SbExit::Unstable;
        }

        state.cycleHint = cycles;
        // The interpreted step would probe the flow cache and hit.
        ++d_hits;
        tr.noteCachedTranslation(*m.op, *m.flow, m.ctx);
        sim_.curCtx_ = m.ctx;

        // Cache-only instruction fetch: touch the I-cache once per
        // block, with the same cross-macro dedup the interpreter keeps.
        // (Detailed mode fetches in the front-end model.)
        Cycles latency = 0;
        if constexpr (!Detailed) {
            for (Addr fetch = m.fetchFirst; fetch <= m.fetchLast;
                 fetch += cacheBlockSize) {
                if (fetch != last_fetch) {
                    latency += mem.fetchInstr(fetch).latency;
                    last_fetch = fetch;
                }
            }
        }

        Addr next_pc = m.fallThrough;
        bool took_branch = false;

        const SbOp *const first = &block.uops[m.uopBegin];
        const SbOp *s = first;
        const SbOp *const end = s + (m.uopEnd - m.uopBegin);
        Addr eff = invalidAddr;

// Per-uop retire. Cache-only: the accounting stepCacheOnly keeps for
// delivered (non-eliminated) uops — energy adds stay per-uop in
// expansion order, since double addition is not associative and the
// equivalence tests compare energy bit-exactly. Detailed: record the
// effective address for the timing consumer. Both: inline DIFT.
#define CSD_SB_RETIRE()                                                   \
    do {                                                                  \
        if constexpr (Detailed) {                                         \
            effs[s - first] = eff;                                        \
        } else if (s->counted()) {                                        \
            ++d_slots;                                                    \
            if (s->decoy())                                               \
                ++d_decoys;                                               \
            if (s->vpu())                                                 \
                sim_.vpuDynamic_ += s->energy;                            \
            else                                                          \
                sim_.coreDynamic_ += s->energy;                           \
        }                                                                 \
        if constexpr (Taint)                                              \
            sim_.taint_->propagateUop(*s->uop, eff);                      \
    } while (0)

// The cache-only consumer's memory probe, fused into the handler.
#define CSD_SB_PROBE(...)                                                 \
    do {                                                                  \
        if constexpr (!Detailed) {                                        \
            if (s->counted()) {                                           \
                __VA_ARGS__;                                              \
            }                                                             \
        }                                                                 \
    } while (0)

#if CSD_SB_COMPUTED_GOTO
        static const void *const dispatch[] = {
            &&h_Load, &&h_Store, &&h_StoreImm, &&h_LoadVec, &&h_StoreVec,
            &&h_Br, &&h_BrInd, &&h_CacheFlush, &&h_ReadCycles, &&h_Nop,
            &&h_Vector, &&h_VExtract, &&h_ScalarFp, &&h_ScalarAlu,
        };
        static_assert(sizeof(dispatch) / sizeof(dispatch[0]) ==
                      static_cast<std::size_t>(SbHandler::NumHandlers));

#define CSD_SB_NEXT()                                                     \
    do {                                                                  \
        CSD_SB_RETIRE();                                                  \
        if (++s == end)                                                   \
            goto uops_done;                                               \
        eff = invalidAddr;                                                \
        goto *dispatch[static_cast<unsigned>(s->handler)];                \
    } while (0)
#define CSD_SB_HANDLER(name) h_##name
#else
#define CSD_SB_NEXT() break
#define CSD_SB_HANDLER(name) case SbHandler::name
#endif

#if CSD_SB_COMPUTED_GOTO
        if (s == end)
            goto uops_done;
        goto *dispatch[static_cast<unsigned>(s->handler)];
#else
        for (; s != end; ++s, eff = invalidAddr) {
            switch (s->handler) {
#endif
// Handler bodies are shared between both dispatch skeletons. Each body
// mirrors one case group of FunctionalExecutor::execUop, fused (in
// cache-only mode) with the timing probe stepCacheOnly takes for that
// uop category.
CSD_SB_HANDLER(Load):
{
    const Uop &u = *s->uop;
    eff = exec.agen(u);
    const std::uint64_t val = state.mem.read(eff, u.memSize);
    if (u.dst.valid())
        state.writeInt(u.dst, val);
    CSD_SB_PROBE(latency += (u.instrFetch ? mem.fetchInstr(eff)
                                          : mem.readData(eff))
                                .latency);
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(Store):
{
    const Uop &u = *s->uop;
    eff = exec.agen(u);
    state.mem.write(eff, u.memSize, state.readInt(u.src3));
    CSD_SB_PROBE(mem.writeData(eff));
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(StoreImm):
{
    const Uop &u = *s->uop;
    eff = exec.agen(u);
    state.mem.write(eff, u.memSize, static_cast<std::uint64_t>(u.imm));
    CSD_SB_PROBE(mem.writeData(eff));
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(LoadVec):
{
    const Uop &u = *s->uop;
    eff = exec.agen(u);
    state.writeVecReg(u.dst, state.mem.readVec(eff));
    CSD_SB_PROBE(latency += (u.instrFetch ? mem.fetchInstr(eff)
                                          : mem.readData(eff))
                                .latency);
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(StoreVec):
{
    const Uop &u = *s->uop;
    eff = exec.agen(u);
    state.mem.writeVec(eff, state.readVecReg(u.src3));
    CSD_SB_PROBE(mem.writeData(eff));
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(Br):
{
    const Uop &u = *s->uop;
    if (evalCond(u.cond, state.flags)) {
        next_pc = u.target;
        took_branch = true;
    }
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(BrInd):
{
    next_pc = state.readInt(s->uop->src1);
    took_branch = true;
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(CacheFlush):
{
    eff = exec.agen(*s->uop);
    CSD_SB_PROBE(mem.flush(eff); latency += 40);
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(ReadCycles):
{
    state.writeInt(s->uop->dst, state.cycleHint);
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(Nop):
{
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(Vector):
{
    exec.execVector(*s->uop);
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(VExtract):
{
    const Uop &u = *s->uop;
    state.writeInt(u.dst, state.readVecReg(u.src1).lane(
                              8, static_cast<unsigned>(u.imm) & 1));
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(ScalarFp):
{
    exec.execScalarFp(*s->uop);
}
    CSD_SB_NEXT();
CSD_SB_HANDLER(ScalarAlu):
{
    exec.execScalarAlu(*s->uop);
}
    CSD_SB_NEXT();
#if CSD_SB_COMPUTED_GOTO
uops_done:;
#else
              default:
                break;
            }
            CSD_SB_RETIRE();
        }
#endif

#undef CSD_SB_HANDLER
#undef CSD_SB_NEXT
#undef CSD_SB_PROBE
#undef CSD_SB_RETIRE

        state.pc = next_pc;
        if constexpr (Detailed) {
            // The macro's timing, through the consumer the interpreter
            // feeds too, with the flow cache's timing records.
            Simulation::DetailedMacro mc = sim_.detailedBegin(
                *m.op, *m.flow, m.frontEndSlots, took_branch, next_pc);
            for (const SbOp *t = first; t != end; ++t) {
                sim_.detailedUop(*m.op, *t->uop, *t->timing,
                                 effs[t - first], mc);
            }
            sim_.detailedEnd(*m.op, mc, took_branch, next_pc);
        } else {
            // stepCacheOnly's pseudo-cycle advance, with the delta
            // resolved at build time.
            cycles += m.delivered + latency / 4;
        }

        // step()'s commit bookkeeping.
        ++d_instr;
        d_uops += m.dynCount;
        if (detail)
            sim_.flowLen_.sample(static_cast<double>(m.dynCount));
        sim_.prevMacro_ = m.op;
        ++executed;
        if (sampling) {
            // The interval sampler reads the member counters, so they
            // must be current at every potential sample point.
            flush();
            if (sim_.cycles_ >= sim_.nextSampleAt_)
                sim_.maybeSample();
        }

        if (next_pc != m.fallThrough) {
            flush();
            return SbExit::Branch;
        }
    }
    flush();
    return SbExit::End;
}

} // namespace csd
