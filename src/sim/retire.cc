/**
 * @file
 * The simulator's one retire path: Simulation::retireMacro and the
 * detailed-mode timing consumer it feeds.
 *
 * Both drivers hand it resolved macros (decode/superblock.hh): the
 * interpreter (Simulation::step) one at a time from its scratch span,
 * the superblock tier (sim/fastpath.cc) macro by macro from a compiled
 * block. The uop handlers dispatch through a computed-goto label table
 * (labels-as-values, a GNU extension the build already requires with
 * -Wall -Wextra and -fsanitize=), which GCC never inlines, so this is
 * one out-of-line call per macro for either driver.
 */

#include <chrono>

#include "csd/csd.hh"
#include "sim/simulation.hh"

namespace csd
{

static_assert(UopTimingRec::readySlots <= 64,
              "the taint check below packs register indices in 64 bits");

namespace
{

/**
 * Charge the host time since @p mark to @p phase and restart @p mark,
 * when @p prof is set (step() with the profiler on).
 */
inline void
lap(HostProfiler *prof, HostProfiler::Clock::time_point &mark,
    HostPhase phase)
{
    if (prof) [[unlikely]] {
        const HostProfiler::Clock::time_point now =
            HostProfiler::Clock::now();
        prof->add(phase,
                  std::chrono::duration<double>(now - mark).count());
        mark = now;
    }
}

} // namespace

inline Simulation::DetailedMacro
Simulation::detailedBegin(const MacroOp &op, const UopFlow &flow,
                          std::uint64_t slots, bool took_branch,
                          Addr next_pc)
{
    DetailedMacro mc;
    // Macro-fusion: an eligible jcc rides its predecessor's slot.
    mc.macroFused = params_.frontend.macroFusion && prevMacro_ != nullptr &&
                    macroFusesWithPrev(*prevMacro_, op) &&
                    flow.uops.size() == 1 && !flow.loop;
    if (mc.macroFused)
        ++macroFusedPairs_;

    mc.fetchCycle = frontend_->cycle();
    frontend_->beginMacroOp(op, flow, slots, curCtx_, took_branch, next_pc);
    mc.deliver = lastSlotCycle_;
    return mc;
}

// Forced inline, like the back end's process() and the CPI stack's
// accountUop() it calls: one call site, hot enough that a per-uop call
// shows, and big enough that the inliner declines on its own.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline void
Simulation::detailedUop(const MacroOp &op, const Uop &uop,
                        const UopTimingRec &rec, Addr eff_addr,
                        DetailedMacro &mc)
{
    const bool takes_slot =
        rec.has(UopTimingRec::takesSlot) &&
        !(mc.macroFused && rec.has(UopTimingRec::branch));
    if (takes_slot) {
        mc.deliver = frontend_->nextSlotCycle();
        // IDQ backpressure: this slot's queue entry must have been
        // freed by an older dispatch.
        if (idqCount_ >= idqRing_.size())
            mc.deliver = std::max(mc.deliver, idqRing_[idqIdx_]);
        ++slotsDelivered_;
        // Front-end dynamic energy by delivery source.
        frontendDynamic_ +=
            frontend_->source() == DeliverySource::Legacy ||
                    frontend_->source() == DeliverySource::Msrom
                ? energyModel_.params().legacyDecodeEnergy
                : energyModel_.params().uopCacheStreamEnergy;
    }
    lastSlotCycle_ = mc.deliver;

    const BackEnd::UopTiming timing =
        backend_->process(rec, eff_addr, mc.deliver);

    const bool devect_ctx = curCtx_ == ctxDevect;
    if (cpiStack_ || lifecycle_) [[unlikely]] {
        // Touches tainted state: any of dst, src1..3 (absent operands
        // index past the last register, where the taint mask is 0).
        const std::uint64_t regs =
            (std::uint64_t{1} << rec.src[0]) |
            (std::uint64_t{1} << rec.src[1]) |
            (std::uint64_t{1} << rec.src[2]) | (std::uint64_t{1} << rec.dst);
        const bool tainted = taint_ && (taint_->regTaintMask() & regs);
        if (cpiStack_) {
            CpiStack::UopContext ctx;
            ctx.pc = op.pc;
            // Both drivers fetch through Program::at, so op lives in
            // code() and its position there is the row index.
            ctx.slot = static_cast<std::size_t>(&op - prog_.code().data());
            ctx.decoy = rec.has(UopTimingRec::decoy);
            ctx.devectExpansion =
                devect_ctx && rec.has(UopTimingRec::devectExpansion);
            ctx.tainted = tainted;
            const std::uint64_t l1i = frontend_->fetchStallCycles();
            const std::uint64_t bw = frontend_->decodeBwCycles();
            ctx.feL1i = l1i - feL1iSeen_;
            ctx.feDecode = bw - feDecodeSeen_;
            feL1iSeen_ = l1i;
            feDecodeSeen_ = bw;
            cpiStack_->accountUop(timing, ctx);
        }
        if (lifecycle_) {
            LifecycleRecord record;
            record.uop = uop;
            record.fetch = mc.fetchCycle;
            record.decode = mc.deliver;
            record.dispatch = timing.dispatch;
            record.issue = timing.issue;
            record.complete = timing.complete;
            record.commit = timing.commit;
            record.source = frontend_->source();
            record.devectCtx = devect_ctx;
            record.tainted = tainted;
            lifecycle_->record(std::move(record));
        }
    }

    // rdtsc's architectural value is its execution timestamp.
    if (rec.has(UopTimingRec::readCycles) && uop.dst.valid())
        state_.writeInt(uop.dst, timing.issue);

    if (takes_slot) {
        idqRing_[idqIdx_] = timing.dispatch;
        if (++idqIdx_ == idqRing_.size())
            idqIdx_ = 0;
        if (idqCount_ < idqRing_.size())
            ++idqCount_;
    }

    if (!rec.has(UopTimingRec::eliminated)) {
        const double energy = energyModel_.fuEnergy(rec.fu);
        if (rec.has(UopTimingRec::vpu))
            vpuDynamic_ += energy;
        else
            coreDynamic_ += energy;
        if (rec.has(UopTimingRec::decoy))
            ++decoyUopsExecuted_;
        if (devect_ctx)
            ++devectUopsExecuted_;
    }
    if (rec.has(UopTimingRec::branch))
        mc.branchComplete = timing.complete;
}

inline void
Simulation::detailedEnd(const MacroOp &op, const DetailedMacro &mc,
                        bool took_branch, Addr next_pc)
{
    // Control flow: predict, train, and redirect the front end.
    if (isBranch(op.opcode)) {
        const auto pred = bpred_->predict(op);
        const bool correct =
            bpred_->update(op, pred, took_branch, next_pc);
        if (!correct) {
            frontend_->redirect(mc.branchComplete +
                                params_.backend.mispredictResteer);
        } else if (took_branch) {
            frontend_->redirect(frontend_->cycle() +
                                params_.backend.takenBranchBubble);
        }
    }

    cycles_ = std::max(cycles_, backend_->lastCommit());
}

template <bool Taint, bool Detailed>
bool
Simulation::retireMacro(const SbMacro &m, const SbOp *first,
                        RetireTally &t, HostProfiler *prof)
{
    HostProfiler::Clock::time_point mark;
    if (prof) [[unlikely]]
        mark = HostProfiler::Clock::now();

    ArchState &state = state_;
    MemHierarchy &mem = *mem_;
    FunctionalExecutor &exec = executor_;
    state.cycleHint = Detailed ? cycles_ : t.cycles;
    curCtx_ = m.ctx;

    // Cache-only instruction fetch: touch the I-cache once per block,
    // deduplicated across macros. (Detailed mode fetches in the
    // front-end model.)
    Cycles latency = 0;
    if constexpr (!Detailed) {
        for (Addr fetch = m.fetchFirst; fetch <= m.fetchLast;
             fetch += cacheBlockSize) {
            if (fetch != t.lastFetch) {
                latency += mem.fetchInstr(fetch).latency;
                t.lastFetch = fetch;
            }
        }
    }

    Addr *effs = nullptr;
    if constexpr (Detailed) {
        if (effs_.size() < m.dynCount)
            effs_.resize(m.dynCount);
        effs = effs_.data();
    }

    Addr next_pc = m.fallThrough;
    bool took_branch = false;
    const SbOp *s = first;
    const SbOp *end = first + m.dynCount;  // a Halt cuts it short
    Addr eff = invalidAddr;

// Per-uop retire. Cache-only: slot, decoy and energy accounting for
// delivered (non-eliminated) uops — energy adds stay per uop in
// expansion order, since double addition is not associative and the
// equivalence tests compare energy bit-exactly. Detailed: record the
// effective address for the timing consumer. Both: inline DIFT.
#define CSD_SB_RETIRE()                                                   \
    do {                                                                  \
        if constexpr (Detailed) {                                         \
            effs[s - first] = eff;                                        \
        } else if (s->counted()) {                                        \
            ++t.slots;                                                    \
            if (s->decoy())                                               \
                ++t.decoys;                                               \
            if (s->vpu())                                                 \
                vpuDynamic_ += s->energy;                                 \
            else                                                          \
                coreDynamic_ += s->energy;                                \
        }                                                                 \
        if constexpr (Taint)                                              \
            taint_->propagateUop(*s->uop, eff);                           \
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

    static const void *const dispatch[] = {
        &&h_Load, &&h_Store, &&h_StoreImm, &&h_LoadVec, &&h_StoreVec,
        &&h_Br, &&h_BrInd, &&h_CacheFlush, &&h_ReadCycles, &&h_Nop,
        &&h_Vector, &&h_VExtract, &&h_ScalarFp, &&h_ScalarAlu, &&h_Halt,
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

    if (s == end)
        goto uops_done;
    goto *dispatch[static_cast<unsigned>(s->handler)];

// Each handler mirrors one case group of FunctionalExecutor::execUop,
// fused (in cache-only mode) with the timing probe for that uop
// category.
h_Load:
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
h_Store:
{
    const Uop &u = *s->uop;
    eff = exec.agen(u);
    state.mem.write(eff, u.memSize, state.readInt(u.src3));
    CSD_SB_PROBE(mem.writeData(eff));
}
    CSD_SB_NEXT();
h_StoreImm:
{
    const Uop &u = *s->uop;
    eff = exec.agen(u);
    state.mem.write(eff, u.memSize, static_cast<std::uint64_t>(u.imm));
    CSD_SB_PROBE(mem.writeData(eff));
}
    CSD_SB_NEXT();
h_LoadVec:
{
    const Uop &u = *s->uop;
    eff = exec.agen(u);
    state.writeVecReg(u.dst, state.mem.readVec(eff));
    CSD_SB_PROBE(latency += (u.instrFetch ? mem.fetchInstr(eff)
                                          : mem.readData(eff))
                                .latency);
}
    CSD_SB_NEXT();
h_StoreVec:
{
    const Uop &u = *s->uop;
    eff = exec.agen(u);
    state.mem.writeVec(eff, state.readVecReg(u.src3));
    CSD_SB_PROBE(mem.writeData(eff));
}
    CSD_SB_NEXT();
h_Br:
{
    const Uop &u = *s->uop;
    if (evalCond(u.cond, state.flags)) {
        next_pc = u.target;
        took_branch = true;
    }
}
    CSD_SB_NEXT();
h_BrInd:
{
    next_pc = state.readInt(s->uop->src1);
    took_branch = true;
}
    CSD_SB_NEXT();
h_CacheFlush:
{
    eff = exec.agen(*s->uop);
    CSD_SB_PROBE(mem.flush(eff); latency += 40);
}
    CSD_SB_NEXT();
h_ReadCycles:
{
    state.writeInt(s->uop->dst, state.cycleHint);
}
    CSD_SB_NEXT();
h_Nop:
{
}
    CSD_SB_NEXT();
h_Vector:
{
    exec.execVector(*s->uop);
}
    CSD_SB_NEXT();
h_VExtract:
{
    const Uop &u = *s->uop;
    state.writeInt(u.dst, state.readVecReg(u.src1).lane(
                              8, static_cast<unsigned>(u.imm) & 1));
}
    CSD_SB_NEXT();
h_ScalarFp:
{
    exec.execScalarFp(*s->uop);
}
    CSD_SB_NEXT();
h_ScalarAlu:
{
    exec.execScalarAlu(*s->uop);
}
    CSD_SB_NEXT();
h_Halt:
{
    state.halted = true;
    end = s + 1;  // the rest of the flow does not execute
}
    CSD_SB_NEXT();
uops_done:;

#undef CSD_SB_NEXT
#undef CSD_SB_PROBE
#undef CSD_SB_RETIRE

    state.pc = next_pc;
    const auto retired = static_cast<std::uint64_t>(end - first);
    if constexpr (Detailed) {
        lap(prof, mark, HostPhase::Execute);
        DetailedMacro mc = detailedBegin(*m.op, *m.flow, m.frontEndSlots,
                                         took_branch, next_pc);
        for (const SbOp *u = first; u != end; ++u)
            detailedUop(*m.op, *u->uop, *u->timing, effs[u - first], mc);
        detailedEnd(*m.op, mc, took_branch, next_pc);
    } else {
        // Pseudo-cycles: one per delivered uop plus a fraction of the
        // memory latency (enough to drive the watchdog at a realistic
        // rate).
        t.cycles += m.delivered + latency / 4;
    }

    // Commit.
    ++t.instructions;
    t.uops += retired;
    if (statsDetailEnabled())
        flowLen_.sample(static_cast<double>(retired));
    prevMacro_ = m.op;  // points into prog_.code(); stable for our lifetime
    lap(prof, mark, Detailed ? HostPhase::Pipeline : HostPhase::Memory);
    if (sampleInterval_ != 0) {
        // The interval sampler reads the member counters.
        flushTally(t);
        if (cycles_ >= nextSampleAt_)
            maybeSample();
    }
    return took_branch;
}

template bool Simulation::retireMacro<false, false>(const SbMacro &,
                                                    const SbOp *,
                                                    RetireTally &,
                                                    HostProfiler *);
template bool Simulation::retireMacro<false, true>(const SbMacro &,
                                                   const SbOp *,
                                                   RetireTally &,
                                                   HostProfiler *);
template bool Simulation::retireMacro<true, false>(const SbMacro &,
                                                   const SbOp *,
                                                   RetireTally &,
                                                   HostProfiler *);
template bool Simulation::retireMacro<true, true>(const SbMacro &,
                                                  const SbOp *,
                                                  RetireTally &,
                                                  HostProfiler *);

} // namespace csd
