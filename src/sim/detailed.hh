/**
 * @file
 * The detailed-mode timing consumer: one macro-op's front-end,
 * back-end, CPI-stack, lifecycle, slot and energy accounting.
 *
 * Both producers of the dynamic uop stream feed it, in program order:
 * the interpreter (Simulation::stepDetailed) and the superblock tier
 * (sim/fastpath.cc), each handing it the timing records the flow cache
 * resolved when it cached the flow (decode/flow_cache.hh; the
 * interpreter derives them on the fly for an uncached flow). Defined
 * inline here, included only by those two translation units, so each
 * producer's loop absorbs the consumer.
 */

#ifndef CSD_SIM_DETAILED_HH
#define CSD_SIM_DETAILED_HH

#include "csd/csd.hh"
#include "sim/simulation.hh"

namespace csd
{

static_assert(UopTimingRec::readySlots <= 64,
              "the taint check below packs register indices in 64 bits");

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
// accountUop() it calls: one call site per producer loop, each hot
// enough that a per-uop call shows, and big enough that the inliner
// declines on its own.
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
            // Both producers fetch through Program::at, so op lives in
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

} // namespace csd

#endif // CSD_SIM_DETAILED_HH
