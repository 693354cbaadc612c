#include "decode/frontend.hh"

#include "common/logging.hh"

namespace csd
{

FrontEnd::FrontEnd(const FrontEndParams &params, MemHierarchy *mem)
    : params_(params),
      mem_(mem),
      uopCache_(std::make_unique<UopCache>(params)),
      lsd_(std::make_unique<LoopStreamDetector>(params)),
      stats_("frontend")
{
    stats_.addCounter("macro_ops", &macroOps_, "macro-ops processed");
    stats_.addCounter("slots_uop_cache", &slotsUopCache_,
                      "fused slots streamed from the micro-op cache");
    stats_.addCounter("slots_legacy", &slotsLegacy_,
                      "fused slots from the legacy decode pipeline");
    stats_.addCounter("slots_msrom", &slotsMsrom_,
                      "fused slots microsequenced from the MSROM");
    stats_.addCounter("slots_lsd", &slotsLsd_,
                      "fused slots replayed by the loop stream detector");
    stats_.addCounter("source_switches", &sourceSwitches_,
                      "micro-op cache <-> legacy pipeline transitions");
    stats_.addCounter("fetch_stall_cycles", &fetchStallCycles_,
                      "cycles stalled on L1I misses");
    stats_.addCounter("decode_bw_cycles", &decodeBwCycles_,
                      "cycles consumed by legacy-decode bandwidth limits "
                      "and uop-cache switch penalties");
    stats_.addDistribution("slots_per_macro_op", &slotsPerMacroOp_,
                           "fused-domain slots per macro-op flow");
    stats_.addDistribution("l1i_stall_cycles", &l1iStallCycles_,
                           "per-block L1I-miss fetch-stall lengths "
                           "(CSD_STATS_DETAIL)");
    const auto slot_total = [this]() -> double {
        return static_cast<double>(
            slotsUopCache_.value() + slotsLegacy_.value() +
            slotsMsrom_.value() + slotsLsd_.value());
    };
    uopCacheSlotFrac_ = [this, slot_total] {
        return static_cast<double>(slotsUopCache_.value()) / slot_total();
    };
    stats_.addFormula("uop_cache_slot_frac", &uopCacheSlotFrac_,
                      "fraction of slots streamed from the micro-op cache");
    legacySlotFrac_ = [this, slot_total] {
        return static_cast<double>(slotsLegacy_.value() +
                                   slotsMsrom_.value()) /
               slot_total();
    };
    stats_.addFormula("legacy_slot_frac", &legacySlotFrac_,
                      "fraction of slots from the legacy decode pipeline");
    stats_.addChild(&uopCache_->stats());
    stats_.addChild(&lsd_->stats());
}

namespace
{

/** Static event names so the tracer can keep bare pointers. */
const char *
switchEventName(DeliverySource src)
{
    switch (src) {
      case DeliverySource::UopCache: return "switch_to_uop_cache";
      case DeliverySource::Legacy:   return "switch_to_legacy";
      case DeliverySource::Msrom:    return "switch_to_msrom";
      case DeliverySource::Lsd:      return "switch_to_lsd";
    }
    return "switch_to_?";
}

} // namespace

void
FrontEnd::forceNextCycle()
{
    ++feCycle_;
    if (source_ == DeliverySource::Legacy ||
        source_ == DeliverySource::Msrom) {
        ++decodeBwCycles_;
    }
    slotsThisCycle_ = 0;
    bytesThisCycle_ = 0;
    macroOpsThisCycle_ = 0;
    complexUsedThisCycle_ = false;
}

void
FrontEnd::completePendingFill()
{
    if (fillWindow_ == invalidAddr)
        return;
    const bool installed = uopCache_->fill(
        fillWindow_, fillCtx_, static_cast<unsigned>(fillSlots_),
        fillCacheable_);
    CSD_TRACE(UopCache, installed ? "window_fill" : "fill_reject",
              feCycle_, 'i', "window", static_cast<double>(fillWindow_));
    fillWindow_ = invalidAddr;
    fillSlots_ = 0;
    fillCacheable_ = true;
}

void
FrontEnd::noteSwitch(DeliverySource next)
{
    if (next == source_)
        return;
    const auto streams = [](DeliverySource s) {
        return s == DeliverySource::UopCache || s == DeliverySource::Lsd;
    };
    // Crossing between the streaming structures and the legacy decode
    // pipeline costs a bubble (the Intel optimization manual's
    // switch-penalty guidance, paper §III-B).
    if (streams(next) != streams(source_)) {
        feCycle_ += params_.uopCacheSwitchPenalty;
        decodeBwCycles_ += params_.uopCacheSwitchPenalty;
        slotsThisCycle_ = 0;
        bytesThisCycle_ = 0;
        macroOpsThisCycle_ = 0;
        complexUsedThisCycle_ = false;
        ++sourceSwitches_;
    }
    CSD_TRACE(Frontend, switchEventName(next), feCycle_);
    source_ = next;
}

void
FrontEnd::beginMacroOp(const MacroOp &op, const UopFlow &flow,
                       std::uint64_t slots, unsigned ctx, bool taken,
                       Addr next_pc)
{
    ++macroOps_;

    // Translation context switches interact with the micro-op cache.
    if (haveLastCtx_ && ctx != curCtx_) {
        completePendingFill();
        uopCache_->onContextSwitch();
        lsd_->reset();
        curWindow_ = invalidAddr;
    }
    haveLastCtx_ = true;

    if (statsDetailEnabled())
        slotsPerMacroOp_.sample(static_cast<double>(slots));
    const bool lsd_eligible = !flow.fromMsrom && !flow.loop;

    // The LSD observes every op; lock state decides this op's source.
    lsd_->observe(op, static_cast<unsigned>(slots), lsd_eligible, taken,
                  next_pc);
    if (lsd_->active()) {
        noteSwitch(DeliverySource::Lsd);
        return;
    }

    // Micro-op cache probe, once per 32-byte window.
    if (params_.uopCacheEnabled) {
        const Addr window = uopCache_->windowOf(op.pc);
        if (window != curWindow_ || ctx != curCtx_) {
            // Leaving a window we were decoding in legacy mode: try to
            // install its accumulated translation.
            completePendingFill();
            curWindow_ = window;
            curCtx_ = ctx;
            curWindowHit_ = uopCache_->lookup(op.pc, ctx);
            CSD_TRACE(UopCache,
                      curWindowHit_ ? "window_hit" : "window_miss",
                      feCycle_, 'i', "pc", static_cast<double>(op.pc));
        }
        if (curWindowHit_) {
            noteSwitch(DeliverySource::UopCache);
            return;
        }
    } else {
        curCtx_ = ctx;
    }

    // Legacy decode pipeline (possibly microsequenced).
    noteSwitch(flow.fromMsrom ? DeliverySource::Msrom
                              : DeliverySource::Legacy);

    // Instruction fetch: stall on L1I misses, once per touched block.
    if (mem_) {
        const Addr first_block = blockAlign(op.pc);
        const Addr last_block = blockAlign(op.pc + op.length - 1);
        for (Addr block = first_block; block <= last_block;
             block += cacheBlockSize) {
            if (block == lastFetchBlock_)
                continue;
            lastFetchBlock_ = block;
            const auto result = mem_->fetchInstr(block);
            if (result.levelHit > 1) {
                const Cycles stall =
                    result.latency - mem_->params().l1i.hitLatency;
                CSD_TRACE(Frontend, "l1i_miss_stall", feCycle_, 'i',
                          "cycles", static_cast<double>(stall));
                if (statsDetailEnabled())
                    l1iStallCycles_.sample(static_cast<double>(stall));
                feCycle_ += stall;
                fetchStallCycles_ += stall;
                slotsThisCycle_ = 0;
                bytesThisCycle_ = 0;
                macroOpsThisCycle_ = 0;
                complexUsedThisCycle_ = false;
            }
        }
    }

    // Structural decode constraints.
    if (macroOpsThisCycle_ >= params_.decodeWidth)
        forceNextCycle();
    if (bytesThisCycle_ + op.length > params_.fetchBytesPerCycle)
        forceNextCycle();
    const bool needs_complex = flow.uops.size() > 1 || flow.fromMsrom;
    if (needs_complex && complexUsedThisCycle_)
        forceNextCycle();
    ++macroOpsThisCycle_;
    bytesThisCycle_ += op.length;
    complexUsedThisCycle_ = complexUsedThisCycle_ || needs_complex;

    // Accumulate the window's translation for a micro-op cache fill.
    if (params_.uopCacheEnabled) {
        if (fillWindow_ == invalidAddr) {
            fillWindow_ = curWindow_;
            fillCtx_ = ctx;
        }
        fillSlots_ += slots;
        fillCacheable_ =
            fillCacheable_ && uopCacheEligible(flow, params_, slots);
    }
}

void
FrontEnd::redirect(Tick cycle)
{
    completePendingFill();
    if (cycle > feCycle_)
        feCycle_ = cycle;
    slotsThisCycle_ = 0;
    bytesThisCycle_ = 0;
    macroOpsThisCycle_ = 0;
    complexUsedThisCycle_ = false;
    curWindow_ = invalidAddr;
    curWindowHit_ = false;
    lastFetchBlock_ = invalidAddr;
}

std::uint64_t
FrontEnd::slotsFrom(DeliverySource src) const
{
    switch (src) {
      case DeliverySource::UopCache: return slotsUopCache_.value();
      case DeliverySource::Legacy:   return slotsLegacy_.value();
      case DeliverySource::Msrom:    return slotsMsrom_.value();
      case DeliverySource::Lsd:      return slotsLsd_.value();
    }
    return 0;
}

} // namespace csd
