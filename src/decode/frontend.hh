/**
 * @file
 * The decode front end: fetch + instruction-length decode + macro-op
 * queue + 4 decoders + MSROM + micro-op cache + LSD, with the
 * bandwidth and structural constraints of the paper's Sandy Bridge
 * baseline (Table I, §III-A).
 *
 * The front end is driven in program order: for each dynamic macro-op
 * the timing model calls beginMacroOp() once and then nextSlotCycle()
 * once per fused-domain slot of its flow; the returned cycle is when
 * that slot enters the uop queue.
 */

#ifndef CSD_DECODE_FRONTEND_HH
#define CSD_DECODE_FRONTEND_HH

#include <memory>

#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "decode/fusion.hh"
#include "decode/lsd.hh"
#include "decode/params.hh"
#include "decode/uop_cache.hh"
#include "memory/hierarchy.hh"
#include "uop/flow.hh"

namespace csd
{

/** Which structure delivered a slot. */
enum class DeliverySource : std::uint8_t
{
    UopCache,
    Legacy,
    Msrom,
    Lsd,
};

/** The decode front end timing model. */
class FrontEnd
{
  public:
    /**
     * @param params front-end configuration
     * @param mem    hierarchy for instruction fetches; may be null
     *               (fetches then always hit)
     */
    explicit FrontEnd(const FrontEndParams &params,
                      MemHierarchy *mem = nullptr);

    /**
     * Account for one dynamic macro-op in program order.
     *
     * @param op       the macro-op
     * @param flow     its (possibly custom) translation
     * @param slots    the flow's deliveredSlots()
     * @param ctx      translation context id used for the flow
     * @param taken    whether control left the fall-through path
     * @param next_pc  the PC control went to after this op
     */
    void beginMacroOp(const MacroOp &op, const UopFlow &flow,
                      std::uint64_t slots, unsigned ctx, bool taken,
                      Addr next_pc);

    /** Delivery cycle of the next fused slot of the current flow. */
    Tick nextSlotCycle();

    /** Steer the front end to a new point in time (branch redirect). */
    void redirect(Tick cycle);

    /** Current front-end cycle. */
    Tick cycle() const { return feCycle_; }

    /** Source selected for the current macro-op. */
    DeliverySource source() const { return source_; }

    UopCache &uopCache() { return *uopCache_; }
    LoopStreamDetector &lsd() { return *lsd_; }
    const FrontEndParams &params() const { return params_; }

    StatGroup &stats() { return stats_; }
    std::uint64_t slotsFrom(DeliverySource src) const;

    /** Cumulative cycles stalled on L1I misses. */
    std::uint64_t fetchStallCycles() const
    {
        return fetchStallCycles_.value();
    }

    /**
     * Cumulative cycles consumed by legacy-decode bandwidth limits and
     * uop-cache <-> legacy switch penalties (CPI-stack input).
     */
    std::uint64_t decodeBwCycles() const
    {
        return decodeBwCycles_.value();
    }

    /**
     * Per-block L1I-miss stall-length histogram. Sampled only under
     * CSD_STATS_DETAIL; the cumulative counter above is always live.
     */
    const Distribution &l1iStallHistogram() const
    {
        return l1iStallCycles_;
    }

  private:
    unsigned slotLimit() const;
    void forceNextCycle();
    void completePendingFill();
    void noteSwitch(DeliverySource next);

    FrontEndParams params_;
    MemHierarchy *mem_;
    std::unique_ptr<UopCache> uopCache_;
    std::unique_ptr<LoopStreamDetector> lsd_;

    Tick feCycle_ = 0;
    DeliverySource source_ = DeliverySource::Legacy;

    // Per-cycle budgets
    unsigned slotsThisCycle_ = 0;
    unsigned bytesThisCycle_ = 0;
    unsigned macroOpsThisCycle_ = 0;
    bool complexUsedThisCycle_ = false;

    // Fetch state
    Addr lastFetchBlock_ = invalidAddr;

    // Micro-op cache window state
    Addr curWindow_ = invalidAddr;
    unsigned curCtx_ = 0;
    bool curWindowHit_ = false;
    bool haveLastCtx_ = false;

    // Pending legacy-side window fill accumulation
    Addr fillWindow_ = invalidAddr;
    unsigned fillCtx_ = 0;
    std::uint64_t fillSlots_ = 0;
    bool fillCacheable_ = true;

    StatGroup stats_;
    Counter macroOps_;
    Counter slotsUopCache_;
    Counter slotsLegacy_;
    Counter slotsMsrom_;
    Counter slotsLsd_;
    Counter sourceSwitches_;
    Counter fetchStallCycles_;
    Counter decodeBwCycles_;
    Distribution slotsPerMacroOp_{0, 18, 18};
    Distribution l1iStallCycles_{0, 260, 26};
    Formula uopCacheSlotFrac_;
    Formula legacySlotFrac_;
};

// Inline: the detailed timing consumer asks for a slot once per uop.
inline unsigned
FrontEnd::slotLimit() const
{
    switch (source_) {
      case DeliverySource::UopCache: return params_.uopCacheStreamWidth;
      case DeliverySource::Legacy:   return params_.decodeWidth;
      case DeliverySource::Msrom:    return params_.msromWidth;
      case DeliverySource::Lsd:      return params_.lsdStreamWidth;
    }
    return params_.decodeWidth;
}

inline Tick
FrontEnd::nextSlotCycle()
{
    if (slotsThisCycle_ >= slotLimit())
        forceNextCycle();
    ++slotsThisCycle_;
    switch (source_) {
      case DeliverySource::UopCache: ++slotsUopCache_; break;
      case DeliverySource::Legacy:   ++slotsLegacy_; break;
      case DeliverySource::Msrom:    ++slotsMsrom_; break;
      case DeliverySource::Lsd:      ++slotsLsd_; break;
    }
    return feCycle_;
}

} // namespace csd

#endif // CSD_DECODE_FRONTEND_HH
