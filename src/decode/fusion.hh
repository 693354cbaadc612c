/**
 * @file
 * Decode-time flow optimizations: macro-op fusion, micro-op fusion
 * configuration, and stack-pointer tracking.
 *
 * These are the existing front-end optimizations the paper's custom
 * translations must coexist with (§III-D): fusion shortens the expanded
 * code sequences and is the difference between the NoOpt and Opt
 * configurations of Fig. 8.
 */

#ifndef CSD_DECODE_FUSION_HH
#define CSD_DECODE_FUSION_HH

#include "decode/params.hh"
#include "isa/macroop.hh"
#include "uop/flow.hh"

namespace csd
{

/**
 * True iff @p cur macro-fuses with the immediately preceding @p prev:
 * a register compare/test followed by an adjacent conditional branch
 * forms a single fused-domain slot.
 */
inline bool
macroFusesWithPrev(const MacroOp &prev, const MacroOp &cur)
{
    if (cur.opcode != MacroOpcode::Jcc || cur.cond == Cond::Always)
        return false;
    switch (prev.opcode) {
      case MacroOpcode::Cmp:
      case MacroOpcode::CmpI:
      case MacroOpcode::Test:
      case MacroOpcode::TestI:
      case MacroOpcode::Add:
      case MacroOpcode::AddI:
      case MacroOpcode::Sub:
      case MacroOpcode::SubI:
        break;
      default:
        return false;
    }
    // The pair must be adjacent in the static code.
    return prev.nextPc() == cur.pc;
}

/**
 * Strip fusion markers when micro-fusion is disabled so every uop
 * occupies its own fused-domain slot (the NoOpt configuration).
 */
void applyFusionConfig(UopFlow &flow, const FrontEndParams &params);

/**
 * Stack-pointer tracking: mark the rsp +/- constant update uops of
 * push/pop/call/ret flows as eliminated at decode. Eliminated uops
 * still execute functionally but consume no front-end slot and no
 * issue port. Returns the number of uops eliminated.
 */
unsigned applySpTracking(UopFlow &flow, const FrontEndParams &params);

/** Fused-domain slots of a flow, ignoring eliminated uops. */
std::uint64_t deliveredSlots(const UopFlow &flow);

/** Dynamically expanded uop count, ignoring eliminated uops. */
std::uint64_t deliveredUops(const UopFlow &flow);

/**
 * True iff the flow may live in the micro-op cache: not microsequenced,
 * no micro-loop, and at most 6 fused slots (paper §III-B), given its
 * @p delivered_slots (deliveredSlots(flow)).
 */
bool uopCacheEligible(const UopFlow &flow, const FrontEndParams &params,
                      std::uint64_t delivered_slots);

} // namespace csd

#endif // CSD_DECODE_FUSION_HH
