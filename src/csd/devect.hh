/**
 * @file
 * Selective devectorization (paper §V, Fig. 6).
 *
 * When the vector unit is power-gated, the context-sensitive decoder
 * translates SSE instructions into equivalent scalar micro-op flows
 * that execute on the integer ALUs and the scalar FP unit. Packed
 * integer arithmetic uses masked (SWAR) sequences — the optimized
 * "four adds and accumulate" form the paper describes — rather than a
 * 16-iteration micro-loop.
 *
 * Vector loads/stores and the register file stay powered; only
 * VPU-executed arithmetic is rewritten.
 */

#ifndef CSD_CSD_DEVECT_HH
#define CSD_CSD_DEVECT_HH

#include <optional>

#include "isa/macroop.hh"
#include "uop/flow.hh"

namespace csd
{

/**
 * Devectorize one vector-arithmetic macro-op into a scalar flow.
 * Returns std::nullopt for instructions that do not execute on the VPU
 * (including vector loads/stores, which use the memory ports).
 *
 * Guarantee (tested): executing the returned flow produces exactly the
 * same architectural state as the native vector translation.
 */
std::optional<UopFlow> devectorize(const MacroOp &op);

/** True iff devectorize() produces a flow for this opcode. */
inline bool
devectorizable(MacroOpcode op)
{
    return isVectorArith(op) || op == MacroOpcode::MovdqaRR;
}

} // namespace csd

#endif // CSD_CSD_DEVECT_HH
