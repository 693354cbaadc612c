/**
 * @file
 * Translation-consistency checker and micro-table audit.
 *
 * For every MacroOpcode this cross-validates the three uop delivery
 * paths — the legacy decoders' static translation, a flow-cache
 * round-trip of it, and the context-sensitive decoder in its native
 * context — and checks the flow's internal structure (uop provenance,
 * fusion pairing, micro-loop bounds, register-index ranges) against
 * the decode-stage invariants.
 *
 * The micro-table audit sweeps the constexpr per-opcode tables
 * (FuClass, latency, issue-port binding, per-uop energy) for coverage
 * holes: an executable uop with an empty port mask, a zero latency
 * outside the memory classes, or a missing energy entry. The tables
 * are injected through MicroTableView so tests can prove each check
 * fires on a seeded-broken table without patching the real ones.
 */

#ifndef CSD_VERIFY_TRANSLATION_CHECK_HH
#define CSD_VERIFY_TRANSLATION_CHECK_HH

#include <functional>

#include "common/types.hh"
#include "uop/uop.hh"
#include "isa/finding.hh"

namespace csd
{

/** Indirection over the micro-op tables for fault-injection tests. */
struct MicroTableView
{
    std::function<FuClass(MicroOpcode)> fuClassOf;
    std::function<Cycles(MicroOpcode)> latencyOf;
    std::function<unsigned(FuClass)> portCountOf;
    std::function<double(FuClass)> energyOf;

    /** The shipping tables: uop.hh constexpr tables, BackEnd port
     *  bindings, and the default EnergyModel. */
    static MicroTableView real();
};

/** Printable functional-unit class name ("IntAlu", "MemLoad", ...). */
const char *fuClassName(FuClass fu);

/**
 * Synthesize the representative, well-formed MacroOp the consistency
 * suite uses for @p opc. Exposed so other passes (the MCU admission
 * prover) can replay the suite's probes against a patched translation.
 */
MacroOp sampleMacroOp(MacroOpcode opc);

/**
 * Cross-validate every MacroOpcode's translation across the legacy
 * decode path, a FlowCache round-trip, and the context-sensitive
 * decoder (native context). Covers all opcodes in [0, NumOpcodes).
 */
void checkTranslations(VerifyReport &report);

/** Audit the per-micro-opcode tables for coverage holes. */
void auditMicroTables(VerifyReport &report,
                      const MicroTableView &view = MicroTableView::real());

} // namespace csd

#endif // CSD_VERIFY_TRANSLATION_CHECK_HH
