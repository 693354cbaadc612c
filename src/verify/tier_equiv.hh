/**
 * @file
 * Static tier-equivalence prover: the flow cache's resolved
 * translations vs translator semantics.
 *
 * The retire routine (sim/retire.cc) runs every macro-op from its
 * resolved form — an SbMacro header and its span of SbOps, built once
 * per flow-cache entry by resolveMacro() — and chains through resident
 * entries without translating. That is only sound if every resolved
 * entry is *provably* what the reference executor would do with the
 * translator's flow — the dynamic bit-identity tests sample that
 * property; this pass proves it per entry, offline, with no
 * simulation:
 *
 *  (a) handler soundness — every SbOp's resolved handler, VPU/port
 *      binding, and precomputed energy agree with an independent
 *      re-derivation from FunctionalExecutor::execUop's dispatch
 *      groups and the constexpr fuClass/fuLatency/port/energy tables
 *      (tier.handler-mismatch, tier.energy-drift);
 *  (b) accounting equivalence — the per-macro deltas resolved at
 *      insert (delivered slots, dynamic uop count, micro-loop
 *      unrolls, I-fetch range), replayed symbolically over the flow,
 *      equal what the reference executor accumulates
 *      (tier.accounting-skew); the macro retires its entry's whole
 *      span and leaves for its fall-through, and a chain link names
 *      the fall-through's entry (tier.partial-flush);
 *  (d) one stored form — every macro retires its flow-cache entry's
 *      own span, not a copy, over the entry's flow in expansion order
 *      (tier.unroll-mismatch), and every SbOp's timing record, the
 *      detailed consumer's per-uop input and the cache-only one's flag
 *      bits, agrees with a re-derivation from its Uop: flat register
 *      indices, FU class, port set, latency, memory kind, and the
 *      slot/decoy/devectorization/VPU bits (tier.timing-drift).
 *
 * Checks read the span through EntryView — the same fault-injection
 * indirection MicroTableView gives the table audit — so seeded-defect
 * tests can pin exact (entry, op, check-id) findings without
 * corrupting a real translation.
 */

#ifndef CSD_VERIFY_TIER_EQUIV_HH
#define CSD_VERIFY_TIER_EQUIV_HH

#include <cstddef>
#include <cstdint>
#include <functional>

#include "decode/flow_cache.hh"
#include "decode/params.hh"
#include "decode/translator.hh"
#include "isa/finding.hh"
#include "isa/program.hh"
#include "power/energy.hh"
#include "verify/translation_check.hh"

namespace csd
{

/** Indirection over a resolved span for fault-injection tests. */
struct EntryView
{
    std::function<SbHandler(const SbOp &)> handlerOf;
    std::function<double(const SbOp &)> energyOf;
    std::function<bool(const SbOp &)> vpuOf;
    std::function<bool(const SbOp &)> countedOf;
    std::function<UopTimingRec(const SbOp &)> timingOf;

    /** The shipping view: the fields resolveMacro() resolved. */
    static EntryView real();
};

/** Knobs for the offline audit driver. */
struct TierEquivOptions
{
    FrontEndParams frontend;            //!< decode-time pass config
    MicroTableView tables = MicroTableView::real();
};

/** Summary of one offline tier-equivalence sweep. */
struct TierAudit
{
    std::size_t entries = 0;  //!< flow-cache entries proved
    std::size_t uops = 0;     //!< span uops checked
};

/**
 * Prove one resolved macro @p m against the reference semantics: the
 * entry cached in @p fc under @p epoch for its op and context,
 * @p translator's stable-context protocol, and @p energy's per-uop
 * scalars. @p m is the entry's own macro in a real audit; a test may
 * pass an altered copy. Appends tier.* findings to @p report.
 */
void checkEntry(const SbMacro &m, std::uint64_t epoch, const Program &prog,
                const FlowCache &fc, const Translator &translator,
                const EnergyModel &energy, VerifyReport &report,
                const EntryView &view = EntryView::real(),
                const TierEquivOptions &options = {});

/**
 * Fill @p fc offline with every stable translation of @p prog under
 * @p translator's current state that the cache admits, running the
 * same decode-time passes (fusion config, SP tracking) the simulator
 * applies before caching, and resolving it with @p energy. Returns the
 * translation epoch the entries were recorded under.
 */
std::uint64_t populateFlowCache(const Program &prog,
                                Translator &translator, FlowCache &fc,
                                const FrontEndParams &frontend = {},
                                const EnergyModel &energy = EnergyModel());

/**
 * The offline driver: populate a flow cache for @p prog under
 * @p translator's current trigger state and run checkEntry over every
 * entry. This is the sweep csd-lint --tiers runs per target and per
 * translator configuration.
 */
TierAudit auditProgramTiers(const Program &prog, Translator &translator,
                            VerifyReport &report,
                            const EntryView &view = EntryView::real(),
                            const TierEquivOptions &options = {});

} // namespace csd

#endif // CSD_VERIFY_TIER_EQUIV_HH
