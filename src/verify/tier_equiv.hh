/**
 * @file
 * Static tier-equivalence prover: superblocks vs translator
 * semantics.
 *
 * The superblock tier (decode/superblock.hh, sim/fastpath.hh) retires
 * runs of the predecoded-flow cache's resolved macros in one call. It
 * is only sound if every compiled block is *provably* equivalent to
 * what the interpreter would have done — the dynamic bit-identity
 * tests sample that property; this pass proves it per block, offline,
 * with no simulation:
 *
 *  (a) handler soundness — every SbOp's resolved handler, VPU/port
 *      binding, and precomputed energy agree with an independent
 *      re-derivation from FunctionalExecutor::execUop's dispatch
 *      groups and the constexpr fuClass/fuLatency/port/energy tables
 *      (tier.handler-mismatch, tier.energy-drift);
 *  (b) accounting equivalence — the per-macro deltas the block
 *      resolves at build time (delivered slots, decoy uops, dynamic
 *      uop count, micro-loop unrolls), replayed symbolically over the
 *      spans, equal what the interpreter would accumulate
 *      flow-by-flow from the flow cache (tier.accounting-skew,
 *      tier.unroll-mismatch);
 *  (c) exit-protocol safety — a small CFG over the block proving
 *      every mid-block exit flushes a clean whole-macro prefix in
 *      interpreter order, every re-entry point after an Unstable or
 *      Budget exit is a legal macro boundary (k+1 after the
 *      interpreter retired the vetoed macro k, k after a budget
 *      slice, never after an epoch bump), every path from entry
 *      or re-entry to a memory or branch effect crosses an epoch guard,
 *      and every devectorizable macro re-checks its stable context
 *      (tier.partial-flush, tier.unguarded-epoch-window);
 *  (d) one stored form — every macro retires its flow-cache entry's
 *      own span, not a copy, over the entry's flow in expansion order
 *      (tier.unroll-mismatch), and every SbOp's timing record, the
 *      detailed consumer's per-uop input and the cache-only one's flag
 *      bits, agrees with a re-derivation from its Uop: flat register
 *      indices, FU class, port set, latency, memory kind, and the
 *      slot/decoy/devectorization/VPU bits (tier.timing-drift).
 *
 * Checks read the block through SuperblockView — the same
 * fault-injection indirection MicroTableView gives the table audit —
 * so seeded-defect tests can pin exact (block, op, check-id) findings
 * without corrupting a real build.
 */

#ifndef CSD_VERIFY_TIER_EQUIV_HH
#define CSD_VERIFY_TIER_EQUIV_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "decode/flow_cache.hh"
#include "decode/params.hh"
#include "decode/superblock.hh"
#include "decode/translator.hh"
#include "isa/program.hh"
#include "power/energy.hh"
#include "sim/fastpath.hh"
#include "isa/finding.hh"
#include "verify/translation_check.hh"

namespace csd
{

/** Indirection over a compiled superblock for fault-injection tests. */
struct SuperblockView
{
    std::function<SbHandler(const SbOp &)> handlerOf;
    std::function<double(const SbOp &)> energyOf;
    std::function<bool(const SbOp &)> vpuOf;
    std::function<bool(const SbOp &)> countedOf;
    std::function<UopTimingRec(const SbOp &)> timingOf;
    std::function<std::uint8_t(const SbMacro &)> guardsOf;
    std::function<SbExitMeta(SbExit)> exitMetaOf;

    /** The shipping view: the fields the builder resolved and the
     *  sbExitMeta contract table. */
    static SuperblockView real();
};

/** Knobs for the offline audit driver. */
struct TierEquivOptions
{
    SuperblockLimits limits;            //!< build caps, as the tier uses
    FrontEndParams frontend;            //!< decode-time pass config
    std::size_t maxHeads = 4096;        //!< cap on region heads walked
    MicroTableView tables = MicroTableView::real();
};

/** Summary of one offline tier-equivalence sweep. */
struct TierAudit
{
    std::size_t heads = 0;   //!< region heads attempted
    std::size_t blocks = 0;  //!< superblocks compiled and proved
    std::size_t macros = 0;  //!< macro-ops covered by those blocks
    std::size_t uops = 0;    //!< span uops checked
};

/**
 * Prove one compiled @p block against the reference semantics: the
 * flows cached in @p fc under the block's epoch, @p translator's
 * stable-context protocol, @p energy's per-uop scalars, and the
 * exit-protocol contract. Appends tier.* findings to @p report.
 */
void checkSuperblock(const Superblock &block, const Program &prog,
                     const FlowCache &fc, const Translator &translator,
                     const EnergyModel &energy, VerifyReport &report,
                     const SuperblockView &view = SuperblockView::real(),
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
 * Statically enumerable region heads of @p prog: the entry point,
 * every direct branch/call target, and the fall-through successor of
 * every region-ending transfer (return sites, post-jump joins).
 * Indirect-jump targets are not statically enumerable; at run time
 * such a head simply compiles on first hot entry, and its block is
 * proved by the same per-block checks, so the sweep's coverage gap is
 * heads only, never check families. Sorted, deduplicated, and
 * restricted to PCs where an instruction starts.
 */
std::vector<Addr> regionHeads(const Program &prog);

/**
 * The offline driver: populate a flow cache for @p prog under
 * @p translator's current trigger state, compile a superblock at every
 * statically known region head with SuperblockBuilder, and run
 * checkSuperblock over each. This is the sweep csd-lint --tiers runs
 * per preset and per translator configuration.
 */
TierAudit auditProgramTiers(const Program &prog, Translator &translator,
                            VerifyReport &report,
                            const SuperblockView &view =
                                SuperblockView::real(),
                            const TierEquivOptions &options = {});

} // namespace csd

#endif // CSD_VERIFY_TIER_EQUIV_HH
