/**
 * @file
 * Translator interface: the hook point for context-sensitive decoding.
 *
 * The front end asks its Translator for the micro-op flow of each
 * macro-op in program order. The native translator is the static
 * table-driven translation; the context-sensitive decoder (csd/)
 * implements the same interface and swaps translations based on the
 * current execution context.
 */

#ifndef CSD_DECODE_TRANSLATOR_HH
#define CSD_DECODE_TRANSLATOR_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/macroop.hh"
#include "uop/flow.hh"
#include "uop/translate.hh"

namespace csd
{

/** Produces micro-op flows for macro-ops, possibly context-dependent. */
class Translator
{
  public:
    virtual ~Translator() = default;

    /** Translate @p op in program order. May advance internal state. */
    virtual UopFlow translate(const MacroOp &op) = 0;

    /**
     * Identifier of the translation context used by the most recent
     * translate() call, for the micro-op cache's context tag bits. The
     * native translation is context 0.
     */
    virtual unsigned contextId() const { return 0; }

    /** Advance time-based triggers (watchdog timers). */
    virtual void tick(Tick now) { (void)now; }

    // --- host-side flow-cache protocol -----------------------------------
    //
    // The simulation may memoize translate() results per PC. The three
    // hooks below make that memoization architecturally faithful: the
    // epoch invalidates cached flows in bulk when trigger state
    // changes, the stability predicate vetoes memoization for ops whose
    // translation depends on mutable per-instance state, and the replay
    // hook reproduces translate()'s accounting so stats stay
    // bit-identical whether a flow was cached or freshly translated.

    /**
     * Monotonic counter bumped whenever a state change could alter a
     * *stable* translation within one context (MSR writes, MCU mode
     * switches). Cached flows recorded under an older epoch must be
     * re-translated. State that only changes unstable translations
     * need not bump it: a CSD stealth retrigger refills the decoy
     * queue, which only affects tainted ops, and translationStable()
     * already sends those through translate() while ranges are pending.
     * Nor need a change that only moves stableContext(): the flow cache
     * keeps one entry per stable context, so a CSD devectorization
     * toggle switches which entry is read instead of staling both.
     */
    virtual std::uint64_t translationEpoch() const { return 0; }

    /**
     * The count of every trigger-state change, the ones that leave
     * memoized flows current included (stealth retriggers,
     * devectorization toggles). Published as the manifest's
     * `translator_epoch`; never a cache key.
     */
    virtual std::uint64_t reportedEpoch() const
    {
        return translationEpoch();
    }

    /**
     * True iff translating @p op right now is a pure function of
     * (op, epoch): no per-instance randomness (timing noise), no
     * translation-time side effects beyond plain accounting (stealth
     * decoy-range consumption), and no mutable rule lookup (MCU mode).
     * Unstable ops always go through the real translate().
     */
    virtual bool translationStable(const MacroOp &op) const
    {
        (void)op;
        return true;
    }

    /**
     * The contextId() a stable translation of @p op would report right
     * now. The flow cache reads the entry for this context and
     * compares it against the context the entry was filled under, so a
     * translator that switches contexts without bumping the epoch is
     * served the flow of the context it switched to, never another
     * context's; the superblock tier re-checks it per macro
     * (sbGuardContext). Only meaningful when translationStable(op)
     * holds.
     */
    virtual unsigned stableContext(const MacroOp &op) const
    {
        (void)op;
        return 0;
    }

    /**
     * Replay the accounting translate() would have performed for a
     * cache hit that returned @p flow translated under context @p ctx.
     * After this call all translator-side stats and the value of
     * contextId() must match what a real translate(op) would have left.
     */
    virtual void
    noteCachedTranslation(const MacroOp &op, const UopFlow &flow,
                          unsigned ctx)
    {
        (void)op;
        (void)flow;
        (void)ctx;
    }
};

/** The default static translation (contexts never change). Final so
 *  the superblock fast path's typed dispatch (sim/fastpath.cc) folds
 *  the no-op protocol hooks away entirely. */
class NativeTranslator final : public Translator
{
  public:
    UopFlow translate(const MacroOp &op) override
    {
        return translateNative(op);
    }
};

} // namespace csd

#endif // CSD_DECODE_TRANSLATOR_HH
