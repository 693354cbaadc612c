/**
 * @file
 * Host-side predecoded-flow cache, and the resolved form in which the
 * simulator retires every macro-op.
 *
 * The simulator re-enters the translator for every fetched macro-op,
 * and most translations are pure: the same macro-op under the same CSD
 * trigger state always yields the same micro-op flow. This table
 * memoizes those translations per static instruction, in the form the
 * retire routine (sim/retire.cc) consumes: resolveMacro() turns the
 * flow into an SbMacro header plus a span of SbOps in the reference
 * executor's expansion order (prologue, body x tripCount, epilogue),
 * each op carrying its handler, its dynamic energy and its timing
 * record (UopTimingRec, cpu/backend.hh) by value. The cache resolves a
 * flow once, at insert(); a hit is retired straight from its entry,
 * and a superblock (decode/superblock.hh) lists the entries' macros
 * instead of resolving its own copy. Only a translation the cache does
 * not keep (unstable, not cacheable, from another context, or longer
 * than maxStoredUops) is resolved per step, into the simulator's
 * scratch entry.
 *
 * The table is a flat vector with one compact header per static
 * instruction (the simulator indexes it by the macro-op's position in
 * Program::code()), so a lookup is an array access plus an epoch
 * compare — no hashing on the hot path. The entry itself is allocated
 * on its first insert, with its span at its exact size, so reset()
 * writes headers only. A re-insert rewrites the entry in place, so an
 * entry (and its SbMacro) stays at one address until clear()/reset();
 * its span moves when the new flow resolves to another length.
 *
 * Each slot holds one entry per stable decode context, side by side:
 * the native translation, and — allocated on the first insertion of a
 * non-native flow — the alternate one (the CSD's only other stable
 * context is devectorization, csd/csd.hh). A devectorization toggle
 * switches which side a lookup reads without bumping the epoch, so
 * both flows stay live across toggles, and an insertion for one
 * context never overwrites the other context's entry that compiled
 * superblocks refer to.
 *
 * This is purely a host optimization — it models no hardware structure
 * and must never change simulated timing or statistics. Architectural
 * faithfulness is kept by the Translator's flow-cache protocol
 * (translator.hh): entries are tagged with the translator's epoch and
 * dropped when trigger state changes in a way that could alter a
 * stable translation (stealth retriggers and devectorization toggles
 * do not), ops whose translation depends on mutable per-instance
 * state bypass the cache entirely, and hits replay the translator's
 * accounting. The hit/miss counters below are host-side plain
 * integers, deliberately outside the simulated stat tree, so a stat
 * dump is byte-identical with the cache on or off.
 */

#ifndef CSD_DECODE_FLOW_CACHE_HH
#define CSD_DECODE_FLOW_CACHE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "cpu/backend.hh"
#include "isa/macroop.hh"
#include "power/energy.hh"
#include "uop/flow.hh"

namespace csd
{

/**
 * Per-uop handler, resolved from the opcode by resolveMacro() so the
 * retire routine dispatches through a computed-goto label table
 * instead of re-classifying the opcode per dynamic instance.
 */
enum class SbHandler : std::uint8_t
{
    Load,        //!< scalar load (D- or, for decoys, I-side probe)
    Store,       //!< scalar store (register data)
    StoreImm,    //!< scalar store (immediate data)
    LoadVec,     //!< 16-byte vector load
    StoreVec,    //!< 16-byte vector store
    Br,          //!< conditional direct branch
    BrInd,       //!< indirect branch
    CacheFlush,  //!< clflush: evict + fixed latency
    ReadCycles,  //!< rdtsc: architectural value is the cycle hint
    Nop,         //!< nothing (timing/energy accounting only)
    Vector,      //!< 128-bit vector ALU/FP (FunctionalExecutor entry)
    VExtract,    //!< vector lane -> integer register
    ScalarFp,    //!< scalar FP unit (FunctionalExecutor entry)
    ScalarAlu,   //!< everything else (FunctionalExecutor entry)
    Halt,        //!< program end: ends the macro (never in a superblock)
    NumHandlers,
};

/**
 * Handler for one micro-opcode, mirroring the dispatch groups of
 * FunctionalExecutor::execUop (cpu/executor.cc) exactly: every opcode
 * lands in the same semantic bucket in both tiers. Public so the
 * static tier-equivalence prover (verify/tier_equiv.hh) can name the
 * mapping it independently re-derives from the executor's switch.
 */
SbHandler sbHandlerFor(MicroOpcode op);

// Per-macro protocol guards. The driver (sim/retire.cc) performs all
// four before every compiled macro's uops, in this order: tick (part
// of the per-macro protocol) fires any due watchdog, the epoch compare
// detects a translation change, the stability probe vetoes ops whose
// translation depends on mutable per-instance state, and the context
// compare vetoes a macro whose stable context moved since the block
// was compiled (a devectorization toggle, which bumps no epoch).
// resolveMacro stamps the set into SbMacro::guards as provenance; the
// tier-equivalence prover requires the epoch+tick pair on every macro
// with a memory or branch effect, the stability probe everywhere, and
// the context compare on every devectorizable macro
// (tier.unguarded-epoch-window).
constexpr std::uint8_t sbGuardTick = 1u << 0;
constexpr std::uint8_t sbGuardEpoch = 1u << 1;
constexpr std::uint8_t sbGuardStability = 1u << 2;
constexpr std::uint8_t sbGuardContext = 1u << 3;
constexpr std::uint8_t sbGuardAll =
    sbGuardTick | sbGuardEpoch | sbGuardStability | sbGuardContext;

/** One pre-resolved uop of a macro's span. */
struct SbOp
{
    /** The flow's uop (a micro-loop body repeats it); it lives in the
     *  same entry as the span. */
    const Uop *uop = nullptr;
    UopTimingRec timing;     //!< timingRecordFor(*uop)
    double energy = 0;       //!< EnergyModel::uopEnergy, precomputed
    SbHandler handler = SbHandler::Nop;

    bool vpu() const { return timing.has(UopTimingRec::vpu); }
    bool decoy() const { return timing.has(UopTimingRec::decoy); }
    /** !eliminated: slots/energy/probe apply. */
    bool counted() const { return !timing.has(UopTimingRec::eliminated); }
};

/** Per-macro-op header of a resolved span. */
struct SbMacro
{
    const MacroOp *op = nullptr;   //!< points into Program::code()
    const UopFlow *flow = nullptr; //!< the resolved flow
    const SbOp *ops = nullptr;     //!< the span, dynCount ops long
    Addr fallThrough = invalidAddr;  //!< nextPc() when no branch taken
    Addr fetchFirst = 0;           //!< first I-fetch cache block
    Addr fetchLast = 0;            //!< last I-fetch cache block
    std::uint32_t dynCount = 0;    //!< dynamic uops incl. eliminated
    std::uint32_t delivered = 0;   //!< dynamic uops excl. eliminated
    std::uint32_t frontEndSlots = 0;  //!< deliveredSlots(*flow)
    std::uint16_t ctx = 0;         //!< context the flow was translated in
    std::uint8_t guards = 0;       //!< sbGuard* bits compiled against
};

/**
 * Resolve @p op's @p flow, translated in decode context @p ctx, into
 * an SbMacro whose span replaces the contents of @p ops: prologue,
 * body x tripCount, epilogue — the order FunctionalExecutor::executeInto
 * expands it in. Each SbOp points at @p flow's uop, so @p flow must
 * outlive the span; the macro points at both.
 */
SbMacro resolveMacro(const MacroOp &op, const UopFlow &flow, unsigned ctx,
                     const EnergyModel &energy, std::vector<SbOp> &ops);

/** Memoization table: (instruction slot, stable context side) ->
 *  (epoch, resolved translation). */
class FlowCache
{
  public:
    /** One translation in its resolved form. Never copied or moved:
     *  the macro points at the flow and the span. */
    struct Entry
    {
        Entry() = default;
        Entry(const Entry &) = delete;
        Entry &operator=(const Entry &) = delete;

        /** Replace the translation with @p op's @p flow, translated in
         *  @p ctx, and resolve it into the span. */
        void
        assign(const MacroOp &op, UopFlow &&flow, unsigned ctx,
               const EnergyModel &energy)
        {
            this->flow = std::move(flow);
            macro = resolveMacro(op, this->flow, ctx, energy, ops);
        }

        SbMacro macro;            //!< the header the retire routine reads
        std::vector<SbOp> ops;    //!< macro.ops
        UopFlow flow;             //!< the translator's flow
    };

    /** Longest expansion (FlowCache::admits) kept resident: a span holds
     *  one op per dynamic uop, and a rep-stos trip count is a program
     *  immediate. */
    static constexpr std::uint64_t maxStoredUops = 8192;

    /** May a translation be kept: cacheable, and short enough to
     *  store its span. */
    static bool
    admits(const UopFlow &flow)
    {
        return flow.cacheable && flow.expandedCount() <= maxStoredUops;
    }

    /** Size the table for a program's static instruction count; writes
     *  the headers only. */
    void
    reset(std::size_t slot_count)
    {
        native_ = std::vector<Slot>(slot_count);
        alternate_ = std::vector<Slot>();
        count_ = 0;
    }

    std::size_t slots() const { return native_.size(); }

    /**
     * The entry in @p slot if it was recorded under @p epoch by a
     * translation in context @p expected_ctx, else nullptr. The
     * context picks the side (native, or the alternate side for any
     * other context). A stale entry (older epoch) counts as an
     * invalidation; an alternate-side entry filled from a different
     * non-native context counts as a ctx invalidation (a translator
     * with more than one non-native stable context would otherwise be
     * served another context's flow). Either way the caller
     * re-translates and insert() overwrites.
     */
    const Entry *
    lookup(std::size_t slot, std::uint64_t epoch, unsigned expected_ctx)
    {
        native_[slot].recentAlternate = expected_ctx != nativeCtx;
        const Slot *side = sideOf(slot, expected_ctx);
        if (!side || !side->entry) {
            ++misses;
            return nullptr;
        }
        if (side->epoch != epoch) {
            ++invalidations;
            return nullptr;
        }
        if (side->entry->macro.ctx != expected_ctx) {
            ++ctx_invalidations;
            return nullptr;
        }
        ++hits;
        return side->entry.get();
    }

    /**
     * lookup() without the accounting: the superblock builder walks
     * cached flows speculatively and must not perturb the hit/miss
     * counters the flow-cache tests pin.
     */
    const Entry *
    peek(std::size_t slot, std::uint64_t epoch, unsigned expected_ctx) const
    {
        const Slot *side = sideOf(slot, expected_ctx);
        if (!side || !side->entry || side->epoch != epoch ||
            side->entry->macro.ctx != expected_ctx)
            return nullptr;
        return side->entry.get();
    }

    /**
     * The current entry of the context @p slot was last looked up or
     * inserted in, else the other context's, else nullptr; no
     * accounting. The superblock builder compiles an op that follows
     * the region head in its most recent context: a power controller
     * toggles devectorization per macro, so the context the op will
     * see is not known at build time, and the tier re-checks it per
     * macro (sbGuardContext).
     */
    const Entry *
    peekRecent(std::size_t slot, std::uint64_t epoch) const
    {
        const Slot *sides[2] = {
            &native_[slot], alternate_.empty() ? nullptr : &alternate_[slot]};
        if (recentAlternate(slot))
            std::swap(sides[0], sides[1]);
        for (const Slot *side : sides)
            if (side && side->entry && side->epoch == epoch)
                return side->entry.get();
        return nullptr;
    }

    /** True iff @p slot's last lookup or insertion was for a
     *  non-native context (peekRecent() reads that side first). */
    bool
    recentAlternate(std::size_t slot) const
    {
        return native_[slot].recentAlternate;
    }

    /**
     * Bump the region-entry counter hung off @p slot (superblock-tier
     * hotness detection) and return the new value. Saturates.
     */
    std::uint32_t
    bumpHeat(std::size_t slot)
    {
        std::uint32_t &heat = native_[slot].heat;
        if (heat != ~0u)
            ++heat;
        return heat;
    }

    /** Reset @p slot's hotness after a failed superblock build. */
    void coolSlot(std::size_t slot) { native_[slot].heat = 0; }

    /**
     * Record @p op's @p flow in @p slot's side for @p ctx under
     * @p epoch, overwriting any stale entry there, and resolve it (the
     * caller checked admits()). The span is reallocated at its exact
     * size unless the old one already has it. Returns the entry, which
     * stays at its address until clear()/reset().
     */
    const Entry &
    insert(std::size_t slot, std::uint64_t epoch, unsigned ctx,
           const MacroOp &op, UopFlow flow, const EnergyModel &energy)
    {
        if (ctx != nativeCtx && alternate_.empty())
            alternate_ = std::vector<Slot>(native_.size());
        native_[slot].recentAlternate = ctx != nativeCtx;
        Slot &side = (ctx == nativeCtx ? native_ : alternate_)[slot];
        if (!side.entry) {
            side.entry = std::make_unique<Entry>();
            ++count_;
        }
        side.epoch = epoch;
        Entry &entry = *side.entry;
        entry.assign(op, std::move(flow), ctx, energy);
        // Growth is exact already (resolveMacro reserves the length);
        // a shorter re-translation gives the slack back.
        if (entry.ops.capacity() != entry.ops.size()) {
            entry.ops.shrink_to_fit();
            entry.macro.ops = entry.ops.data();
        }
        return entry;
    }

    /** Drop every cached flow; keeps the sizing, the counters and each
     *  slot's heat. */
    void
    clear()
    {
        for (Slot &side : native_) {
            side.entry.reset();
            side.recentAlternate = false;
        }
        alternate_ = std::vector<Slot>();
        count_ = 0;
    }

    /** Number of live entries, both sides. */
    std::size_t size() const { return count_; }

    // Host-side accounting (see file comment: intentionally not Stats).
    std::uint64_t hits = 0;           //!< served from cache
    std::uint64_t misses = 0;         //!< entry never filled
    std::uint64_t invalidations = 0;  //!< entry stale (epoch changed)
    std::uint64_t ctx_invalidations = 0;  //!< entry from another context
    std::uint64_t bypasses = 0;       //!< translation unstable, not cached

  private:
    /** The native context (Translator::contextId() of a plain
     *  translation); every other context uses the alternate side. */
    static constexpr unsigned nativeCtx = 0;

    /** One side of one slot: its entry, once filled, and the epoch it
     *  was filled under. heat and recentAlternate are the native
     *  side's only. */
    struct Slot
    {
        std::uint64_t epoch = 0;
        std::unique_ptr<Entry> entry;
        std::uint32_t heat = 0;   //!< region-entry count
        bool recentAlternate = false;  //!< see peekRecent()
    };

    /** @p slot's side for @p ctx; null while the alternate side is
     *  unallocated. */
    const Slot *
    sideOf(std::size_t slot, unsigned ctx) const
    {
        if (ctx == nativeCtx)
            return &native_[slot];
        return alternate_.empty() ? nullptr : &alternate_[slot];
    }

    std::vector<Slot> native_;
    std::vector<Slot> alternate_;  //!< empty until a non-native insert
    std::size_t count_ = 0;
};

} // namespace csd

#endif // CSD_DECODE_FLOW_CACHE_HH
