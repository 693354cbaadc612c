/**
 * @file
 * Host-side predecoded-flow cache.
 *
 * The simulator re-enters the translator for every fetched macro-op,
 * and most translations are pure: the same macro-op under the same CSD
 * trigger state always yields the same micro-op flow. This table
 * memoizes those translations per static instruction so the hot loop
 * hands out a shared immutable flow instead of rebuilding (and
 * re-running the decode-time fusion passes over) an identical one.
 *
 * Each entry also holds its uops' timing records (UopTimingRec,
 * cpu/backend.hh), resolved once at insertion. Both drivers of the
 * simulator's one retire routine resolve a macro from the entry
 * (resolveMacro, decode/superblock.hh) with SbOps pointing at the
 * entry's uops and records: the interpreter afresh per step, the
 * superblock tier once per compiled region. Nothing else keeps a
 * resolved copy.
 *
 * The table is a flat vector with one slot per static instruction of
 * the program (the simulator indexes it by the macro-op's position in
 * Program::code()), so a lookup is an array access plus an epoch
 * compare — no hashing on the hot path. reset() sizes the native side
 * for the program, building each slot in place (a default Entry writes
 * its header fields only, so set-up scales with the slot count, not
 * with the entries' inline flow storage). Neither side reallocates
 * between reset() and clear(), so flow references stay stable until
 * then; a clear() with no live entry only resets the per-slot flags.
 *
 * Each slot holds one entry per stable decode context, side by side:
 * the native translation, and — allocated on the first insertion of a
 * non-native flow — the alternate one (the CSD's only other stable
 * context is devectorization, csd/csd.hh). A devectorization toggle
 * switches which side a lookup reads without bumping the epoch, so
 * both flows stay live across toggles, and an insertion for one
 * context never overwrites the other context's entry that compiled
 * superblocks point into.
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
#include <utility>
#include <vector>

#include "common/small_vector.hh"
#include "common/types.hh"
#include "cpu/backend.hh"
#include "uop/flow.hh"

namespace csd
{

/** Memoization table: (instruction slot, stable context side) ->
 *  (epoch, context, flow, timing records). */
class FlowCache
{
  public:
    struct Entry
    {
        /** Writes the header fields and the containers' bookkeeping
         *  only; their inline storage stays raw (a user-provided
         *  constructor, so value-initializing a slot does not zero
         *  the whole entry first). */
        Entry() {}

        std::uint64_t epoch = 0;  //!< translator epoch at insertion
        unsigned ctx = 0;         //!< contextId() of the translation
        std::uint32_t heat = 0;   //!< region-entry count (native side only)
        bool valid = false;
        /** Native side only: the slot's last lookup or insertion was
         *  for a non-native context (see peekRecent()). */
        bool recentAlternate = false;
        UopFlow flow;             //!< shared immutable predecoded flow
        /** timingRecordFor(flow.uops[i]), parallel to flow.uops (with
         *  the same inline capacity, so a flow that fits inline does
         *  not allocate for its records either). */
        SmallVector<UopTimingRec, UopVec::inlineCapacity()> timing;
    };

    /** Size the table for a program's static instruction count. Slots
     *  are built in place, not copied from a prototype entry. */
    void
    reset(std::size_t slot_count)
    {
        native_ = std::vector<Entry>(slot_count);
        alternate_ = {};
        count_ = 0;
    }

    std::size_t slots() const { return native_.size(); }

    /**
     * The cached flow in @p slot if it was recorded under @p epoch by
     * a translation in context @p expected_ctx, else nullptr. The
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
        const Entry *entry = sideEntry(slot, expected_ctx);
        if (!entry || !entry->valid) {
            ++misses;
            return nullptr;
        }
        if (entry->epoch != epoch) {
            ++invalidations;
            return nullptr;
        }
        if (entry->ctx != expected_ctx) {
            ++ctx_invalidations;
            return nullptr;
        }
        ++hits;
        return entry;
    }

    /**
     * lookup() without the accounting: the superblock builder walks
     * cached flows speculatively and must not perturb the hit/miss
     * counters the flow-cache tests pin.
     */
    const Entry *
    peek(std::size_t slot, std::uint64_t epoch, unsigned expected_ctx) const
    {
        const Entry *entry = sideEntry(slot, expected_ctx);
        if (!entry || !entry->valid || entry->epoch != epoch ||
            entry->ctx != expected_ctx)
            return nullptr;
        return entry;
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
        const Entry *sides[2] = {
            &native_[slot], alternate_.empty() ? nullptr : &alternate_[slot]};
        if (recentAlternate(slot))
            std::swap(sides[0], sides[1]);
        for (const Entry *entry : sides)
            if (entry && entry->valid && entry->epoch == epoch)
                return entry;
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
     * Record @p flow in @p slot's side for @p ctx under @p epoch,
     * overwriting any stale entry there, and resolve its uops' timing
     * records. Returns the cached entry; the reference stays valid
     * until clear()/reset() (neither side reallocates in between).
     */
    const Entry &
    insert(std::size_t slot, std::uint64_t epoch, unsigned ctx,
           UopFlow flow)
    {
        if (ctx != nativeCtx && alternate_.empty())
            alternate_ = std::vector<Entry>(native_.size());
        native_[slot].recentAlternate = ctx != nativeCtx;
        Entry &entry = (ctx == nativeCtx ? native_ : alternate_)[slot];
        count_ += entry.valid ? 0 : 1;
        entry.valid = true;
        entry.epoch = epoch;
        entry.ctx = ctx;
        entry.flow = std::move(flow);
        // Reuse the entry's record buffer: an entry re-translated after
        // every epoch bump would otherwise churn the heap.
        entry.timing.clear();
        entry.timing.reserve(entry.flow.uops.size());
        for (const Uop &uop : entry.flow.uops)
            entry.timing.push_back(timingRecordFor(uop));
        return entry;
    }

    /** Drop every cached flow; keeps the sizing, the counters and each
     *  slot's heat. */
    void
    clear()
    {
        if (count_ == 0 && alternate_.empty()) {
            // No slot holds a flow (only insert() fills one, and it
            // counts it), so lookup()'s flag is all there is to reset.
            for (Entry &entry : native_)
                entry.recentAlternate = false;
            return;
        }
        for (Entry &entry : native_) {
            entry.valid = false;
            entry.recentAlternate = false;
            entry.flow = UopFlow{};
            entry.timing = {};
        }
        alternate_ = {};
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

    /** @p slot's entry on @p ctx's side; null while the alternate
     *  side is unallocated. */
    const Entry *
    sideEntry(std::size_t slot, unsigned ctx) const
    {
        if (ctx == nativeCtx)
            return &native_[slot];
        return alternate_.empty() ? nullptr : &alternate_[slot];
    }

    std::vector<Entry> native_;
    std::vector<Entry> alternate_;  //!< empty until a non-native insert
    std::size_t count_ = 0;
};

} // namespace csd

#endif // CSD_DECODE_FLOW_CACHE_HH
