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
 * compare — no hashing on the hot path. The vector is sized once and
 * never reallocates, so flow references stay stable until clear().
 *
 * This is purely a host optimization — it models no hardware structure
 * and must never change simulated timing or statistics. Architectural
 * faithfulness is kept by the Translator's flow-cache protocol
 * (translator.hh): entries are tagged with the translator's epoch and
 * dropped when trigger state changes in a way that could alter a
 * stable translation (a stealth retrigger does not), ops whose
 * translation depends on mutable per-instance state bypass the cache
 * entirely, and hits replay the translator's accounting. The hit/miss
 * counters below are host-side plain integers, deliberately outside
 * the simulated stat tree, so a stat dump is byte-identical with the
 * cache on or off.
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

/** Memoization table: instruction slot -> (epoch, context, flow,
 *  timing records). */
class FlowCache
{
  public:
    struct Entry
    {
        std::uint64_t epoch = 0;  //!< translator epoch at insertion
        unsigned ctx = 0;         //!< contextId() of the translation
        std::uint32_t heat = 0;   //!< region-entry count (superblock tier)
        bool valid = false;
        UopFlow flow;             //!< shared immutable predecoded flow
        /** timingRecordFor(flow.uops[i]), parallel to flow.uops (with
         *  the same inline capacity, so a flow that fits inline does
         *  not allocate for its records either). */
        SmallVector<UopTimingRec, UopVec::inlineCapacity()> timing;
    };

    /** Size the table for a program's static instruction count. */
    void
    reset(std::size_t slot_count)
    {
        entries_.assign(slot_count, Entry{});
        count_ = 0;
    }

    std::size_t slots() const { return entries_.size(); }

    /**
     * The cached flow in @p slot if it was recorded under @p epoch by
     * a translation in context @p expected_ctx, else nullptr. A stale
     * entry (older epoch) counts as an invalidation; an entry filled
     * from a different decode context counts as a ctx invalidation (a
     * translator that changes context without bumping the epoch would
     * otherwise be served another context's flow). Either way the
     * caller re-translates and insert() overwrites.
     */
    const Entry *
    lookup(std::size_t slot, std::uint64_t epoch, unsigned expected_ctx)
    {
        Entry &entry = entries_[slot];
        if (!entry.valid) {
            ++misses;
            return nullptr;
        }
        if (entry.epoch != epoch) {
            ++invalidations;
            return nullptr;
        }
        if (entry.ctx != expected_ctx) {
            ++ctx_invalidations;
            return nullptr;
        }
        ++hits;
        return &entry;
    }

    /**
     * lookup() without the accounting: the superblock builder walks
     * cached flows speculatively and must not perturb the hit/miss
     * counters the flow-cache tests pin.
     */
    const Entry *
    peek(std::size_t slot, std::uint64_t epoch, unsigned expected_ctx) const
    {
        const Entry &entry = entries_[slot];
        if (!entry.valid || entry.epoch != epoch ||
            entry.ctx != expected_ctx)
            return nullptr;
        return &entry;
    }

    /**
     * Bump the region-entry counter hung off @p slot (superblock-tier
     * hotness detection) and return the new value. Saturates.
     */
    std::uint32_t
    bumpHeat(std::size_t slot)
    {
        std::uint32_t &heat = entries_[slot].heat;
        if (heat != ~0u)
            ++heat;
        return heat;
    }

    /** Reset @p slot's hotness after a failed superblock build. */
    void coolSlot(std::size_t slot) { entries_[slot].heat = 0; }

    /**
     * Record @p flow in @p slot under @p epoch, overwriting any stale
     * entry, and resolve its uops' timing records. Returns the cached
     * entry; the reference stays valid until clear()/reset() (the slot
     * vector never reallocates in between).
     */
    const Entry &
    insert(std::size_t slot, std::uint64_t epoch, unsigned ctx,
           UopFlow flow)
    {
        Entry &entry = entries_[slot];
        count_ += entry.valid ? 0 : 1;
        entry.valid = true;
        entry.epoch = epoch;
        entry.ctx = ctx;
        entry.flow = std::move(flow);
        // Reuse the slot's record buffer: a slot re-translated after
        // every devectorization toggle alternates between two flows,
        // and a fresh allocation per insertion would churn the heap.
        entry.timing.clear();
        entry.timing.reserve(entry.flow.uops.size());
        for (const Uop &uop : entry.flow.uops)
            entry.timing.push_back(timingRecordFor(uop));
        return entry;
    }

    /** Drop every cached flow; keeps the sizing and the counters. */
    void
    clear()
    {
        for (Entry &entry : entries_) {
            entry.valid = false;
            entry.flow = UopFlow{};
            entry.timing = {};
        }
        count_ = 0;
    }

    /** Number of live entries. */
    std::size_t size() const { return count_; }

    // Host-side accounting (see file comment: intentionally not Stats).
    std::uint64_t hits = 0;           //!< served from cache
    std::uint64_t misses = 0;         //!< slot never filled
    std::uint64_t invalidations = 0;  //!< entry stale (epoch changed)
    std::uint64_t ctx_invalidations = 0;  //!< entry from another context
    std::uint64_t bypasses = 0;       //!< translation unstable, not cached

  private:
    std::vector<Entry> entries_;
    std::size_t count_ = 0;
};

} // namespace csd

#endif // CSD_DECODE_FLOW_CACHE_HH
