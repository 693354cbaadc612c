/**
 * @file
 * A single level of set-associative cache with true-LRU replacement.
 *
 * The model is tag-only (data lives in the architectural memory image):
 * what matters for both timing and the side-channel experiments is which
 * blocks are resident, and the precise eviction behaviour an attacker
 * can manipulate with PRIME+PROBE / FLUSH+RELOAD.
 *
 * Each way costs 8 host bytes: a 32-bit tag (the block number) and a
 * 32-bit LRU stamp. Addresses must lie below maxAddr (256 GiB); any
 * other fails loudly instead of aliasing. No writeback is modelled, so
 * there is no dirty state. When a cache's stamp clock would wrap, each
 * set's valid ways are renumbered 1..k in recency order, which keeps
 * every victim choice of true LRU.
 */

#ifndef CSD_MEMORY_CACHE_HH
#define CSD_MEMORY_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "memory/set_monitor.hh"

namespace csd
{

/** Configuration for one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    Cycles hitLatency = 4;
};

/** One set-associative cache level. */
class Cache
{
  public:
    /** A way's tag: its block's number (blockNumber()). */
    using Tag = std::uint32_t;
    /** A way's LRU stamp; the larger of two was used more recently. */
    using Stamp = std::uint32_t;

    /**
     * Exclusive bound of the addresses a cache takes: the block number
     * must fit a tag below the empty-way marker. Any access, fill or
     * invalidate at or above it fails with csd_fatal.
     */
    static constexpr Addr maxAddr =
        static_cast<Addr>(~Tag{0}) * cacheBlockSize;

    explicit Cache(const CacheParams &params);

    /**
     * Access a block: on a hit, update LRU and return true; on a miss,
     * return false (the caller fills via fill()). Inline (below): this
     * is the hottest call in cache-only simulation.
     */
    bool access(Addr addr, bool is_write);

    /** Probe residency without disturbing replacement state or stats. */
    bool contains(Addr addr) const;

    /**
     * Install a block, evicting the LRU way of its set if needed.
     * Precondition: the block is absent (the caller's access() just
     * missed it). There is no residency scan, so a miss scans each set
     * once; filling a resident block would leave it in two ways.
     */
    void fill(Addr addr);

    /** Invalidate a block if present (clflush); returns prior presence. */
    bool invalidate(Addr addr);

    /** Invalidate the entire cache. */
    void invalidateAll();

    /** Index of the set @p addr maps to. */
    unsigned setIndex(Addr addr) const;

    /** All block base addresses currently resident in @p set. */
    std::vector<Addr> setContents(unsigned set) const;

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return params_.assoc; }
    Cycles hitLatency() const { return params_.hitLatency; }
    const std::string &name() const { return params_.name; }

    /**
     * Arm (or disarm, with nullptr) per-set telemetry: every
     * access/fill/invalidate is mirrored into @p monitor as
     * @p structure. Off by default; the hot paths pay one pointer test
     * behind an [[unlikely]] branch when disarmed.
     */
    void setMonitor(CacheSetMonitor *monitor,
                    CacheSetMonitor::Structure structure)
    {
        monitor_ = monitor;
        monitorStructure_ = structure;
        if (monitor_)
            monitor_->attach(structure, numSets_);
    }

    CacheSetMonitor *monitor() const { return monitor_; }

    StatGroup &stats() { return stats_; }
    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t hits() const
    {
        return accesses_.value() - misses_.value();
    }
    double
    missRate() const
    {
        return accesses_.value() == 0
            ? 0.0
            : static_cast<double>(misses_.value()) / accesses_.value();
    }

  private:
    friend class CacheTestPeer;  //!< tests: start the clock near a wrap

    static constexpr unsigned invalidWay = ~0u;
    static constexpr Tag emptyTag = ~Tag{0};  //!< an invalid way
    static constexpr Stamp maxStamp = ~Stamp{0};

    /** @p addr's tag; fails loudly if @p addr is not below maxAddr. */
    Tag
    tagOf(Addr addr) const
    {
        if (addr >= maxAddr) [[unlikely]]
            addressOutOfRange(addr);
        return static_cast<Tag>(blockNumber(addr));
    }

    [[noreturn]] void addressOutOfRange(Addr addr) const;

    /**
     * Way of @p addr's block within its set, or invalidWay. An invalid
     * way holds emptyTag, which no block number equals, so there is no
     * separate valid bit to test.
     */
    unsigned findWay(Addr addr) const;

    /** Has @p set been initialized since construction/invalidateAll? */
    bool
    setLive(unsigned set) const
    {
        return (liveSets_[set >> 6] >> (set & 63)) & 1;
    }

    /** Initialize @p set's ways (all invalid) and mark it live. */
    void makeSetLive(unsigned set);

    /** @p set's tags (assoc of them); its stamps follow them. */
    Tag *
    tagsOf(unsigned set) const
    {
        return &ways_[static_cast<std::size_t>(set) * 2 * params_.assoc];
    }

    Stamp *stampsOf(unsigned set) const
    {
        return tagsOf(set) + params_.assoc;
    }

    /** Advance the LRU clock, renumbering the stamps first on a wrap. */
    Stamp
    nextStamp()
    {
        if (lruClock_ == maxStamp) [[unlikely]]
            renumberStamps();
        return ++lruClock_;
    }

    /**
     * Renumber every live set's valid ways 1..k in stamp order and
     * restart the clock above them. Only the order within a set picks
     * a victim, so no replacement decision changes.
     */
    void renumberStamps();

    CacheParams params_;
    unsigned numSets_;
    // Per set, its assoc tags then its assoc stamps, so a hit's tag
    // scan and stamp write touch one run of 8 * assoc bytes (measured
    // no slower than separate tag and stamp arrays). Left
    // uninitialized at construction (the LLC's is a megabyte most
    // runs never touch); a set's ways are only meaningful once
    // liveSets_ marks it live, and the first fill() into a set
    // initializes them.
    std::unique_ptr<std::uint32_t[]> ways_;
    std::vector<std::uint64_t> liveSets_;  //!< one bit per set
    Stamp lruClock_ = 0;

    // Channel-observability hook (null = disarmed, the default).
    CacheSetMonitor *monitor_ = nullptr;
    CacheSetMonitor::Structure monitorStructure_ =
        CacheSetMonitor::Structure::L1D;

    StatGroup stats_;
    Counter accesses_;
    Counter misses_;
    Counter writeAccesses_;
    Counter evictions_;
    Counter invalidations_;
};

inline unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(blockNumber(addr)) & (numSets_ - 1);
}

inline unsigned
Cache::findWay(Addr addr) const
{
    const Tag tag = tagOf(addr);
    const unsigned set = tag & (numSets_ - 1);
    if (!setLive(set))
        return invalidWay;
    const Tag *tags = tagsOf(set);
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (tags[way] == tag)
            return way;
    }
    return invalidWay;
}

inline bool
Cache::access(Addr addr, bool is_write)
{
    ++accesses_;
    if (is_write)
        ++writeAccesses_;
    const unsigned way = findWay(addr);
    const bool hit = way != invalidWay;
    if (hit)
        stampsOf(setIndex(addr))[way] = nextStamp();
    else
        ++misses_;
    if (monitor_) [[unlikely]]
        monitor_->recordAccess(monitorStructure_, setIndex(addr),
                               blockAlign(addr), !hit);
    return hit;
}

} // namespace csd

#endif // CSD_MEMORY_CACHE_HH
