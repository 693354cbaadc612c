/**
 * @file
 * A single level of set-associative cache with true-LRU replacement.
 *
 * The model is tag-only (data lives in the architectural memory image):
 * what matters for both timing and the side-channel experiments is which
 * blocks are resident, and the precise eviction behaviour an attacker
 * can manipulate with PRIME+PROBE / FLUSH+RELOAD.
 *
 * Each stored way costs 8 host bytes: a 32-bit tag (the block number)
 * and a 32-bit LRU stamp. A cache stores only as many ways per set as
 * the run has filled: every set keeps its first `width` ways, and the
 * ways it does not store are invalid by definition. The width starts
 * at 1 and doubles, capped at the associativity, the first time a fill
 * finds every stored way of its set valid; the new ways start invalid,
 * so the victim rule (the first invalid way, else the least recently
 * used) and every decision of true LRU over the full associativity
 * are unchanged. The rows live in their own anonymous mapping, made at
 * the first fill and replaced on a widen, so an untouched cache costs
 * no memory and a widened one returns its old rows to the OS.
 *
 * Addresses must lie below maxAddr (256 GiB); any other fails loudly
 * instead of aliasing. No writeback is modelled, so there is no dirty
 * state. When a cache's stamp clock would wrap, each set's valid ways
 * are renumbered 1..k in recency order, which keeps every victim
 * choice of true LRU.
 */

#ifndef CSD_MEMORY_CACHE_HH
#define CSD_MEMORY_CACHE_HH

#include <cstddef>
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

    /**
     * Host bytes of the stored rows (numSets() x stored ways x 8); 0
     * before the first fill. Deterministic for a given access stream.
     */
    std::size_t
    storageBytes() const
    {
        return rows_ ? rowsBytes(width_) : 0;
    }

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
    friend class CacheTestPeer;  //!< tests: the clock, the stored ways

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

    /**
     * Initialize @p set's stored ways (all invalid) and mark it live,
     * mapping the rows first if this is the cache's first fill.
     */
    void makeSetLive(unsigned set);

    /**
     * Double the stored ways (capped at assoc): copy every live set's
     * row into new rows whose added ways are invalid, and release the
     * old rows.
     */
    void widen();

    /** @p set's tags (width_ of them); its stamps follow them. */
    Tag *
    tagsOf(unsigned set) const
    {
        return &rows_[static_cast<std::size_t>(set) * 2 * width_];
    }

    Stamp *stampsOf(unsigned set) const
    {
        return tagsOf(set) + width_;
    }

    /** Bytes of rows @p width ways wide. */
    std::size_t
    rowsBytes(unsigned width) const
    {
        return static_cast<std::size_t>(numSets_) * width *
               (sizeof(Tag) + sizeof(Stamp));
    }

    /** Unmaps rows; holds their byte length. */
    struct Unmap
    {
        std::size_t bytes;
        void operator()(std::uint32_t *rows) const;
    };
    using Rows = std::unique_ptr<std::uint32_t[], Unmap>;

    /** Map zeroed rows @p width ways wide (pages untouched). */
    Rows mapRows(unsigned width) const;

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
    // Per set, its width_ tags then its width_ stamps, so a hit's tag
    // scan and stamp write touch one run of 8 * width_ bytes (measured
    // no slower than separate tag and stamp arrays). Null until the
    // first fill() maps them; a page is only touched once a set on it
    // goes live (the full LLC is a megabyte most runs never touch). A
    // set's row is only meaningful once liveSets_ marks it live, and
    // the first fill() into a set initializes it; ways at or past
    // width_ are not stored, and are invalid.
    Rows rows_;
    unsigned width_ = 1;
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
    for (unsigned way = 0; way < width_; ++way) {
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
