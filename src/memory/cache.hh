/**
 * @file
 * A single level of set-associative cache with true-LRU replacement.
 *
 * The model is tag-only (data lives in the architectural memory image):
 * what matters for both timing and the side-channel experiments is which
 * blocks are resident, and the precise eviction behaviour an attacker
 * can manipulate with PRIME+PROBE / FLUSH+RELOAD.
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
    static constexpr unsigned invalidWay = ~0u;

    /**
     * Way of @p addr's block within its set, or invalidWay. The tag
     * arrays are struct-of-arrays so the scan reads one contiguous run
     * of tags (an invalid way holds invalidAddr, which no real block
     * address equals, so there is no separate valid bit to test).
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

    CacheParams params_;
    unsigned numSets_;
    // numSets_ x assoc, row-major, parallel arrays. Left uninitialized
    // at construction (a large LLC is megabytes most runs never touch);
    // a set's ways are only meaningful once liveSets_ marks it live,
    // and the first fill() into a set initializes them.
    std::unique_ptr<Addr[]> tags_;      //!< block base, invalidAddr = empty
    std::unique_ptr<std::uint64_t[]> lruStamps_;
    std::unique_ptr<std::uint8_t[]> dirty_;
    std::vector<std::uint64_t> liveSets_;  //!< one bit per set
    std::uint64_t lruClock_ = 0;

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
    const unsigned set = setIndex(addr);
    if (!setLive(set))
        return invalidWay;
    const Addr tag = blockAlign(addr);
    const std::size_t base = static_cast<std::size_t>(set) * params_.assoc;
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (tags_[base + way] == tag)
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
    if (hit) {
        const std::size_t idx =
            static_cast<std::size_t>(setIndex(addr)) * params_.assoc + way;
        lruStamps_[idx] = ++lruClock_;
        if (is_write)
            dirty_[idx] = 1;
    } else {
        ++misses_;
    }
    if (monitor_) [[unlikely]]
        monitor_->recordAccess(monitorStructure_, setIndex(addr),
                               blockAlign(addr), !hit);
    return hit;
}

} // namespace csd

#endif // CSD_MEMORY_CACHE_HH
