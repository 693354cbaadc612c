/**
 * @file
 * The three-level cache hierarchy plus DRAM.
 *
 * Layout matches the paper's Sandy Bridge baseline (Table I): split
 * 32 KB L1I/L1D, unified 256 KB L2, 8 MB LLC, with DRAM behind. The
 * hierarchy is inclusive; clflush removes a block from every level
 * (which is what FLUSH+RELOAD relies on). A configurable extra L2 tag
 * latency models the lightweight hardware DIFT the paper charges
 * 4 cycles for (§VI-A).
 */

#ifndef CSD_MEMORY_HIERARCHY_HH
#define CSD_MEMORY_HIERARCHY_HH

#include <memory>

#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "memory/cache.hh"
#include "memory/set_monitor.hh"

namespace csd
{

/** Hierarchy configuration. */
struct MemHierarchyParams
{
    CacheParams l1i{"l1i", 32 * 1024, 8, 3};
    CacheParams l1d{"l1d", 32 * 1024, 8, 4};
    CacheParams l2{"l2", 256 * 1024, 8, 12};
    CacheParams llc{"llc", 8 * 1024 * 1024, 16, 30};
    Cycles dramLatency = 200;

    /** Extra cycles added to every L2 access (hardware DIFT tag check). */
    Cycles extraL2Latency = 0;
};

/** Result of one hierarchy access. */
struct MemAccessResult
{
    Cycles latency = 0;
    /** 1 = L1, 2 = L2, 3 = LLC, 4 = DRAM. */
    unsigned levelHit = 0;

    bool l1Hit() const { return levelHit == 1; }
};

/** A blocking, inclusive, three-level cache hierarchy. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MemHierarchyParams &params = {});

    // The demand entry points are inline (below the class): the L1-hit
    // path is the single hottest operation in cache-only simulation,
    // and inlining it avoids two calls per executed memory uop. Misses
    // continue out of line in missThrough().

    /** Demand data read at @p addr. */
    MemAccessResult readData(Addr addr);

    /** Demand data write at @p addr (write-allocate). */
    MemAccessResult writeData(Addr addr);

    /** Instruction fetch at @p addr. */
    MemAccessResult fetchInstr(Addr addr);

    /** clflush: remove the block from every level. */
    void flush(Addr addr);

    /** Drop all cached state (e.g. between benchmark repetitions). */
    void invalidateAll();

    Cache &l1i() { return *l1i_; }
    Cache &l1d() { return *l1d_; }
    Cache &l2() { return *l2_; }
    Cache &llc() { return *llc_; }

    const MemHierarchyParams &params() const { return params_; }

    /** Set the DIFT tag-check penalty on L2 accesses. */
    void setExtraL2Latency(Cycles extra) { params_.extraL2Latency = extra; }

    /**
     * Arm per-set channel telemetry on the attacker-observable L1
     * structures (L1I + L1D; the uop cache attaches itself via
     * UopCache::setMonitor). Idempotent — a second call keeps the
     * existing monitor and its counters. The hierarchy owns the
     * monitor.
     */
    CacheSetMonitor &armSetMonitor(const SetMonitorConfig &config = {});

    /** The armed monitor, or null (the default: zero telemetry cost). */
    CacheSetMonitor *setMonitor() const { return setMonitor_.get(); }

    StatGroup &stats() { return stats_; }

  private:
    MemAccessResult accessThrough(Cache &l1, Addr addr, bool is_write);

    /** L1-miss continuation: walk L2 -> LLC -> DRAM and fill back. */
    MemAccessResult missThrough(Cache &l1, Addr addr, bool is_write,
                                MemAccessResult result);

    MemHierarchyParams params_;
    std::unique_ptr<Cache> l1i_;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<CacheSetMonitor> setMonitor_;

    StatGroup stats_;
    Counter dramAccesses_;
    Distribution readLatency_{0, 250, 25};
    Formula l1dMissRate_;
};

// Forced inline: the L1-hit path must fold into the simulation loops
// even when the caller is already near the inliner's growth budget
// (the retire routine's dispatch loop is one big function).
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline MemAccessResult
MemHierarchy::accessThrough(Cache &l1, Addr addr, bool is_write)
{
    MemAccessResult result;
    result.latency = l1.hitLatency();
    if (l1.access(addr, is_write)) {
        result.levelHit = 1;
        return result;
    }
    return missThrough(l1, addr, is_write, result);
}

inline MemAccessResult
MemHierarchy::readData(Addr addr)
{
    const MemAccessResult result = accessThrough(*l1d_, addr, false);
    if (statsDetailEnabled())
        readLatency_.sample(static_cast<double>(result.latency));
    return result;
}

inline MemAccessResult
MemHierarchy::writeData(Addr addr)
{
    return accessThrough(*l1d_, addr, true);
}

inline MemAccessResult
MemHierarchy::fetchInstr(Addr addr)
{
    return accessThrough(*l1i_, addr, false);
}

} // namespace csd

#endif // CSD_MEMORY_HIERARCHY_HH
