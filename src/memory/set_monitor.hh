/**
 * @file
 * Per-set cache telemetry for the side-channel observability layer.
 *
 * A CacheSetMonitor watches the exact structures a cache attacker can
 * observe — the L1I, the L1D, and the micro-op cache — at set
 * granularity: per-set access/miss/eviction/invalidation counters, an
 * interval time series of per-set activity (the "set heatmap": one row
 * of per-set access counts every heatmapInterval recorded events), and
 * victim-attributed ground truth for the attacker-observation ledger
 * (sec/observation_ledger.hh).
 *
 * Arming is per ObservabilityContext (CSD_CHANNEL_HEATMAP=path, which
 * also exports the heatmaps there; see common/context.hh) or explicit
 * (MemHierarchy::armSetMonitor()). Disarmed — the default — the only
 * cost in the cache hot paths is one null-pointer test behind an
 * [[unlikely]] branch, the same pattern the host profiler uses;
 * bench_sim_throughput's CI gate holds with the monitor disarmed.
 *
 * Actor attribution: the simulation wraps victim execution in
 * ScopedActor(Victim) and the attack primitives wrap their probes in
 * ScopedActor(Attacker), so per-set victim access counts — the ground
 * truth an omniscient observer has and the attacker must infer — are
 * never polluted by the attacker's own prime/reload traffic.
 */

#ifndef CSD_MEMORY_SET_MONITOR_HH
#define CSD_MEMORY_SET_MONITOR_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace csd
{

/** Who is driving the monitored accesses right now. */
enum class MonitorActor : std::uint8_t
{
    None,      //!< harness plumbing, warmup, unattributed traffic
    Victim,    //!< the defended program (ground-truth touches)
    Attacker,  //!< probe traffic (never counted as ground truth)
};

/** Monitor knobs. */
struct SetMonitorConfig
{
    /** Recorded events per structure between heatmap rows. */
    std::uint64_t heatmapInterval = 4096;

    /** Heatmap row cap per structure (memory bound; excess events
     *  still count, the series just stops growing and is flagged). */
    std::size_t maxHeatmapRows = 4096;
};

/** Per-set telemetry over the attacker-observable cache structures. */
class CacheSetMonitor
{
  public:
    /** The observable structures (ISSUE: L1I / L1D / uop cache). */
    enum class Structure : std::uint8_t
    {
        L1I,
        L1D,
        UopCache,
        NumStructures,
    };

    static constexpr std::size_t numStructures =
        static_cast<std::size_t>(Structure::NumStructures);

    /** Printable structure name ("l1i" / "l1d" / "uop_cache"). */
    static const char *structureName(Structure structure);

    /** One set's counters. */
    struct SetCounters
    {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t invalidations = 0;
        /** Accesses recorded while the actor was Victim. */
        std::uint64_t victimAccesses = 0;
    };

    explicit CacheSetMonitor(const SetMonitorConfig &config = {});

    /** Start recording @p structure with @p num_sets sets. Idempotent
     *  (re-attaching with the same geometry keeps the counters). */
    void attach(Structure structure, unsigned num_sets);

    bool attached(Structure structure) const
    {
        return !state(structure).sets.empty();
    }

    // --- hot-path recording (called behind `if (monitor)` guards) ---------

    void recordAccess(Structure structure, unsigned set, Addr block,
                      bool miss);
    void recordEviction(Structure structure, unsigned set);
    void recordInvalidation(Structure structure, unsigned set);

    // --- actor attribution -------------------------------------------------

    MonitorActor actor() const { return actor_; }
    void setActor(MonitorActor actor) { actor_ = actor; }

    /** RAII actor attribution (restores the previous actor). */
    class ScopedActor
    {
      public:
        ScopedActor(CacheSetMonitor *monitor, MonitorActor actor)
            : monitor_(monitor),
              prev_(monitor ? monitor->actor() : MonitorActor::None)
        {
            if (monitor_)
                monitor_->setActor(actor);
        }

        ~ScopedActor()
        {
            if (monitor_)
                monitor_->setActor(prev_);
        }

        ScopedActor(const ScopedActor &) = delete;
        ScopedActor &operator=(const ScopedActor &) = delete;

      private:
        CacheSetMonitor *monitor_;
        MonitorActor prev_;
    };

    // --- ground truth for the observation ledger ---------------------------

    /**
     * Track victim touches of the block containing @p block
     * (line-granular ground truth for FLUSH+RELOAD). Idempotent; the
     * touch count survives re-watching.
     */
    void watchLine(Structure structure, Addr block);

    /** Victim touches of a watched line (0 if never watched). */
    std::uint64_t victimLineTouches(Structure structure, Addr block) const;

    /** Victim accesses recorded against @p set (PRIME+PROBE truth). */
    std::uint64_t victimSetTouches(Structure structure, unsigned set) const;

    // --- results -----------------------------------------------------------

    const std::vector<SetCounters> &counters(Structure structure) const
    {
        return state(structure).sets;
    }

    /** Total recorded access events on @p structure. */
    std::uint64_t events(Structure structure) const
    {
        return state(structure).events;
    }

    /** Completed heatmap rows (per-set access counts per interval). */
    const std::vector<std::vector<std::uint32_t>> &
    heatmap(Structure structure) const
    {
        return state(structure).rows;
    }

    std::uint64_t heatmapInterval() const { return config_.heatmapInterval; }

    // --- exports -----------------------------------------------------------

    /**
     * Set-heatmap CSV for one structure: a comment header naming the
     * geometry, then "interval,set0,...,setN-1" rows of per-interval
     * access counts (the trailing partial interval included last).
     */
    void writeHeatmapCsv(std::ostream &os, Structure structure) const;

    /**
     * JSON summary of every attached structure: per-set totals, the
     * heatmap, and the watched-line ground truth, under a
     * schema_version like the other observability exports.
     */
    void writeJson(std::ostream &os) const;

    /**
     * Write `<base>.<structure>.csv` per attached structure plus
     * `<base>.json`. Returns the paths written ("%c" expansion is the
     * caller's job — common/context.hh expandContextPath()).
     */
    std::vector<std::string> exportFiles(const std::string &base) const;

  private:
    struct StructureState
    {
        std::vector<SetCounters> sets;  //!< empty = not attached
        std::uint64_t events = 0;
        std::vector<std::vector<std::uint32_t>> rows;
        std::vector<std::uint32_t> currentRow;
        std::uint64_t rowEvents = 0;
        bool truncated = false;
        std::map<Addr, std::uint64_t> watchedLines;
    };

    StructureState &state(Structure structure)
    {
        return structs_[static_cast<std::size_t>(structure)];
    }
    const StructureState &state(Structure structure) const
    {
        return structs_[static_cast<std::size_t>(structure)];
    }

    SetMonitorConfig config_;
    MonitorActor actor_ = MonitorActor::None;
    StructureState structs_[numStructures];
};

} // namespace csd

#endif // CSD_MEMORY_SET_MONITOR_HH
