/**
 * @file
 * Statistics package.
 *
 * Components own a StatGroup and register named statistics with
 * descriptions; harnesses read them by name. Four statistic kinds are
 * supported, mirroring gem5's stats package:
 *
 *  - Counter:      monotonically increasing event count
 *  - Scalar:       double-valued accumulator (energy, latency sums)
 *  - Distribution: bucketed histogram with min/max/mean/stddev
 *  - Formula:      derived value computed at dump time (IPC, hit
 *                  rates, MPKI) from a captured callable
 *
 * dump() produces a gem5-style "name value # description" listing;
 * dumpJson() produces a hierarchical machine-readable document with
 * every registered statistic's name, description, and value(s).
 * valueOf("child.grandchild.stat") resolves dotted paths through the
 * group tree (used by the simulator's interval sampler).
 */

#ifndef CSD_COMMON_STATS_HH
#define CSD_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/binding.hh"

namespace csd
{

class StatGroup;

/**
 * Gate for statistics on per-macro-op / per-load paths (histogram
 * samples): the stats-detail flag of the context bound to this thread
 * (common/binding.hh), one thread-local load when off. Enable via
 * CSD_STATS_DETAIL=1 or setStatsDetail(). Counters and formulas are
 * always live — only call sites hot enough to show up in wall time
 * hide behind this.
 */
inline bool
statsDetailEnabled()
{
    return binding_detail::binding.statsDetail;
}

/** Set the flag of the context bound to this thread. */
void setStatsDetail(bool on);

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++count_; return *this; }
    Counter operator++(int) { Counter old = *this; ++count_; return old; }
    Counter &operator+=(std::uint64_t n) { count_ += n; return *this; }

    std::uint64_t value() const { return count_; }
    void reset() { count_ = 0; }

  private:
    std::uint64_t count_ = 0;
};

/** A double-valued statistic (accumulates or is set directly). */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    void set(double v) { value_ = v; }

    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * A bucketed histogram.
 *
 * Construct with [lo, hi) and a bucket count; samples below lo land in
 * the underflow bucket, samples at or above hi in the overflow bucket.
 * Moments (min/max/mean/stddev) are exact regardless of bucketing. A
 * default-constructed Distribution tracks moments only.
 */
class Distribution
{
  public:
    Distribution() = default;

    Distribution(double lo, double hi, std::size_t num_buckets)
    {
        init(lo, hi, num_buckets);
    }

    /** (Re)configure bucketing; drops all recorded samples. */
    void init(double lo, double hi, std::size_t num_buckets);

    /**
     * Record @p n occurrences of value @p v. Inline and division-free:
     * the simulator samples on per-macro-op and per-load paths.
     */
    void sample(double v, std::uint64_t n = 1)
    {
        if (n == 0)
            return;
        count_ += n;
        const double dn = static_cast<double>(n);
        sum_ += v * dn;
        sumSq_ += v * v * dn;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;

        if (buckets_.empty())
            return;
        if (v < lo_) {
            underflow_ += n;
            return;
        }
        const auto idx =
            static_cast<std::size_t>((v - lo_) * invBucketWidth_);
        if (idx >= buckets_.size())
            overflow_ += n;
        else
            buckets_[idx] += n;
    }

    std::uint64_t count() const { return count_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }
    double mean() const;
    double stddev() const;

    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return buckets_[i]; }
    double bucketLo(std::size_t i) const { return lo_ + i * bucketWidth_; }
    double bucketHi(std::size_t i) const
    {
        return lo_ + (i + 1) * bucketWidth_;
    }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    void reset();

  private:
    double lo_ = 0.0;
    double bucketWidth_ = 0.0;
    double invBucketWidth_ = 0.0;
    std::vector<std::uint64_t> buckets_;

    std::uint64_t count_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * A derived statistic: a callable evaluated at read/dump time.
 * Components build formulas over their counters, e.g.
 *   ipc_ = Formula([this] { return instrs_.value() / double(cycles_); });
 */
class Formula
{
  public:
    Formula() = default;
    explicit Formula(std::function<double()> fn) : fn_(std::move(fn)) {}

    Formula &operator=(std::function<double()> fn)
    {
        fn_ = std::move(fn);
        return *this;
    }

    /** Current value; non-finite results read as 0 (e.g. 0/0 ratios). */
    double value() const
    {
        if (!fn_)
            return 0.0;
        const double v = fn_();
        return std::isfinite(v) ? v : 0.0;
    }

  private:
    std::function<double()> fn_;
};

/** Escape a string for embedding in a JSON document (no quotes added). */
std::string jsonEscape(const std::string &s);

/**
 * A named collection of statistics.
 *
 * Statistics are registered by pointer so the owning component keeps
 * fast, direct access while the group provides lookup and dumping.
 * Names must be unique within a group across all statistic kinds;
 * duplicate registration is an internal bug and panics.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a counter under @p stat_name. */
    void addCounter(const std::string &stat_name, Counter *counter,
                    const std::string &desc);

    /** Register a double-valued scalar. */
    void addScalar(const std::string &stat_name, Scalar *scalar,
                   const std::string &desc);

    /** Register a distribution. */
    void addDistribution(const std::string &stat_name, Distribution *dist,
                         const std::string &desc);

    /** Register a derived formula. */
    void addFormula(const std::string &stat_name, Formula *formula,
                    const std::string &desc);

    /** Register a child group whose stats dump under this one. */
    void addChild(StatGroup *child);

    /** Look up a counter's current value; fatal if absent. */
    std::uint64_t counterValue(const std::string &stat_name) const;

    /** Look up a scalar's current value; fatal if absent. */
    double scalarValue(const std::string &stat_name) const;

    /** Look up a formula's current value; fatal if absent. */
    double formulaValue(const std::string &stat_name) const;

    /** Look up a registered distribution; fatal if absent. */
    const Distribution &distribution(const std::string &stat_name) const;

    /** True iff a counter named @p stat_name is registered. */
    bool hasCounter(const std::string &stat_name) const;

    /** True iff any statistic named @p stat_name is registered. */
    bool hasStat(const std::string &stat_name) const;

    /**
     * Resolve a dotted path ("mem.l1d.misses", "ipc") through child
     * groups to a numeric value (counter, scalar, or formula). Fatal
     * with the set of valid names if the path does not resolve.
     */
    double valueOf(const std::string &path) const;

    /** Non-fatal valueOf: false if the path does not resolve. */
    bool tryValueOf(const std::string &path, double &out) const;

    /** Reset all registered counters/scalars/distributions (+children). */
    void resetAll();

    /** Write "group.stat value # desc" lines for this group and children. */
    void dump(std::ostream &os) const;

    /**
     * Write this group and its children as one hierarchical JSON
     * object: {"name":..., "counters":{...}, "scalars":{...},
     * "formulas":{...}, "distributions":{...}, "groups":[...]}.
     */
    void dumpJson(std::ostream &os, int indent = 0) const;

    /**
     * Writer for extra JSON members injected into the root object of a
     * dump (e.g. the run-provenance manifest). Called with the output
     * stream and the member indentation prefix; must emit one or more
     * complete `"key": value` members (comma-separated, no trailing
     * comma — the dumper appends it).
     */
    using ExtraWriter =
        std::function<void(std::ostream &, const std::string &)>;

    /** As dumpJson() but with @p extra members leading the root object. */
    void dumpJson(std::ostream &os, int indent,
                  const ExtraWriter &extra) const;

    const std::string &name() const { return name_; }

    /** Names of all registered counters (this group only). */
    std::vector<std::string> counterNames() const;
    std::vector<std::string> scalarNames() const;
    std::vector<std::string> distributionNames() const;
    std::vector<std::string> formulaNames() const;

    const std::vector<StatGroup *> &children() const { return children_; }

  private:
    struct CounterEntry
    {
        Counter *counter;
        std::string desc;
    };
    struct ScalarEntry
    {
        Scalar *scalar;
        std::string desc;
    };
    struct DistEntry
    {
        Distribution *dist;
        std::string desc;
    };
    struct FormulaEntry
    {
        Formula *formula;
        std::string desc;
    };

    /** Panic if @p stat_name is already taken by any statistic kind. */
    void checkNewName(const std::string &stat_name) const;

    /** All registered statistic names, for error messages. */
    std::string registeredNames() const;

    std::string name_;
    std::map<std::string, CounterEntry> entries_;
    std::map<std::string, ScalarEntry> scalars_;
    std::map<std::string, DistEntry> dists_;
    std::map<std::string, FormulaEntry> formulas_;
    std::vector<StatGroup *> children_;
};

} // namespace csd

#endif // CSD_COMMON_STATS_HH
