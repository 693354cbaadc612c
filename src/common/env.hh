/**
 * @file
 * The CSD_* knob table and the strict setting parsers behind it.
 *
 * Every CSD_* environment knob is one row of CSD_KNOB_TABLE, parsed
 * once per process by Knobs::process(); readers take effective values
 * from there, never from the environment. A malformed value of any
 * knob, and any CSD_* name that is not a row, is fatal (csd_fatal
 * throws std::runtime_error) and names the variable, so a typo'd
 * CSD_SUPERBLOCK=ture or CSD_SUPERBLOK=0 fails loudly instead of
 * producing a run that looks configured but isn't.
 */

#ifndef CSD_COMMON_ENV_HH
#define CSD_COMMON_ENV_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace csd
{

/**
 * Parse @p value as a strictly positive integer. @p name labels the
 * setting in the error ("CSD_TRACE_CAPACITY='x' is not a positive
 * integer"). Fatal (throws) on empty, trailing junk, zero, negative,
 * or overflow.
 */
std::size_t parsePositiveSetting(std::string_view name, const char *value);

/**
 * Parse @p value as a non-negative integer (settings where 0 means
 * "auto", e.g. jobs counts). Fatal (throws) on malformed input.
 */
unsigned parseNonNegativeSetting(std::string_view name, const char *value);

/**
 * Parse @p value as a boolean toggle: exactly "0" or "1". Fatal
 * (throws) on anything else ("true", "yes", "01", trailing junk).
 */
bool parseBoolSetting(std::string_view name, const char *value);

/**
 * The knob table: X(id, name, type, default, class, doc), one row per
 * knob. The default is spelled as it would be in the environment.
 */
#define CSD_KNOB_TABLE(X)                                                    \
    X(FlowCache, "CSD_FLOW_CACHE", Bool, "1", HostOnly,                      \
      "memoize stable translations per static instruction and retire runs "  \
      "of them in one call")                                                 \
    X(StatsDetail, "CSD_STATS_DETAIL", Bool, "0", OutputShaping,             \
      "record the hot-path histograms (flow lengths, read latencies)")       \
    X(CpiStack, "CSD_CPI_STACK", Bool, "0", OutputShaping,                   \
      "arm the CPI stack in every detailed simulation")                      \
    X(HostProfile, "CSD_HOST_PROFILE", Bool, "0", HostOnly,                  \
      "attribute host wall time to phases in manifests")                     \
    X(Trace, "CSD_TRACE", TraceFlags, "", HostOnly,                          \
      "enable event-trace flags (CSV of flag names, or all)")                \
    X(TraceFile, "CSD_TRACE_FILE", Text, "", HostOnly,                       \
      "write each context's Chrome trace here (%c = context id)")            \
    X(TraceCapacity, "CSD_TRACE_CAPACITY", Count, "65536", HostOnly,         \
      "event ring size per context; oldest events drop first")               \
    X(LifecycleFile, "CSD_LIFECYCLE_FILE", Text, "", HostOnly,               \
      "record per-uop lifecycles in every detailed simulation and export "   \
      "them here (%c = context id)")                                         \
    X(LifecycleCapacity, "CSD_LIFECYCLE_CAPACITY", Count, "65536", HostOnly, \
      "lifecycle ring size")                                                 \
    X(ChannelMonitorInterval, "CSD_CHANNEL_MONITOR_INTERVAL", Count, "4096", \
      HostOnly, "channel heatmap interval in cycles")                        \
    X(ChannelHeatmap, "CSD_CHANNEL_HEATMAP", Text, "", HostOnly,             \
      "arm the per-set channel monitor in every simulation and export its "  \
      "heatmaps here (%c = context id)")                                     \
    X(ChannelHeatmapDir, "CSD_CHANNEL_HEATMAP_DIR", Text, "", HostOnly,      \
      "directory for the Fig. 7a/7b attack heatmaps")

/** Every CSD_* knob; indexes the table and Knobs. */
enum class Knob : unsigned
{
#define CSD_KNOB_ID(id, ...) id,
    CSD_KNOB_TABLE(CSD_KNOB_ID)
#undef CSD_KNOB_ID
    NumKnobs,
};

inline constexpr std::size_t numKnobs =
    static_cast<std::size_t>(Knob::NumKnobs);

/** How a knob's value is spelled and parsed. */
enum class KnobType
{
    Bool,        //!< exactly "0" or "1"
    Count,       //!< a strictly positive integer
    Text,        //!< free text (a path); empty = unset
    TraceFlags,  //!< CSV of trace flag names, or "all"
};

/** Whether a knob's effective value is part of a run's config hash. */
enum class KnobClass
{
    OutputShaping,  //!< changes stats dumps / sidecars; hashed
    HostOnly,       //!< changes speed or side files only; not hashed
};

/** One table entry. */
struct KnobSpec
{
    Knob knob;
    const char *name;
    KnobType type;
    const char *defaultValue;
    KnobClass cls;
    const char *doc;
};

/** The knob table as data, in Knob order. */
inline constexpr std::array<KnobSpec, numKnobs> knobTable = {{
#define CSD_KNOB_SPEC(id, name, type, value, cls, doc)                       \
    {Knob::id, name, KnobType::type, value, KnobClass::cls, doc},
    CSD_KNOB_TABLE(CSD_KNOB_SPEC)
#undef CSD_KNOB_SPEC
}};

/** Looks a knob up by name; null = unset. */
using KnobLookup = std::function<const char *(const char *name)>;

/** The effective value of every knob, parsed strictly from a lookup. */
class Knobs
{
  public:
    /**
     * Parse every table entry through @p lookup (its default when
     * unset). Fatal (throws) on the first malformed value, naming the
     * knob.
     */
    explicit Knobs(const KnobLookup &lookup);

    /**
     * Parse a null-terminated "NAME=VALUE" block (the shape of
     * `environ`). Fatal (throws) on a CSD_-prefixed name that is not a
     * table row, naming the variable, then as the lookup form.
     */
    explicit Knobs(const char *const *environment);

    /** The process environment's knobs, parsed on first use. */
    static const Knobs &process();

    /** A Bool knob's value. */
    bool flag(Knob knob) const { return number(knob) != 0; }

    /** A Count knob's value, or a TraceFlags knob's mask. */
    std::uint64_t number(Knob knob) const
    {
        return numbers_[static_cast<std::size_t>(knob)];
    }

    /** A Text knob's value (empty when unset). */
    const std::string &text(Knob knob) const
    {
        return texts_[static_cast<std::size_t>(knob)];
    }

    /**
     * The effective value as one string ("0"/"1", a decimal, the text):
     * what a config hash covers, so an unset knob and its default
     * spelled out render the same.
     */
    std::string rendered(Knob knob) const;

  private:
    std::array<std::uint64_t, numKnobs> numbers_{};
    std::array<std::string, numKnobs> texts_;
};

} // namespace csd

#endif // CSD_COMMON_ENV_HH
