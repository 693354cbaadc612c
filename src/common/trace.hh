/**
 * @file
 * Event tracing (gem5-DPRINTF-style flags, Chrome trace-event export).
 *
 * Components guard trace points with a named flag; a disabled flag
 * costs one mask test and branch. Enabled flags record timestamped
 * events into a bounded ring buffer that exports as Chrome
 * trace-event JSON, loadable in chrome://tracing or Perfetto: micro-op
 * cache hits vs legacy decode, decoy injections, and VPU gate/ungate
 * transitions appear on a cycle timeline, one track per flag.
 *
 * Runtime control (parsed once, through the knob table in
 * common/env.hh):
 *  - CSD_TRACE=UopCache,Gating   enable flags at startup (CSV of names;
 *                                an unknown name is fatal)
 *  - CSD_TRACE_FILE=out.json     write the Chrome trace at exit; a "%c"
 *                                in the path expands to the owning
 *                                observability-context id so parallel
 *                                simulations write distinct files
 *  - CSD_TRACE_CAPACITY=N        ring-buffer size (default 65536 events)
 *
 * Each ObservabilityContext (common/context.hh) owns one TraceManager,
 * and binding a context to a thread points the thread's CSD_TRACE fast
 * path (common/binding.hh) at that context's tracer. Trace points
 * therefore record into whichever simulation is executing on the
 * current thread, which is what lets N simulations trace concurrently
 * without sharing a ring. A single tracer must not be driven from two
 * threads at once; distinct tracers on distinct threads are
 * independent.
 */

#ifndef CSD_COMMON_TRACE_HH
#define CSD_COMMON_TRACE_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/binding.hh"
#include "common/types.hh"

namespace csd
{

/** Named trace flags, one timeline track each. */
enum class TraceFlag : unsigned
{
    Frontend,  //!< delivery-source switches, fetch stalls
    UopCache,  //!< window probes, fills, context flushes
    Csd,       //!< context switches, stealth triggers, watchdog fires
    Decoy,     //!< decoy micro-op injections
    Gating,    //!< VPU gate/wake transitions, demand wakes
    Cache,     //!< DRAM accesses, clflushes
    Dift,      //!< tainted loads/branches detected at decode
    NumFlags,
};

/** Fast-path check compiled into every trace point. */
inline bool
traceEnabled(TraceFlag flag)
{
    return binding_detail::binding.traceMask &
           (1u << static_cast<unsigned>(flag));
}

/** True iff any flag is enabled on the tracer bound to this thread. */
inline bool
traceAnyEnabled()
{
    return binding_detail::binding.traceMask != 0;
}

/** One recorded event. Names must be string literals (not copied). */
struct TraceEvent
{
    Tick tick = 0;
    TraceFlag flag = TraceFlag::Frontend;
    const char *name = nullptr;
    char phase = 'i';  //!< Chrome phase: 'i' instant, 'B' begin, 'E' end
    const char *argName = nullptr;
    double arg = 0.0;
};

/**
 * The trace-flag mask named by @p csv ("UopCache, Gating"): names are
 * case-insensitive and whitespace-trimmed, "all" names every flag.
 * Fatal (throws) on an unknown name; the error names @p setting, the
 * flag, and the known flags.
 */
std::uint32_t parseTraceFlags(std::string_view setting, std::string_view csv);

/** A bounded-ring event tracer, owned by an ObservabilityContext. */
class TraceManager
{
  public:
    /** Default ring capacity (events) when none is configured. */
    static constexpr std::size_t defaultCapacity = 1u << 16;

    /**
     * A tracer with all flags disabled. The ring is allocated lazily on
     * the first record(), so idle tracers (one per simulation) cost a
     * few words, not capacity * sizeof(TraceEvent).
     */
    explicit TraceManager(std::size_t capacity = defaultCapacity);

    TraceManager(const TraceManager &) = delete;
    TraceManager &operator=(const TraceManager &) = delete;

    // --- configuration ----------------------------------------------------

    /**
     * Enable the flags named in a comma-separated list, parsed as
     * parseTraceFlags() does (an unknown name is fatal). Returns the
     * number of flags named.
     */
    unsigned configure(const std::string &csv);

    void enable(TraceFlag flag);
    void disable(TraceFlag flag);
    void disableAll();
    bool enabled(TraceFlag flag) const
    {
        return mask_ & (1u << static_cast<unsigned>(flag));
    }

    /** Bitmask of enabled flags (bit i = TraceFlag(i)). */
    std::uint32_t mask() const { return mask_; }

    /** Replace the whole flag mask (used for context inheritance). */
    void setMask(std::uint32_t mask);

    /** Resize the ring buffer (drops recorded events). */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return capacity_; }

    // --- recording --------------------------------------------------------

    /** Record an event at @p tick. Call only when enabled(flag). */
    void record(TraceFlag flag, const char *name, Tick tick,
                char phase = 'i', const char *arg_name = nullptr,
                double arg = 0.0);

    /** Record at the current time hint (components without a clock). */
    void recordNow(TraceFlag flag, const char *name, char phase = 'i',
                   const char *arg_name = nullptr, double arg = 0.0)
    {
        record(flag, name, timeHint_, phase, arg_name, arg);
    }

    /** Cycle stamp used by recordNow(); the simulator updates it. */
    void setTimeHint(Tick tick) { timeHint_ = tick; }
    Tick timeHint() const { return timeHint_; }

    // --- inspection / export ----------------------------------------------

    /** Number of events currently held (≤ capacity). */
    std::size_t size() const { return count_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Drop all recorded events. */
    void clear();

    /** Events in record order (oldest first). */
    std::vector<TraceEvent> events() const;

    /**
     * Write the recorded events as Chrome trace-event JSON
     * ({"traceEvents": [...]}); cycles map to microseconds so one
     * trace unit renders as one cycle.
     */
    void exportChromeTrace(std::ostream &os) const;

    /** exportChromeTrace to a file; warns and returns false on error. */
    bool exportChromeTrace(const std::string &path) const;

    // --- flag names -------------------------------------------------------

    static const char *flagName(TraceFlag flag);
    static std::optional<TraceFlag> parseFlag(const std::string &name);

  private:
    /** Push mask_ into the thread-local cache iff bound to this thread. */
    void syncThreadMask();

    std::uint32_t mask_ = 0;
    std::size_t capacity_;
    std::vector<TraceEvent> ring_;  //!< empty until the first record()
    std::size_t start_ = 0;         //!< index of the oldest event
    std::size_t count_ = 0;
    std::uint64_t dropped_ = 0;
    Tick timeHint_ = 0;
};

/**
 * Record a trace event iff @p flag is enabled on this thread's tracer.
 * Usage: CSD_TRACE(UopCache, "window_hit", cycle);
 *        CSD_TRACE(Decoy, "inject", cycle, 'i', "uops", n);
 */
#define CSD_TRACE(flag, ...)                                                 \
    do {                                                                     \
        if (::csd::traceEnabled(::csd::TraceFlag::flag))                     \
            ::csd::binding_detail::binding.tracer->record(                   \
                ::csd::TraceFlag::flag, __VA_ARGS__);                        \
    } while (0)

/** CSD_TRACE for call sites without a clock (uses the time hint). */
#define CSD_TRACE_NOW(flag, ...)                                             \
    do {                                                                     \
        if (::csd::traceEnabled(::csd::TraceFlag::flag))                     \
            ::csd::binding_detail::binding.tracer->recordNow(                \
                ::csd::TraceFlag::flag, __VA_ARGS__);                        \
    } while (0)

} // namespace csd

#endif // CSD_COMMON_TRACE_HH
