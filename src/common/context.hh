/**
 * @file
 * Per-simulation observability contexts.
 *
 * An ObservabilityContext owns every piece of observability state: the
 * event tracer (common/trace.hh), the stats-detail gate, the log sink,
 * the host self-profiler, and the arming of the CPI stack, the
 * lifecycle tracer and the channel monitor. Each Simulation (and each
 * Duo) holds exactly one context, so N simulations in one process —
 * e.g. the parallel bench runner's workers — record independent traces
 * and stats with no shared rings, no serial-context asserts, and no
 * "tracing forces --jobs 1" clamps.
 *
 * Binding: a context attaches to the *thread* running its simulation
 * (bindToThread(), the one writer of common/binding.hh); the CSD_TRACE
 * fast path, statsDetailEnabled(), and warn()/inform() then route
 * through the bound context. Simulation::run() re-binds lazily, once
 * per call, so moving a simulation between worker threads between
 * calls is safe as long as it runs on one thread at a time.
 *
 * Configuration: a root context is configured from a knob table
 * (common/env.hh); the process-default context is the root built from
 * Knobs::process(), i.e. from the CSD_* environment. Every other
 * context copies its settings from the context bound to the
 * constructing thread (the process-default context if none), so
 * environment-driven workflows reach every simulation a process
 * creates, each recording into private buffers.
 *
 * Flush-on-exit: live contexts, the process-default one included, sit
 * in a registry flushed from std::atexit and from SIGINT/SIGTERM, so
 * an interrupted run still writes loadable (truncated) Chrome-trace
 * and Kanata/O3PipeView files. CSD_TRACE_FILE may contain "%c",
 * replaced by the context id, to give each simulation its own trace
 * file; a bare path is written by every exporting context in turn
 * (last writer wins), matching the historical single-simulation
 * behavior.
 */

#ifndef CSD_COMMON_CONTEXT_HH
#define CSD_COMMON_CONTEXT_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/binding.hh"
#include "common/env.hh"
#include "common/host_profiler.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace csd
{

/**
 * Expand every "%c" in @p path to @p context_id. The shared helper
 * behind all per-context export paths (Chrome trace, lifecycle ring,
 * channel-monitor heatmaps) — any new export knob must route through
 * this, not its own single-occurrence find/replace.
 */
std::string expandContextPath(std::string path, unsigned context_id);

/** Per-simulation owner of tracing, stats, logging, profiling state. */
class ObservabilityContext
{
  public:
    /**
     * Lifecycle-tracer (cpu/lifecycle.hh) arming: detailed simulations
     * record and export at teardown iff exportPath is set.
     */
    struct LifecycleConfig
    {
        std::size_t capacity = 1u << 16;
        std::string exportPath;  //!< "%c"-expandable; empty = disarmed
    };

    /**
     * Channel-monitor (memory/set_monitor.hh) arming: simulations arm
     * a monitor and export its heatmaps iff exportPath is set.
     */
    struct ChannelMonitorConfig
    {
        std::uint64_t heatmapInterval = 4096;
        std::string exportPath;  //!< "%c"-expandable base; empty = disarmed
    };

    /**
     * A root context, named "process", configured from @p knobs. Root
     * contexts log without a label prefix.
     */
    explicit ObservabilityContext(const Knobs &knobs);

    /**
     * A context copying its configuration from current(), the context
     * bound to the constructing thread. A non-empty @p name labels its
     * log output.
     */
    explicit ObservabilityContext(std::string name = {});

    /**
     * Unbinds (rebinding the process-default context if bound on the
     * destroying thread), exports armed trace files, folds the host
     * profile into the process-default context, and leaves the flush
     * registry. Destroy on the thread that last ran the owning
     * simulation, or after worker threads have finished with it.
     */
    ~ObservabilityContext();

    ObservabilityContext(const ObservabilityContext &) = delete;
    ObservabilityContext &operator=(const ObservabilityContext &) = delete;

    // --- process-wide access ----------------------------------------------

    /**
     * The process-default context: the root built from Knobs::process()
     * on first use, never destroyed.
     */
    static ObservabilityContext &process();

    /** The context bound to the calling thread, or null. */
    static ObservabilityContext *currentOrNull()
    {
        return binding_detail::binding.context;
    }

    /** The bound context, binding process() first if none is bound. */
    static ObservabilityContext &current();

    // --- binding ----------------------------------------------------------

    /** Route this thread's trace/stats/log fast paths through here. */
    void bindToThread();

    bool boundToThisThread() const { return currentOrNull() == this; }

    // --- identity ---------------------------------------------------------

    /** Process-unique id (0 = the process-default context). */
    unsigned id() const { return id_; }

    const std::string &name() const { return name_; }

    // --- owned observability state ----------------------------------------

    TraceManager &tracer() { return tracer_; }
    const TraceManager &tracer() const { return tracer_; }

    bool statsDetail() const { return statsDetail_; }
    void setStatsDetail(bool on);

    logging_detail::LogSink &logSink() { return sink_; }

    /**
     * Host phase attribution. Destroying a context folds its phase
     * seconds into the process-default context's profiler, so the
     * process profile sums per-thread time: under --jobs N its phases
     * can exceed its total.
     */
    HostProfiler &profiler() { return profiler_; }
    const HostProfiler &profiler() const { return profiler_; }

    /** Whether detailed simulations on this context arm a CPI stack. */
    bool cpiStack() const { return cpiStack_; }

    const LifecycleConfig &lifecycleConfig() const { return lifecycle_; }
    void setLifecycleConfig(LifecycleConfig config)
    {
        lifecycle_ = std::move(config);
    }

    const ChannelMonitorConfig &channelMonitorConfig() const
    {
        return channelMonitor_;
    }
    void setChannelMonitorConfig(ChannelMonitorConfig config)
    {
        channelMonitor_ = std::move(config);
    }

    // --- trace export / flushing ------------------------------------------

    /**
     * Arm a Chrome-trace export at destruction/flush ("%c" in the path
     * expands to the context id); CSD_TRACE_FILE for the process
     * context, inherited like every other setting.
     */
    void setTraceExportPath(std::string path)
    {
        traceExportPath_ = std::move(path);
    }

    const std::string &traceExportPath() const { return traceExportPath_; }

    /** traceExportPath() with "%c" expanded to this context's id. */
    std::string resolvedTraceExportPath() const;

    /**
     * Register a callback run by flushNow() (owner teardown, atexit,
     * SIGINT/SIGTERM). Simulations register their lifecycle and
     * heatmap exports here so an interrupted run still writes a
     * loadable file. Returns a token for removeFlushHook(); remove
     * before the state the hook touches dies.
     */
    std::uint64_t addFlushHook(std::function<void()> hook);

    /** Unregister the hook @p token and return it (empty if unknown). */
    std::function<void()> removeFlushHook(std::uint64_t token);

    /**
     * Write everything armed on this context now: the Chrome trace (if
     * an export path is set and events were recorded) and all
     * registered flush hooks. Idempotent; file writes serialize on a
     * process-wide mutex.
     */
    void flushNow();

    /**
     * Flush every live context (the atexit/signal path). @p
     * from_signal uses try-locks and skips contexts it cannot safely
     * reach instead of deadlocking on a lock the interrupted thread
     * holds.
     */
    static void flushAllContexts(bool from_signal = false);

    /**
     * The process-wide mutex serializing observability file exports.
     * Hold it when writing a trace/lifecycle file outside flushNow()
     * (e.g. Simulation's teardown export) so parallel simulations
     * sharing an output path do not interleave writes.
     */
    static std::mutex &exportLock();

  private:
    /** Take a fresh id, name the context, join the flush registry. */
    void registerSelf(std::string name);

    /** Export the trace and run the hooks; the caller holds exportLock. */
    void writeArmed();

    unsigned id_ = 0;
    std::string name_;

    TraceManager tracer_;
    bool statsDetail_ = false;
    logging_detail::LogSink sink_;
    HostProfiler profiler_;
    bool cpiStack_ = false;
    LifecycleConfig lifecycle_;
    ChannelMonitorConfig channelMonitor_;

    std::string traceExportPath_;

    std::vector<std::pair<std::uint64_t, std::function<void()>>> hooks_;
    std::uint64_t nextHookToken_ = 1;
};

} // namespace csd

#endif // CSD_COMMON_CONTEXT_HH
