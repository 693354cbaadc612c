/**
 * @file
 * Host self-profiler: attributes the simulator's *host* wall-clock
 * time (not simulated cycles) to coarse phases — translation,
 * flow-cache service, functional execution, pipeline timing, memory
 * modeling, stat/sampling overhead — so "why is this experiment slow
 * to run?" is answerable from the manifest of any stats dump or bench
 * sidecar without rerunning under perf.
 *
 * Off by default: a disabled profiler costs one branch per
 * instrumented scope and never reads the clock. Enable per
 * observability context with CSD_HOST_PROFILE=1 (inherited by child
 * contexts) or HostProfiler::setEnabled().
 */

#ifndef CSD_COMMON_HOST_PROFILER_HH
#define CSD_COMMON_HOST_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>

namespace csd
{

/** Host wall-clock phases (one accumulator each). */
enum class HostPhase : unsigned
{
    Translate,     //!< decode/translation (uncached flows)
    FlowCache,     //!< predecoded-flow cache probes and fills
    Execute,       //!< functional execution
    Pipeline,      //!< detailed front-end/back-end timing
    Memory,        //!< cache-only memory modeling
    StatOverhead,  //!< interval sampling + stat maintenance
    ChannelMonitor,  //!< per-set channel telemetry exports
    Superblock,    //!< superblock fast path: build + threaded execution
    Other,         //!< instrumented but unclassified
    NumPhases,
};

/** Per-context accumulator of host wall-clock time by phase. */
class HostProfiler
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Starts the "total" clock; phase attribution stays off. */
    HostProfiler() : epoch_(Clock::now()) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Add @p seconds to @p phase (Scope does this automatically). */
    void add(HostPhase phase, double seconds)
    {
        seconds_[static_cast<unsigned>(phase)] += seconds;
    }

    /** Accumulated seconds attributed to @p phase. */
    double seconds(HostPhase phase) const
    {
        return seconds_[static_cast<unsigned>(phase)];
    }

    /** Wall seconds since construction (ticks whether enabled or not). */
    double totalSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

    /**
     * RAII phase attribution. Construction on a disabled profiler is
     * one branch; nesting is allowed but time is attributed to every
     * open scope (keep instrumented scopes disjoint on hot paths).
     */
    class Scope
    {
      public:
        Scope(HostProfiler &profiler, HostPhase phase)
            : profiler_(profiler.enabled_ ? &profiler : nullptr),
              phase_(phase)
        {
            if (profiler_)
                start_ = Clock::now();
        }

        ~Scope()
        {
            if (profiler_) {
                profiler_->add(
                    phase_,
                    std::chrono::duration<double>(Clock::now() - start_)
                        .count());
            }
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostProfiler *profiler_;
        HostPhase phase_;
        Clock::time_point start_;
    };

    /**
     * Emit the manifest "phases" object value ({"total": s, ...}; no
     * surrounding key). Attribution members appear only when the
     * profiler is enabled, so disabled runs stay byte-stable modulo
     * the total.
     */
    void writePhasesJson(std::ostream &os) const;

    static const char *phaseName(HostPhase phase);

  private:
    bool enabled_ = false;
    double seconds_[static_cast<unsigned>(HostPhase::NumPhases)] = {};
    Clock::time_point epoch_;
};

} // namespace csd

#endif // CSD_COMMON_HOST_PROFILER_HH
