/**
 * @file
 * Victim environment bundle: a Simulation wired with (optionally) the
 * full stealth-mode defense stack — MSR file, context-sensitive
 * decoder and DIFT taint tracker, armed from one DefenseConfig
 * (csd/defense.hh).
 */

#ifndef CSD_SEC_VICTIM_HH
#define CSD_SEC_VICTIM_HH

#include <memory>

#include "csd/csd.hh"
#include "csd/defense.hh"
#include "sim/simulation.hh"

namespace csd
{

/** A victim simulation, optionally defended by stealth mode. */
class Victim
{
  public:
    /**
     * Simulate @p prog under @p params. An enabled @p defense adds its
     * DIFT tag-access cost to the L2 latency and arms a context-
     * sensitive decoder with it (ContextSensitiveDecoder::arm).
     */
    Victim(const Program &prog, const DefenseConfig &defense,
           const SimParams &params);

    /** A cache-only victim (the Fig. 7 attack setting). */
    Victim(const Program &prog, const DefenseConfig &defense);

    Simulation &sim() { return *sim_; }
    MemHierarchy &mem() { return sim_->mem(); }

    /**
     * Arm per-set channel telemetry (memory/set_monitor.hh) on the
     * victim's L1I/L1D/uop cache. Idempotent. Once armed, invoke() and
     * invokeSlice() run under MonitorActor::Victim so the monitor's
     * victim counters are exactly this program's accesses — the ground
     * truth an ObservationLedger classifies attacker probes against.
     */
    CacheSetMonitor &armChannelMonitor(const SetMonitorConfig &config = {});

    /** The armed monitor, or null. */
    CacheSetMonitor *channelMonitor() { return sim_->mem().setMonitor(); }

    /** Run one complete invocation of the victim program. */
    void invoke();

    /** Run at most @p n instructions of the current invocation;
     *  restarts the program first if it had halted. Returns true while
     *  the invocation is still in progress. */
    bool invokeSlice(std::uint64_t n);

    bool defended() const { return defense_.enabled; }
    ContextSensitiveDecoder *csd() { return csd_.get(); }

  private:
    DefenseConfig defense_;
    std::unique_ptr<MsrFile> msrs_;
    std::unique_ptr<TaintTracker> taint_;
    std::unique_ptr<ContextSensitiveDecoder> csd_;
    std::unique_ptr<Simulation> sim_;
};

} // namespace csd

#endif // CSD_SEC_VICTIM_HH
