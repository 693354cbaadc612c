/**
 * @file
 * Host-side counters of the retire routine's chain: the runs of
 * resident flow-cache entries Simulation::retireRun (sim/retire.cc)
 * retires in one call.
 *
 * After a macro retires, the routine takes the next macro's resident
 * entry (decode/flow_cache.hh) and keeps going: the next macro first
 * passes its per-macro protocol, then the guards — epoch, stability,
 * stable context — and the cached-translation replay, exactly as a
 * flow-cache hit does when the driver loop looks it up. The walk stops
 * at a macro without a resident entry for its live context (the loop
 * then translates it, its protocol already run), at a Halt, or when
 * the budget is spent. A fall-through successor is reached through
 * SbMacro::next, a link set the first time the walk falls through;
 * a taken branch or a link miss fetches through Program::at and
 * probes the cache without counting.
 *
 * The names below predate the chain (they were the counters of a
 * superblock tier the chain replaced) and are kept because the
 * repository benchmark reads them by these names; their meaning is
 * the chain's:
 *
 *  - built: fall-through links set between entries;
 *  - entries: chain walks started, one per retireRun call while
 *    chaining is on (the flow cache on, and the native translator or
 *    the setCsd() CSD installed);
 *  - invalidated: links whose target failed its epoch or context
 *    check, so the walk probed instead;
 *  - macrosRetired / uopsRetired: macros, and their dynamic uops,
 *    retired by chaining rather than by the driver loop's lookup;
 *  - exits: why each walk stopped, one count per walk (SbExit).
 *
 * All counters are host-side plain integers outside the stat tree,
 * like the flow cache's, so they never perturb simulated output.
 */

#ifndef CSD_SIM_FASTPATH_HH
#define CSD_SIM_FASTPATH_HH

#include <cstdint>

namespace csd
{

/** Why a chain walk stopped. */
enum class SbExit : std::uint8_t
{
    End,        //!< reached by fall-through: no resident entry, or a Halt
    Branch,     //!< reached by a taken branch: no resident entry
    EpochBump,  //!< the next macro's entry is from an older epoch
    Unstable,   //!< the next macro must be translated now (bypass)
    Budget,     //!< run()/maxInstructions budget exhausted
    NumExits,
};

constexpr unsigned numSbExits = static_cast<unsigned>(SbExit::NumExits);

/**
 * Printable stop-reason name. These strings are load-bearing: the
 * throughput bench emits one sidecar counter per reason under the key
 * "chain.exit_<name>" (bench_sim_throughput.cc), and the repository
 * benchmark under "sb.exit.<name>". The switch is exhaustive with no
 * default, so a new enumerator without a name breaks the build.
 */
constexpr const char *
sbExitName(SbExit exit)
{
    switch (exit) {
      case SbExit::End:       return "end";
      case SbExit::Branch:    return "branch";
      case SbExit::EpochBump: return "epoch_bump";
      case SbExit::Unstable:  return "unstable";
      case SbExit::Budget:    return "budget";
      case SbExit::NumExits:  break;
    }
    return "?";
}

/** The chain's host-side counters (one per simulation). */
class FastPath
{
  public:
    /** Host-side accounting (never part of the simulated stat tree). */
    struct Counters
    {
        std::uint64_t built = 0;          //!< fall-through links set
        std::uint64_t entries = 0;        //!< chain walks started
        std::uint64_t invalidated = 0;    //!< links that failed a check
        std::uint64_t macrosRetired = 0;  //!< macros retired by chaining
        std::uint64_t uopsRetired = 0;    //!< their dynamic uops
        std::uint64_t exits[numSbExits] = {};  //!< walks by SbExit
    };

    const Counters &counters() const { return counters_; }

  private:
    friend class Simulation;
    Counters counters_;
};

} // namespace csd

#endif // CSD_SIM_FASTPATH_HH
