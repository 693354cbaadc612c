/**
 * @file
 * Superblock tier: the block store that lets the driver loop
 * (Simulation::run, sim/retire.cc) retire whole compiled regions per
 * call instead of one translated macro-op at a time.
 *
 * Translating a macro pays per dynamic instance for work that is
 * invariant across the billions of instances a simulation executes:
 * a flow-cache probe (or a translation) and a region-head consult per
 * macro, and one retire call each. This tier detects hot region heads
 * via execution counters hung off the flow-cache slots and compiles
 * straight-line runs of cached entries into superblocks
 * (decode/superblock.hh) once, so a run of macros costs one call.
 * Their macros, the flow cache's own resolved entries, retire through
 * the same routine as translated ones (Simulation::retireRun): the
 * same per-macro protocol, handlers, timing consumers, DIFT and commit
 * bookkeeping, plus the guards (epoch, stability, context) and the
 * cached-translation replay. What
 * lives here is the block cache, the head consult that compiles hot
 * heads (enter), the cursor that names the next compiled macro, and
 * the counters and cursor placement at each exit (leave).
 *
 * Exit protocol: a superblock is entered only while the translator
 * epoch it was built under is current, and a run leaves it on the
 * first taken branch, epoch bump (MSR write, MCU toggle), stability
 * loss (a tainted op after a watchdog retrigger) or context change (a
 * devectorization toggle moved a vector op's stable context), or
 * budget exhaustion — with all architectural and accounting state
 * exactly as retiring the prefix macro by macro would have left it. A
 * vetoed macro is retired from its own translation in the same loop
 * iteration; after an Unstable exit the cursor then points at the
 * next macro of the block, after a Budget exit at the macro the slice
 * stopped before. Tier on or off, stats dumps, sidecars and trace
 * exports are bit-identical (tests/sim/test_superblock.cc).
 *
 * All counters here are host-side plain integers outside the stat
 * tree, like the flow cache's, so they never perturb simulated output.
 */

#ifndef CSD_SIM_FASTPATH_HH
#define CSD_SIM_FASTPATH_HH

#include <cstdint>

#include "decode/superblock.hh"

namespace csd
{

class Simulation;

/**
 * Exit-protocol metadata: what the driver loop guarantees when a run
 * leaves a superblock for a given reason. This is declarative, not
 * derived — it states the contract Simulation::retireRun and
 * FastPath::leave implement and any future execution tier must
 * implement too. The static tier-equivalence prover
 * (verify/tier_equiv.hh) consumes it through SuperblockView and
 * rejects any exit reason that can fire mid-block without flushing a
 * clean whole-macro prefix in interpreter order (tier.partial-flush),
 * and any re-entry point that is not a legal macro boundary under
 * current translation state.
 */
struct SbExitMeta
{
    /** May fire with macros of the block still unexecuted. */
    bool midBlock = false;
    /**
     * On exit, a whole-macro prefix of the block has retired with all
     * architectural state and accounting deltas exactly as the
     * interpreter would have left them (no partially applied macro).
     */
    bool flushesPrefix = false;
    /** The run ends without chaining: the budget is spent, or the
     *  stopping macro is retired from its own translation. */
    bool resumesInterpreter = false;
    /**
     * The tier re-enters the same block after the interpreter retired
     * interpreterMacros of it: at macro k + interpreterMacros, where
     * macro k is the one the exit fired at. Only legal where the
     * block's translations are still current (not after an epoch
     * bump), and the re-entered macro re-runs the full guard sequence.
     */
    bool reentersBlock = false;
    std::uint8_t interpreterMacros = 0;
};

/** The contract table, exhaustive over SbExit (compile-break on new
 *  enumerators via the static_assert in sbExitName's definition). */
constexpr SbExitMeta
sbExitMeta(SbExit exit)
{
    switch (exit) {
      case SbExit::End:
        return {/*midBlock=*/false, /*flushesPrefix=*/true,
                /*resumesInterpreter=*/false, /*reentersBlock=*/false,
                /*interpreterMacros=*/0};
      case SbExit::Branch:
        return {/*midBlock=*/true, /*flushesPrefix=*/true,
                /*resumesInterpreter=*/false, /*reentersBlock=*/false,
                /*interpreterMacros=*/0};
      case SbExit::EpochBump:
        return {/*midBlock=*/true, /*flushesPrefix=*/true,
                /*resumesInterpreter=*/true, /*reentersBlock=*/false,
                /*interpreterMacros=*/0};
      case SbExit::Unstable:
        // The interpreter translates and retires the vetoed macro.
        return {/*midBlock=*/true, /*flushesPrefix=*/true,
                /*resumesInterpreter=*/true, /*reentersBlock=*/true,
                /*interpreterMacros=*/1};
      case SbExit::Budget:
        // Nothing left to retire in this call; the next run() resumes.
        return {/*midBlock=*/true, /*flushesPrefix=*/true,
                /*resumesInterpreter=*/true, /*reentersBlock=*/true,
                /*interpreterMacros=*/0};
      case SbExit::NumExits:
        break;
    }
    return {};
}

/**
 * The superblock tier's block store (one per simulation): the block
 * cache, the region-head consult that compiles hot heads, the cursor
 * that names the next compiled macro to retire, and the host-side
 * counters. Simulation::run drives it; the blocks' macros retire in
 * Simulation::retireRun.
 */
class FastPath
{
  public:
    /** Host-side accounting (never part of the simulated stat tree). */
    struct Counters
    {
        std::uint64_t built = 0;        //!< superblocks compiled
        std::uint64_t buildAborts = 0;  //!< builds under minMacros
        std::uint64_t invalidated = 0;  //!< blocks dropped (stale epoch)
        std::uint64_t entries = 0;      //!< block executions started
        std::uint64_t resumes = 0;      //!< of which mid-block re-entries
        std::uint64_t macrosRetired = 0;  //!< dynamic macro-ops retired here
        std::uint64_t blockMacros = 0;  //!< static macro-ops compiled
        std::uint64_t blockUops = 0;    //!< uops the compiled macros span
        std::uint64_t uopsRetired = 0;  //!< dynamic uops retired here
        std::uint64_t exits[numSbExits] = {};  //!< by SbExit reason
    };

    /** A compiled macro: @p macro of @p block's list (both null =
     *  none). */
    struct Cursor
    {
        const Superblock *block = nullptr;
        const SbMacro *const *macro = nullptr;
    };

    explicit FastPath(Simulation &sim) : sim_(sim) {}

    /** Size the block cache for a program; drops compiled blocks. */
    void
    reset(std::size_t slots)
    {
        cache_.reset(slots);
        cursor_ = {};
    }

    /**
     * Drop every compiled block. Required whenever the flow cache is
     * cleared: superblocks list its entries' macros, and only the
     * epoch compare keeps a block from being entered — a cleared flow
     * cache under an unchanged epoch would otherwise leave enterable
     * blocks referencing destroyed entries.
     */
    void
    clear()
    {
        cache_.clear();
        cursor_ = {};
    }

    /** Region-entry count at which a head is compiled (>= 1). */
    void setThreshold(std::uint32_t threshold) { threshold_ = threshold; }
    std::uint32_t threshold() const { return threshold_; }

    const Counters &counters() const { return counters_; }
    const SuperblockCache &cache() const { return cache_; }

    /**
     * Where the tier retires @p op from, whose per-macro protocol has
     * just run: the cursor, when it points at @p op (a resume), else —
     * at a region head (@p head) — macro 0 of the block starting at
     * @p op, after dropping a stale block (@p epoch), counting heat and
     * compiling the head once it is hot. No block starts at a Halt or
     * at an op that is not @p stable. An empty cursor leaves @p op to
     * be translated. Clears the cursor either way; counts the entry.
     */
    Cursor enter(const MacroOp &op, bool head, std::uint64_t epoch,
                 bool stable);

    /**
     * Account a run of @p from's block that retired up to (not
     * including) @p stop and left it for @p exit, with @p uops dynamic
     * uops, and place the cursor at the block's sbExitMeta re-entry
     * point: @p stop after a budget exit, the macro after it once a
     * vetoed @p stop has been retired from its own translation.
     */
    void leave(const Cursor &from, const SbMacro *const *stop, SbExit exit,
               std::uint64_t uops);

  private:
    Simulation &sim_;
    SuperblockCache cache_;
    SuperblockLimits limits_;
    std::uint32_t threshold_ = 16;
    Counters counters_;
    Cursor cursor_;
};

} // namespace csd

#endif // CSD_SIM_FASTPATH_HH
