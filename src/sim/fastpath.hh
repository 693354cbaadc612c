/**
 * @file
 * Superblock fast path: the threaded-code execution tier, the one
 * producer of the dynamic uop stream for compiled regions in both
 * fidelities.
 *
 * The interpreter (Simulation::step) pays per macro-op for work that is
 * invariant across the billions of dynamic instances a simulation
 * executes: translator stability checks, flow-cache probes, executor
 * dispatch, and per-uop classification for the timing model. This
 * tier detects hot region heads via execution counters hung off the
 * flow-cache slots, compiles straight-line runs of cached flows into
 * superblocks (decode/superblock.hh), and executes them as flat
 * threaded-code streams — computed-goto dispatch where the compiler
 * supports it, a dense switch otherwise.
 *
 * Two consumers sit behind the producer. In cache-only mode the
 * handlers fuse the memory-hierarchy probe and the slot/energy
 * accounting inline. In detailed mode each macro's uops execute
 * functionally first (recording effective addresses and the branch
 * outcome), then feed the detailed timing consumer (sim/detailed.hh)
 * with the timing records the flow cache resolved next to each cached
 * uop — the same consumer, reading the same records, as the
 * interpreter, so there is one timing model. DIFT taint is
 * propagated inline per retired uop in both.
 *
 * Exit protocol: a superblock is entered only while the translator
 * epoch it was built under is current, and execution leaves it on the
 * first taken branch, epoch bump (MSR write, devect/MCU toggle),
 * stability loss (a tainted op after a watchdog retrigger), or budget
 * exhaustion — with all architectural and accounting state exactly as
 * the interpreter would have left it after the retired prefix. After
 * an Unstable exit the interpreter retires only the vetoed macro and
 * the tier resumes the same block at the next one; after a Budget exit
 * the next run() resumes it where it stopped. Tier on or off, stats
 * dumps and sidecars are bit-identical (tests/sim/test_superblock.cc).
 *
 * All counters here are host-side plain integers outside the stat
 * tree, like the flow cache's, so they never perturb simulated output.
 */

#ifndef CSD_SIM_FASTPATH_HH
#define CSD_SIM_FASTPATH_HH

#include <cstdint>
#include <vector>

#include "cpu/executor.hh"
#include "decode/superblock.hh"

namespace csd
{

class ContextSensitiveDecoder;
class Simulation;

/**
 * Exit-protocol metadata: what the dispatch loop guarantees when it
 * leaves a superblock for a given reason. This is declarative, not
 * derived — it states the contract execBlock() implements and any
 * future execution tier must implement too. The static
 * tier-equivalence prover (verify/tier_equiv.hh) consumes it through
 * SuperblockView and rejects any exit reason that can fire mid-block
 * without flushing a clean whole-macro prefix in interpreter order
 * (tier.partial-flush), and any re-entry point that is not a legal
 * macro boundary under current translation state.
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
    /** The interpreter takes over at state.pc (no block chaining). */
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

/** Superblock build + threaded-code execution engine (one per sim). */
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
        std::uint64_t blockUops = 0;    //!< static uops compiled
        std::uint64_t uopsRetired = 0;  //!< dynamic uops retired here
        std::uint64_t exits[numSbExits] = {};  //!< by SbExit reason
    };

    explicit FastPath(Simulation &sim) : sim_(sim) {}

    /** Size the block cache for a program; drops compiled blocks. */
    void
    reset(std::size_t slots)
    {
        cache_.reset(slots);
        resume_ = {};
    }

    /**
     * Drop every compiled block. Required whenever the flow cache is
     * cleared: superblocks hold pointers into its entries, and only the
     * epoch compare keeps a block from being entered — a cleared flow
     * cache under an unchanged epoch would otherwise leave enterable
     * blocks referencing destroyed flows.
     */
    void
    clear()
    {
        cache_.clear();
        resume_ = {};
    }

    /** Region-entry count at which a head is compiled (>= 1). */
    void setThreshold(std::uint32_t threshold) { threshold_ = threshold; }
    std::uint32_t threshold() const { return threshold_; }

    const Counters &counters() const { return counters_; }
    const SuperblockCache &cache() const { return cache_; }

    /** Did the last exit leave a point the tier can resume at? */
    bool resumePending() const { return resume_.pc != invalidAddr; }

    /**
     * Execute superblocks starting at the current PC until a region
     * exit that the interpreter must handle, or until @p budget
     * instructions committed. Returns the number committed. A pending
     * resume point at the current PC continues its block; otherwise,
     * only at a region head (@p at_head) is a block looked up or
     * compiled. The caller (Simulation::run) guarantees the flow cache
     * is enabled and no power controller or tracing is armed.
     */
    std::uint64_t run(std::uint64_t budget, bool at_head = true);

  private:
    /**
     * Where the tier picks up again once control reaches @p pc (in
     * the interpreter's next step, or the next run() call): macro
     * @p macro of @p block (sbExitMeta re-entry), or — with no block —
     * a region lookup as at a head. The latter covers a vetoed last
     * macro (the block would have chained there) and an unstable op
     * that stopped chaining (the block after it starts there).
     */
    struct Resume
    {
        Addr pc = invalidAddr;
        const Superblock *block = nullptr;
        std::size_t macro = 0;
    };

    // Templated on the concrete translator type: NativeTranslator's
    // protocol hooks fold to nothing and the CSD's inline bodies
    // (csd/csd.hh) are absorbed into the macro loop. Any other
    // Translator runs on the interpreter (Simulation::tierEngaged).
    template <class Tr, bool Taint, bool Detailed>
    std::uint64_t runImpl(Tr &tr, std::uint64_t budget, bool at_head);

    template <class Tr, bool Taint, bool Detailed>
    SbExit execBlock(Tr &tr, const Superblock &block, std::size_t &macro,
                     std::uint64_t budget, std::uint64_t &executed);

    Simulation &sim_;
    SuperblockCache cache_;
    SuperblockLimits limits_;
    std::uint32_t threshold_ = 16;
    Counters counters_;
    Resume resume_;
    std::vector<Addr> effs_;  //!< detailed: one macro's effective addrs

    // Memoized translator-kind resolution (run() is hot; see run()).
    Translator *resolvedFor_ = nullptr;
    ContextSensitiveDecoder *resolvedCsd_ = nullptr;
};

} // namespace csd

#endif // CSD_SIM_FASTPATH_HH
