/**
 * @file
 * Superblocks: the straight-line regions the superblock tier
 * (sim/fastpath.hh) compiles from the predecoded-flow cache.
 *
 * A block holds no translation of its own. The flow cache
 * (flow_cache.hh) keeps every cached macro-op resolved — an SbMacro
 * header and its span of SbOps, built once by resolveMacro() at
 * insert() — and a superblock is the list of those headers for a
 * straight-line run of entries valid under the current translator
 * epoch. The retire routine (sim/retire.cc) walks the list, reading
 * each macro's span where the flow cache keeps it, exactly as it
 * retires a single cache hit.
 *
 * Lifetime: a flow-cache entry stays at its address until the cache is
 * cleared, and a stable translation is rewritten only after an epoch
 * change, which bars entering a block that lists it: the fast path
 * compares the block's build epoch against the live one at entry (and,
 * because the watchdog can fire mid-block, before every macro-op). A
 * devectorization toggle bumps no epoch; a macro whose stable context
 * moved is vetoed and then translated, reading the flow cache's entry
 * for the new context. Clearing the flow cache clears the blocks too
 * (Simulation::setTranslator, setFlowCacheEnabled).
 *
 * Like the flow cache, superblocks are purely a host optimization:
 * they model no hardware and must never change simulated timing or
 * statistics (tests/sim/test_superblock.cc pins bit-identical stat
 * dumps with the tier on and off, in both fidelities). All counters
 * are host-side plain integers outside the stat tree.
 */

#ifndef CSD_DECODE_SUPERBLOCK_HH
#define CSD_DECODE_SUPERBLOCK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "decode/flow_cache.hh"
#include "decode/translator.hh"
#include "isa/program.hh"

namespace csd
{

/** Why the fast path left a superblock. */
enum class SbExit : std::uint8_t
{
    End,        //!< ran off the end of the stream (fall-through)
    Branch,     //!< control left the straight-line path mid-block
    EpochBump,  //!< translator epoch moved mid-block (e.g. MSR write)
    Unstable,   //!< translationStable() went false (taint/decoy state)
                //!< or the stable context moved (devectorization)
    Budget,     //!< run()/maxInstructions budget exhausted mid-block
    NumExits,
};

constexpr unsigned numSbExits = static_cast<unsigned>(SbExit::NumExits);

/**
 * Printable exit-reason name. These strings are load-bearing: the
 * throughput bench emits one sidecar counter per reason under the key
 * "superblock.exit_<name>" (bench_sim_throughput.cc), and
 * tests/sim/test_superblock.cc pins the exact spellings. The
 * definition's switch is exhaustive with no default, so adding an
 * SbExit enumerator without naming it breaks the build there.
 */
const char *sbExitName(SbExit exit);

/** A compiled straight-line region. */
struct Superblock
{
    Addr entryPc = invalidAddr;
    std::uint64_t epoch = 0;       //!< translator epoch at build time
    /** In retire order, each a flow-cache entry's macro (Entry::macro). */
    std::vector<const SbMacro *> macros;

    /** Dynamic uops the macros' spans hold. */
    std::uint64_t
    uopCount() const
    {
        std::uint64_t count = 0;
        for (const SbMacro *macro : macros)
            count += macro->dynCount;
        return count;
    }
};

/** Build caps (defense against pathological straight-line programs). */
struct SuperblockLimits
{
    std::uint32_t maxMacros = 512;
    std::uint32_t maxUops = FlowCache::maxStoredUops;
    std::uint32_t minMacros = 2;   //!< don't compile trivial regions
};

/**
 * Slot-indexed store of compiled superblocks, keyed like the flow
 * cache by the entry op's position in Program::code(). Stale blocks
 * are detected by the epoch compare at entry and dropped lazily.
 */
class SuperblockCache
{
  public:
    /** Size for a program's static instruction count; drops blocks. */
    void
    reset(std::size_t slot_count)
    {
        blocks_.clear();
        blocks_.resize(slot_count);
        count_ = 0;
    }

    std::size_t slots() const { return blocks_.size(); }

    Superblock *at(std::size_t slot) { return blocks_[slot].get(); }
    const Superblock *
    at(std::size_t slot) const
    {
        return blocks_[slot].get();
    }

    /** Does a block built under @p epoch start at @p slot? */
    bool
    live(std::size_t slot, std::uint64_t epoch) const
    {
        return slot < blocks_.size() && blocks_[slot] &&
               blocks_[slot]->epoch == epoch;
    }

    void
    install(std::size_t slot, std::unique_ptr<Superblock> block)
    {
        count_ += blocks_[slot] ? 0 : 1;
        blocks_[slot] = std::move(block);
    }

    void
    invalidate(std::size_t slot)
    {
        count_ -= blocks_[slot] ? 1 : 0;
        blocks_[slot].reset();
    }

    /** Drop every compiled block; keeps the sizing. */
    void
    clear()
    {
        for (std::unique_ptr<Superblock> &block : blocks_)
            block.reset();
        count_ = 0;
    }

    /** Number of live superblocks. */
    std::size_t size() const { return count_; }

  private:
    std::vector<std::unique_ptr<Superblock>> blocks_;
    std::size_t count_ = 0;
};

/**
 * Compiles straight-line regions into superblocks. One builder wraps
 * the immutable build world — program, flow cache, translator, live
 * blocks, caps — so a caller (the fast path at a hot
 * head, the static tier-equivalence prover sweeping every head
 * offline) compiles any number of regions against one consistent
 * snapshot.
 *
 * build(entry_pc) walks from @p entry_pc following fall-through edges
 * (conditional branches stay mid-block and exit dynamically when
 * taken), ends inclusively at an unconditional control transfer, and
 * stops at the first op whose stable translation is not cached under
 * the current epoch, at a Halt (the interpreter owns program
 * termination), or at an op where a block live in the builder's
 * SuperblockCache starts: the region ends there instead of compiling
 * an overlapping copy, and the fast path chains into that block from
 * this one's End exit. An op that is momentarily unstable (a pending
 * decoy injection) but cached is admitted: the dispatch loop's
 * per-macro stability probe hands it to the interpreter when it runs.
 * The block lists the picked entries' macros (FlowCache::Entry::macro).
 * Returns nullptr when fewer than limits.minMacros ops qualify.
 */
class SuperblockBuilder
{
  public:
    /** @param blocks the blocks new regions chain to (may be empty). */
    SuperblockBuilder(const Program &prog, const FlowCache &fc,
                      const Translator &translator,
                      const SuperblockCache &blocks,
                      const SuperblockLimits &limits = {})
        : prog_(prog), fc_(fc), translator_(translator), blocks_(blocks),
          limits_(limits)
    {}

    /** Compile the region at @p entry_pc; nullptr if not compilable. */
    std::unique_ptr<Superblock> build(Addr entry_pc) const;

    const SuperblockLimits &limits() const { return limits_; }

  private:
    const Program &prog_;
    const FlowCache &fc_;
    const Translator &translator_;
    const SuperblockCache &blocks_;
    SuperblockLimits limits_;
};

} // namespace csd

#endif // CSD_DECODE_SUPERBLOCK_HH
