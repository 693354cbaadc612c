/**
 * @file
 * Resolved uop streams: the form in which the simulator retires every
 * macro-op, and the superblocks the superblock tier (sim/fastpath.hh)
 * compiles from them.
 *
 * resolveMacro() turns one macro-op's flow and its timing records
 * into an SbMacro plus a span of SbOps in the reference executor's
 * expansion order. Everything the retire routine (sim/retire.cc)
 * would otherwise re-derive per uop is resolved there: the handler
 * each uop dispatches to, its dynamic energy, and the per-macro
 * accounting deltas (delivered uops, front-end slots, dynamic uop
 * count). Micro-loops are unrolled into the span, so retiring a macro
 * is a single linear walk with one indirect jump per uop. Stream
 * entries point at the flow's uops and at their timing records (flat
 * register indices, FU class, port set and latency, memory kind,
 * slot-taking, decoy, devectorization-expansion and VPU bits; see
 * UopTimingRec in cpu/backend.hh) rather than copying either. The
 * interpreter resolves the one macro it retires into a reused scratch
 * span; a superblock stitches a straight-line run of *cached* flows —
 * entries of the predecoded-flow cache (flow_cache.hh) that are valid
 * under the current translator epoch — into one contiguous stream.
 *
 * Invalidation reuses the translator-epoch protocol verbatim: a
 * superblock records the epoch it was built under, and the fast path
 * compares that against the live epoch at entry (and, because the
 * watchdog can fire mid-block, before every macro-op). A mismatch
 * drops the block back to the interpreter, exactly as a stale flow
 * cache entry drops to the translator. A devectorization toggle bumps
 * no epoch; each macro records the context its flow was translated in
 * (SbMacro::ctx), and the fast path vetoes a macro whose stable context
 * moved, which is then translated, reading the flow cache's entry for
 * the new context.
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
#include "cpu/backend.hh"
#include "decode/flow_cache.hh"
#include "decode/translator.hh"
#include "isa/program.hh"
#include "power/energy.hh"
#include "uop/uop.hh"

namespace csd
{

/**
 * Per-uop handler, resolved from the opcode by resolveMacro() so the
 * retire routine dispatches through a computed-goto label table
 * instead of re-classifying the opcode per dynamic instance.
 */
enum class SbHandler : std::uint8_t
{
    Load,        //!< scalar load (D- or, for decoys, I-side probe)
    Store,       //!< scalar store (register data)
    StoreImm,    //!< scalar store (immediate data)
    LoadVec,     //!< 16-byte vector load
    StoreVec,    //!< 16-byte vector store
    Br,          //!< conditional direct branch
    BrInd,       //!< indirect branch
    CacheFlush,  //!< clflush: evict + fixed latency
    ReadCycles,  //!< rdtsc: architectural value is the cycle hint
    Nop,         //!< nothing (timing/energy accounting only)
    Vector,      //!< 128-bit vector ALU/FP (FunctionalExecutor entry)
    VExtract,    //!< vector lane -> integer register
    ScalarFp,    //!< scalar FP unit (FunctionalExecutor entry)
    ScalarAlu,   //!< everything else (FunctionalExecutor entry)
    Halt,        //!< program end: ends the macro (never in a superblock)
    NumHandlers,
};

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

/**
 * Handler for one micro-opcode, mirroring the dispatch groups of
 * FunctionalExecutor::execUop (cpu/executor.cc) exactly: every opcode
 * lands in the same semantic bucket in both tiers. Public so the
 * static tier-equivalence prover (verify/tier_equiv.hh) can name the
 * mapping it independently re-derives from the executor's switch.
 */
SbHandler sbHandlerFor(MicroOpcode op);

// Per-macro protocol guards. The driver (sim/retire.cc) performs all
// four before every compiled macro's uops, in this order: tick (part
// of the per-macro protocol) fires any due watchdog, the epoch compare
// detects a translation change, the stability probe vetoes ops whose
// translation depends on mutable per-instance state, and the context
// compare vetoes a macro whose stable context moved since the block
// was compiled (a devectorization toggle, which bumps no epoch). The
// builder stamps the set it compiled against into SbMacro::guards as
// build provenance; the tier-equivalence prover requires the
// epoch+tick pair on every macro with a memory or branch effect, the
// stability probe everywhere, and the context compare on every
// devectorizable macro (tier.unguarded-epoch-window). A future native
// emitter must emit the same guard sequence to satisfy the prover.
constexpr std::uint8_t sbGuardTick = 1u << 0;
constexpr std::uint8_t sbGuardEpoch = 1u << 1;
constexpr std::uint8_t sbGuardStability = 1u << 2;
constexpr std::uint8_t sbGuardContext = 1u << 3;
constexpr std::uint8_t sbGuardAll =
    sbGuardTick | sbGuardEpoch | sbGuardStability | sbGuardContext;

/** One pre-resolved uop of the threaded stream. */
struct SbOp
{
    /** The flow's uop (a micro-loop body repeats it) and its timing
     *  record. In a superblock both live in a flow-cache entry
     *  (FlowCache::Entry::timing) and stay valid while the block's
     *  epoch is current: an entry is only rewritten after an epoch
     *  change, which bars entering the block (a context change reads
     *  the slot's other entry instead), and clearing the flow cache
     *  clears the blocks too. */
    const Uop *uop = nullptr;
    const UopTimingRec *timing = nullptr;
    double energy = 0;       //!< EnergyModel::uopEnergy, precomputed
    /** timing->bits, kept inline for the cache-only consumer, which
     *  reads nothing else of the record (saves a load per uop). */
    std::uint16_t bits = 0;
    SbHandler handler = SbHandler::Nop;

    bool vpu() const { return (bits & UopTimingRec::vpu) != 0; }
    bool decoy() const { return (bits & UopTimingRec::decoy) != 0; }
    /** !eliminated: slots/energy/probe apply. */
    bool counted() const { return !(bits & UopTimingRec::eliminated); }
};

/** Per-macro-op metadata of a resolved stream. */
struct SbMacro
{
    const MacroOp *op = nullptr;   //!< points into Program::code()
    const UopFlow *flow = nullptr; //!< the resolved flow
    Addr fallThrough = invalidAddr;  //!< nextPc() when no branch taken
    Addr fetchFirst = 0;           //!< first I-fetch cache block
    Addr fetchLast = 0;            //!< last I-fetch cache block
    std::uint32_t uopBegin = 0;    //!< range in the span's SbOp vector
    std::uint32_t uopEnd = 0;
    std::uint32_t dynCount = 0;    //!< dynamic uops incl. eliminated
    std::uint32_t delivered = 0;   //!< dynamic uops excl. eliminated
    std::uint32_t frontEndSlots = 0;  //!< deliveredSlots(*flow)
    std::uint16_t ctx = 0;         //!< context the flow was translated in
    std::uint8_t guards = 0;       //!< sbGuard* bits compiled against
};

/** A compiled straight-line region. */
struct Superblock
{
    Addr entryPc = invalidAddr;
    std::uint64_t epoch = 0;       //!< translator epoch at build time
    std::vector<SbMacro> macros;
    std::vector<SbOp> uops;        //!< flat threaded-code stream
};

/**
 * Resolve @p op's @p flow, with its timing records @p timing (parallel
 * to flow.uops) and decode context @p ctx, into an SbMacro whose span
 * is appended to @p uops: prologue, body x tripCount, epilogue — the
 * order FunctionalExecutor::executeInto expands it in. The macro's
 * uopBegin/uopEnd index @p uops. Each SbOp points at @p flow's uop and
 * at its record, so both must outlive the span.
 */
SbMacro resolveMacro(const MacroOp &op, const UopFlow &flow,
                     const UopTimingRec *timing, unsigned ctx,
                     const EnergyModel &energy, std::vector<SbOp> &uops);

/** Build caps (defense against pathological straight-line programs). */
struct SuperblockLimits
{
    std::uint32_t maxMacros = 512;
    std::uint32_t maxUops = 8192;
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
 * the immutable build world — program, flow cache, translator, energy
 * model, live blocks, caps — so a caller (the fast path at a hot
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
 * Returns nullptr when fewer than limits.minMacros ops qualify.
 */
class SuperblockBuilder
{
  public:
    /** @param blocks the blocks new regions chain to (may be empty). */
    SuperblockBuilder(const Program &prog, const FlowCache &fc,
                      const Translator &translator,
                      const EnergyModel &energy,
                      const SuperblockCache &blocks,
                      const SuperblockLimits &limits = {})
        : prog_(prog), fc_(fc), translator_(translator), energy_(energy),
          blocks_(blocks), limits_(limits)
    {}

    /** Compile the region at @p entry_pc; nullptr if not compilable. */
    std::unique_ptr<Superblock> build(Addr entry_pc) const;

    const SuperblockLimits &limits() const { return limits_; }

  private:
    const Program &prog_;
    const FlowCache &fc_;
    const Translator &translator_;
    const EnergyModel &energy_;
    const SuperblockCache &blocks_;
    SuperblockLimits limits_;
};

} // namespace csd

#endif // CSD_DECODE_SUPERBLOCK_HH
