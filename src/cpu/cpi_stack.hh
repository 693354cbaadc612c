/**
 * @file
 * CPI-stack accounting: classify every simulated cycle into one stall
 * bucket, with the invariant that the buckets sum exactly to the total
 * cycle count.
 *
 * The timing model is dependence-driven, so the accountant works on the
 * commit timeline: each processed micro-op advances accounted time to
 * its commit cycle, and the gap it opens is decomposed by walking the
 * uop's dispatch->issue->complete->commit constraint chain backwards
 * (commit width, then memory, then port, then operand, then ROB, then
 * exposed front-end stalls), crediting each constraint with the cycles
 * it demonstrably added and the remainder to the base bucket. Stall
 * cycles hidden under out-of-order overlap are therefore *not* counted
 * — only exposed cycles are, which is what makes the buckets sum to
 * the run's cycles with no residue.
 *
 * Micro-ops injected by context-sensitive decoding charge their whole
 * gap to a CSD-overhead bucket: decoy uops (all of them are extra
 * work) and the expansion uops of devectorized flows (those touching
 * decoder-temporary registers — the extract/insert glue and per-lane
 * scalar compute introduced by the vector->scalar rewrite).
 *
 * The accountant also keeps a per-PC profile (cycles, uops, per-bucket
 * stalls, taint hits, decoy uops) dumpable as JSON or CSV. Rows are
 * stored densely by instruction slot (the macro-op's index in
 * Program::code()), so the per-uop row lookup is an array index.
 */

#ifndef CSD_CPU_CPI_STACK_HH
#define CSD_CPU_CPI_STACK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "cpu/backend.hh"
#include "uop/uop.hh"

namespace csd
{

/** CPI-stack buckets. Every simulated cycle lands in exactly one. */
enum class CpiBucket : unsigned
{
    Base,            //!< useful pipelined progress (incl. hidden stalls)
    FrontendL1i,     //!< exposed L1I-miss fetch stalls
    FrontendDecode,  //!< legacy-decode bandwidth + uop-cache switch cost
    BackendRob,      //!< dispatch held for a ROB entry
    BackendDep,      //!< issue held for source operands / serialization
    BackendPort,     //!< issue held for a free issue port
    BackendCommit,   //!< commit pushed a cycle by the commit width
    MemL1d,          //!< exposed L1D-hit load latency
    MemL2,           //!< exposed load latency served by the L2
    MemLlc,          //!< exposed load latency served by the LLC
    MemDram,         //!< exposed load latency served by DRAM
    CsdDecoy,        //!< cycles opened by decoy micro-ops
    CsdDevect,       //!< cycles opened by devectorization-expansion uops
    VpuWake,         //!< pipeline stalls on conventional-PG demand wakes
    NumBuckets,
};

constexpr unsigned numCpiBuckets =
    static_cast<unsigned>(CpiBucket::NumBuckets);

/** Stable machine-readable bucket name ("frontend_l1i", ...). */
const char *cpiBucketName(CpiBucket bucket);

/** The CPI-stack accountant. */
class CpiStack
{
  public:
    /** Per-uop attribution inputs beyond the back-end timing. */
    struct UopContext
    {
        Addr pc = invalidAddr;     //!< parent macro-op PC
        std::size_t slot = 0;      //!< parent's index in Program::code()
        bool decoy = false;        //!< stealth-mode decoy uop
        bool devectExpansion = false; //!< devect glue/per-lane uop
        bool tainted = false;      //!< touches DIFT-tainted state
        Cycles feL1i = 0;          //!< fresh L1I fetch-stall cycles
        Cycles feDecode = 0;       //!< fresh legacy-decode/switch cycles
    };

    /** Per-PC aggregate profile row. */
    struct PcProfile
    {
        std::uint64_t uops = 0;
        std::uint64_t taintHits = 0;
        std::uint64_t decoyUops = 0;
        Cycles cycles = 0;  //!< commit-timeline cycles opened at this PC
        std::array<Cycles, numCpiBuckets> buckets{};
    };

    /**
     * Start accounting at @p start_cycle (the enable-time cycle), with
     * per-PC rows for @p slot_count instruction slots (grown on demand
     * if a later UopContext::slot exceeds it).
     */
    explicit CpiStack(Tick start_cycle = 0, std::size_t slot_count = 0);

    /** Account one processed micro-op. */
    void accountUop(const BackEnd::UopTiming &timing,
                    const UopContext &ctx);

    /**
     * Account an externally imposed stall that advanced the simulator
     * clock to @p new_total (e.g. a VPU demand-wake stall).
     */
    void accountExternal(Tick new_total, CpiBucket bucket);

    /** Cycles attributed so far; equals the sum of all buckets. */
    Cycles accounted() const { return accountedUpTo_ - startCycle_; }

    /** Commit-timeline position the accountant has reached. */
    Tick accountedUpTo() const { return accountedUpTo_; }

    Cycles bucketCycles(CpiBucket bucket) const
    {
        return buckets_[static_cast<unsigned>(bucket)];
    }
    const std::array<Cycles, numCpiBuckets> &buckets() const
    {
        return buckets_;
    }

    /** Sum of every bucket (== accounted(), by construction). */
    Cycles totalBucketCycles() const;

    // --- per-PC profiles --------------------------------------------------

    /** Every accounted PC's row (a copy; not for hot loops). */
    std::unordered_map<Addr, PcProfile> pcProfiles() const;

    /** PCs ordered by descending attributed cycles (ties: by PC). */
    std::vector<Addr> hottestPcs(std::size_t max_pcs = 0) const;

    /**
     * Dump the stack plus the per-PC table as JSON:
     * {"total_cycles":..., "buckets":{...}, "pcs":[{...}, ...]}.
     */
    void dumpJson(std::ostream &os, std::size_t max_pcs = 0) const;

    /** Dump the per-PC table as CSV (one bucket column each). */
    void dumpCsv(std::ostream &os, std::size_t max_pcs = 0) const;

  private:
    /** One instruction slot's row; pc stays invalidAddr until used. */
    struct Row
    {
        Addr pc = invalidAddr;
        PcProfile profile;
    };

    /** Used rows ordered like hottestPcs(). */
    std::vector<const Row *> hottestRows(std::size_t max_pcs) const;

    Tick startCycle_;
    Tick accountedUpTo_;
    std::array<Cycles, numCpiBuckets> buckets_{};
    std::vector<Row> rows_;  //!< indexed by UopContext::slot
};

// Forced inline: the detailed timing consumer calls it once per uop.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline void
CpiStack::accountUop(const BackEnd::UopTiming &timing,
                     const UopContext &ctx)
{
    if (ctx.slot >= rows_.size()) [[unlikely]]
        rows_.resize(ctx.slot + 1);
    Row &row = rows_[ctx.slot];
    row.pc = ctx.pc;
    PcProfile &profile = row.profile;
    ++profile.uops;
    if (ctx.tainted)
        ++profile.taintHits;
    if (ctx.decoy)
        ++profile.decoyUops;

    if (timing.commit <= accountedUpTo_)
        return;  // fully overlapped; opens no new cycles
    Cycles remaining = timing.commit - accountedUpTo_;
    accountedUpTo_ = timing.commit;
    profile.cycles += remaining;

    const auto take = [&](CpiBucket bucket, Cycles amount) {
        if (remaining == 0 || amount == 0)
            return;
        const Cycles credited = std::min(remaining, amount);
        buckets_[static_cast<unsigned>(bucket)] += credited;
        profile.buckets[static_cast<unsigned>(bucket)] += credited;
        remaining -= credited;
    };

    // CSD-injected work is pure overhead: every cycle such a uop opens
    // on the commit timeline is charged to its CSD bucket, whatever
    // micro-architectural constraint produced it.
    if (ctx.decoy) {
        take(CpiBucket::CsdDecoy, remaining);
        return;
    }
    if (ctx.devectExpansion) {
        take(CpiBucket::CsdDevect, remaining);
        return;
    }

    // Walk the constraint chain from commit backwards; each stage is
    // credited at most the cycles it added, capped by what is left of
    // the gap (overlapped portions stay hidden).
    take(CpiBucket::BackendCommit, timing.commitWidthStall ? 1 : 0);
    switch (timing.memLevel) {
      case 2: take(CpiBucket::MemL2, timing.memStall); break;
      case 3: take(CpiBucket::MemLlc, timing.memStall); break;
      case 4: take(CpiBucket::MemDram, timing.memStall); break;
      default: break;
    }
    if (timing.memLevel >= 1)
        take(CpiBucket::MemL1d, timing.l1dLatency);
    take(CpiBucket::BackendPort, timing.portStall);
    take(CpiBucket::BackendDep, timing.depStall);
    take(CpiBucket::BackendRob, timing.robStall);
    take(CpiBucket::FrontendL1i, ctx.feL1i);
    take(CpiBucket::FrontendDecode, ctx.feDecode);
    take(CpiBucket::Base, remaining);
}

} // namespace csd

#endif // CSD_CPU_CPI_STACK_HH
