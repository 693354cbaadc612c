/**
 * @file
 * Out-of-order back end timing model (Table I baseline).
 *
 * A dependence-driven model: micro-ops are processed in program order
 * and each computes its dispatch/issue/complete cycles from register
 * readiness, issue-port contention, ROB occupancy, and memory latency.
 * This captures the structures that matter for the paper's results —
 * micro-op bandwidth, port pressure from expanded flows, load latency
 * from the cache hierarchy — without event-driven machinery.
 */

#ifndef CSD_CPU_BACKEND_HH
#define CSD_CPU_BACKEND_HH

#include <array>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/executor.hh"
#include "memory/hierarchy.hh"
#include "uop/uop.hh"

namespace csd
{

/** Back end configuration (Sandy Bridge-like). */
struct BackEndParams
{
    unsigned robEntries = 168;
    unsigned commitWidth = 4;      //!< fused slots retired per cycle
    Cycles dispatchLatency = 3;    //!< rename/alloc depth after the IDQ
    Cycles mispredictResteer = 5;  //!< redirect delay past branch resolve
    Cycles takenBranchBubble = 1;  //!< correctly predicted taken branch
};

/** Candidate issue ports for a functional-unit class. */
struct IssuePortSet
{
    std::uint8_t count = 0;
    std::uint8_t ports[3] = {};
};

/** How a uop touches the memory hierarchy in the timing model. */
enum class UopMemKind : std::uint8_t
{
    None,
    Load,       //!< D-side read
    LoadInstr,  //!< I-side read (I-range decoy probe)
    Store,
    Flush,      //!< clflush
};

/**
 * A uop's timing inputs, resolved once from its static fields: what
 * BackEnd::process, the CPI stack, the lifecycle tracer, and the slot
 * and energy accounting read per dynamic instance. The flow cache
 * resolves it when it caches a flow (decode/flow_cache.hh), and both
 * the interpreter and the superblock tier read it from there; only an
 * uncached flow's records are derived per instance.
 *
 * Register operands are flat indices into the back end's ready table.
 * An absent source reads a slot that is always 0 and an absent
 * destination writes a scratch slot no source reads, so the
 * dependence check and the writeback are branch-free.
 */
struct UopTimingRec
{
    static constexpr std::uint8_t noSrc = numFlatRegs;      //!< reads 0
    static constexpr std::uint8_t noDst = numFlatRegs + 1;  //!< scratch
    static constexpr unsigned readySlots = numFlatRegs + 2;

    // Flag bits.
    static constexpr std::uint16_t eliminated = 1u << 0;  //!< SP tracker
    static constexpr std::uint16_t readCycles = 1u << 1;  //!< serializing
    static constexpr std::uint16_t pipelined = 1u << 2;   //!< port busy 1
    static constexpr std::uint16_t vpu = 1u << 3;         //!< onVpu()
    static constexpr std::uint16_t branch = 1u << 4;
    static constexpr std::uint16_t takesSlot = 1u << 5;   //!< before fusion
    static constexpr std::uint16_t decoy = 1u << 6;
    static constexpr std::uint16_t devectExpansion = 1u << 7;  //!< temps

    std::uint8_t src[4] = {noSrc, noSrc, noSrc, noSrc};  //!< +flags read
    std::uint8_t dst = noDst;
    std::uint8_t flagsDst = noDst;  //!< the flags slot when written
    std::uint8_t latency = 1;       //!< fuLatency()
    FuClass fu = FuClass::None;
    IssuePortSet ports;
    UopMemKind mem = UopMemKind::None;
    std::uint16_t bits = 0;

    bool has(std::uint16_t bit) const { return (bits & bit) != 0; }
};

static_assert(sizeof(UopTimingRec) == 16, "one record per stream uop");

namespace detail
{

/**
 * Sandy Bridge-like port binding, indexed by FuClass:
 *   p0: ALU, vector ALU/mul, divider
 *   p1: ALU, int mul, scalar FP
 *   p5: ALU, branch, vector ALU
 *   p2/p3: loads, p4: store
 */
inline constexpr IssuePortSet issuePortTable[] = {
    /* IntAlu   */ {3, {0, 1, 5}},
    /* IntMul   */ {1, {1}},
    /* Branch   */ {1, {5}},
    /* MemLoad  */ {2, {2, 3}},
    /* MemStore */ {1, {4}},
    /* VecAlu   */ {2, {0, 5}},
    /* VecMul   */ {1, {0}},
    /* VecFpDiv */ {1, {0}},
    /* FpScalar */ {1, {1}},
    /* None     */ {0, {}},
};

/** The opcode-determined part of a timing record. */
constexpr UopTimingRec
opcodeTimingOf(MicroOpcode op)
{
    UopTimingRec rec;
    rec.fu = fuClassOf(op);
    rec.latency = static_cast<std::uint8_t>(fuLatencyOf(op));
    rec.ports = issuePortTable[static_cast<std::size_t>(rec.fu)];
    switch (op) {
      case MicroOpcode::Load:
      case MicroOpcode::LoadVec:
        rec.mem = UopMemKind::Load;
        break;
      case MicroOpcode::Store:
      case MicroOpcode::StoreImm:
      case MicroOpcode::StoreVec:
        rec.mem = UopMemKind::Store;
        break;
      case MicroOpcode::CacheFlush:
        rec.mem = UopMemKind::Flush;
        break;
      default:
        break;
    }
    std::uint16_t bits = 0;
    if (op == MicroOpcode::ReadCycles)
        bits |= UopTimingRec::readCycles;
    if (rec.fu != FuClass::VecFpDiv)
        bits |= UopTimingRec::pipelined;
    if (rec.fu == FuClass::VecAlu || rec.fu == FuClass::VecMul ||
        rec.fu == FuClass::VecFpDiv)
        bits |= UopTimingRec::vpu;
    if (op == MicroOpcode::Br || op == MicroOpcode::BrInd)
        bits |= UopTimingRec::branch;
    rec.bits = bits;
    return rec;
}

inline constexpr auto opcodeTimingTable =
    makeOpcodeTable<UopTimingRec, opcodeTimingOf>();

/** Flat ready-table index of @p reg, or @p none if it is absent. */
constexpr std::uint8_t
timingFlat(const RegId &reg, std::uint8_t none)
{
    return reg.valid() ? static_cast<std::uint8_t>(reg.flatIndex()) : none;
}

} // namespace detail

/**
 * Resolve @p uop's timing record (see UopTimingRec): the opcode's part
 * from a constexpr table, the operand and decode-time-mark part from
 * the uop. Forced inline, so the interpreter's per-instance derivation
 * for uncached flows folds into its consumer loop.
 */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline UopTimingRec
timingRecordFor(const Uop &uop)
{
    constexpr std::uint8_t noSrc = UopTimingRec::noSrc;
    constexpr std::uint8_t noDst = UopTimingRec::noDst;
    constexpr auto flags = static_cast<std::uint8_t>(
        numIntUopRegs + numVecUopRegs);
    UopTimingRec rec =
        detail::opcodeTimingTable[static_cast<std::size_t>(uop.op)];
    rec.src[0] = detail::timingFlat(uop.src1, noSrc);
    rec.src[1] = detail::timingFlat(uop.src2, noSrc);
    rec.src[2] = detail::timingFlat(uop.src3, noSrc);
    rec.src[3] = uop.readsFlags ? flags : noSrc;
    rec.dst = detail::timingFlat(uop.dst, noDst);
    rec.flagsDst = uop.writesFlags ? flags : noDst;
    if (uop.instrFetch && rec.mem == UopMemKind::Load)
        rec.mem = UopMemKind::LoadInstr;
    const auto temp = [](const RegId &reg) {
        return reg.isIntTemp() || reg.isVecTemp();
    };
    std::uint16_t bits = rec.bits;
    if (uop.eliminated)
        bits |= UopTimingRec::eliminated;
    else if (!uop.fusedFollower)
        bits |= UopTimingRec::takesSlot;
    if (uop.decoy)
        bits |= UopTimingRec::decoy;
    // Devectorization expansion: the vector->scalar rewrite lives in
    // decoder-temporary registers (the extract/insert glue and the
    // per-lane scalar compute all touch one), while a devectorized
    // flow's original loads/stores/address math do not.
    if (temp(uop.dst) || temp(uop.src1) || temp(uop.src2) ||
        temp(uop.src3))
        bits |= UopTimingRec::devectExpansion;
    rec.bits = bits;
    return rec;
}

/** The out-of-order back end. */
class BackEnd
{
  public:
    /** @param mem hierarchy for data accesses; may be null. */
    BackEnd(const BackEndParams &params, MemHierarchy *mem);

    /** Timing of one processed uop. */
    struct UopTiming
    {
        Tick dispatch = 0;
        Tick issue = 0;
        Tick complete = 0;
        Tick commit = 0;

        // Stall decomposition: cycles each constraint demonstrably
        // added along this uop's dispatch->commit chain. Consumed by
        // the CPI-stack accountant (cpu/cpi_stack.hh).
        Cycles robStall = 0;     //!< dispatch held for a ROB entry
        Cycles depStall = 0;     //!< issue held past dispatch for sources
        Cycles portStall = 0;    //!< issue held for a free port
        Cycles memStall = 0;     //!< load latency beyond the L1D hit
        Cycles l1dLatency = 0;   //!< L1D-hit portion of a load's latency
        std::uint8_t memLevel = 0;  //!< level serving a load (1=L1D..4=DRAM)
        bool commitWidthStall = false;  //!< commit pushed by the width cap
    };

    /**
     * Process one dynamic uop, described by its resolved timing record
     * and effective address, delivered at @p deliver (fused followers
     * pass their leader's deliver cycle).
     */
    UopTiming process(const UopTimingRec &rec, Addr eff_addr,
                      Tick deliver);

    /** Cycle the most recently processed uop commits. */
    Tick lastCommit() const { return lastCommit_; }

    /** Total executed (unfused, non-eliminated) uops. */
    std::uint64_t uopsExecuted() const { return uopsExecuted_.value(); }

    StatGroup &stats() { return stats_; }

    using PortSet = IssuePortSet;

    /** Issue-port binding table (exposed for the csd-verify audit). */
    static const PortSet &
    portsFor(FuClass fu)
    {
        return detail::issuePortTable[static_cast<std::size_t>(fu)];
    }

  private:
    static constexpr unsigned numPorts = 6;

    BackEndParams params_;
    MemHierarchy *mem_;

    std::array<Tick, UopTimingRec::readySlots> regReady_{};
    std::array<Tick, numPorts> portFree_{};

    // ROB occupancy: ring of commit cycles of the last robEntries uops.
    std::vector<Tick> robRing_;
    std::size_t robIdx_ = 0;
    std::uint64_t robCount_ = 0;

    Tick lastCommit_ = 0;
    Tick serializeAfter_ = 0;  //!< fence: younger uops issue after this
    Tick lastCommitCycle_ = 0;
    unsigned commitsThisCycle_ = 0;

    StatGroup stats_;
    Counter uopsExecuted_;
    Counter loadsExecuted_;
    Counter storesExecuted_;
    Counter vpuUops_;
    Counter portConflictCycles_;
};

// Forced inline: the detailed timing consumer (sim/retire.cc) calls it
// once per uop.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline BackEnd::UopTiming
BackEnd::process(const UopTimingRec &rec, Addr eff_addr, Tick deliver)
{
    UopTiming timing;

    // Source readiness (also used by eliminated uops). Absent operands
    // read the always-zero slot.
    Tick ready = std::max(
        std::max(regReady_[rec.src[0]], regReady_[rec.src[1]]),
        std::max(regReady_[rec.src[2]], regReady_[rec.src[3]]));

    if (rec.has(UopTimingRec::eliminated)) {
        // Stack-pointer tracking: the update happens at rename, costs
        // no slot and no execution; the result is renamed immediately.
        // (An absent destination lands in the scratch slot.)
        regReady_[rec.dst] =
            std::max(ready, deliver + params_.dispatchLatency);
        timing.dispatch = deliver;
        timing.issue = deliver;
        timing.complete = deliver;
        timing.commit = lastCommit_;
        return timing;
    }

    // Dispatch: after rename depth, subject to ROB occupancy.
    Tick dispatch = deliver + params_.dispatchLatency;
    if (robCount_ >= params_.robEntries &&
        robRing_[robIdx_] > dispatch) {
        // The slot this uop reuses must have committed.
        timing.robStall = robRing_[robIdx_] - dispatch;
        dispatch = robRing_[robIdx_];
    }
    ready = std::max(ready, dispatch);

    // rdtsc is modeled serializing (rdtscp/lfence discipline): it
    // waits for all older uops to commit, and younger uops cannot
    // begin until it completes — so timing spies genuinely observe
    // their reload latency.
    ready = std::max(ready, serializeAfter_);
    const bool read_cycles = rec.has(UopTimingRec::readCycles);
    if (read_cycles)
        ready = std::max(ready, lastCommit_);
    if (ready > dispatch)
        timing.depStall = ready - dispatch;

    // Issue: earliest among candidate ports.
    Tick issue = ready;
    const IssuePortSet &ports = rec.ports;
    if (ports.count > 0) {
        unsigned best = ports.ports[0];
        for (unsigned i = 1; i < ports.count; ++i) {
            const unsigned port = ports.ports[i];
            if (portFree_[port] < portFree_[best])
                best = port;
        }
        if (portFree_[best] > issue) {
            timing.portStall = portFree_[best] - issue;
            portConflictCycles_ += portFree_[best] - issue;
            issue = portFree_[best];
        }
        portFree_[best] = issue + (rec.has(UopTimingRec::pipelined)
                                       ? 1
                                       : rec.latency);
    }

    // Complete.
    Tick complete;
    switch (rec.mem) {
      case UopMemKind::Load:
      case UopMemKind::LoadInstr: {
        ++loadsExecuted_;
        Cycles latency = 4;
        Cycles l1d_hit = 4;
        timing.memLevel = 1;
        if (mem_) {
            const bool instr = rec.mem == UopMemKind::LoadInstr;
            const auto result = instr ? mem_->fetchInstr(eff_addr)
                                      : mem_->readData(eff_addr);
            latency = result.latency;
            l1d_hit = instr ? mem_->params().l1i.hitLatency
                            : mem_->params().l1d.hitLatency;
            timing.memLevel =
                static_cast<std::uint8_t>(result.levelHit);
        }
        timing.l1dLatency = std::min(latency, l1d_hit);
        if (latency > l1d_hit)
            timing.memStall = latency - l1d_hit;
        complete = issue + latency;
        break;
      }
      case UopMemKind::Store:
        ++storesExecuted_;
        if (mem_)
            mem_->writeData(eff_addr);
        // Stores retire into the store queue; no consumer waits on them.
        complete = issue + 1;
        break;
      case UopMemKind::Flush:
        if (mem_)
            mem_->flush(eff_addr);
        complete = issue + 40;  // clflush is a slow, serializing-ish op
        break;
      case UopMemKind::None:
      default:
        complete = issue + rec.latency;
        break;
    }

    regReady_[rec.dst] = complete;
    regReady_[rec.flagsDst] = complete;
    if (read_cycles)
        serializeAfter_ = complete;
    if (rec.has(UopTimingRec::vpu))
        ++vpuUops_;
    ++uopsExecuted_;

    // In-order commit with bounded width.
    Tick commit = std::max(complete, lastCommit_);
    if (commit == lastCommitCycle_ &&
        commitsThisCycle_ >= params_.commitWidth) {
        commit += 1;
        timing.commitWidthStall = true;
    }
    if (commit != lastCommitCycle_) {
        lastCommitCycle_ = commit;
        commitsThisCycle_ = 1;
    } else {
        ++commitsThisCycle_;
    }
    lastCommit_ = commit;

    // ROB ring bookkeeping.
    robRing_[robIdx_] = commit;
    if (++robIdx_ == params_.robEntries)
        robIdx_ = 0;
    if (robCount_ < params_.robEntries)
        ++robCount_;

    timing.dispatch = dispatch;
    timing.issue = issue;
    timing.complete = complete;
    timing.commit = commit;
    return timing;
}

} // namespace csd

#endif // CSD_CPU_BACKEND_HH
