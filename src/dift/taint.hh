/**
 * @file
 * Lightweight hardware dynamic information-flow tracking (DIFT).
 *
 * The paper uses DIFT as the trigger that detects key-dependent loads
 * and branches and enables stealth-mode translation (§VI-A), charging
 * it an extra 4-cycle L2 tag-access latency. This module tracks taint
 * through registers, flags, and shadow memory. Taint sources are
 * address ranges (the key material).
 */

#ifndef CSD_DIFT_TAINT_HH
#define CSD_DIFT_TAINT_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/addr_range.hh"
#include "common/stats.hh"
#include "uop/flow.hh"

namespace csd
{

/** Register + shadow-memory taint tracker. */
class TaintTracker
{
  public:
    TaintTracker();

    /** Mark an address range as a taint source (e.g. the secret key). */
    void addTaintSource(const AddrRange &range);

    /** Drop all taint state and sources. */
    void reset();

    /** Is a register currently tainted? */
    bool regTainted(const RegId &reg) const
    {
        return (regTaint_ >> reg.flatIndex()) & 1;
    }

    /**
     * Register taint as a bitmask over flat register indices (bit
     * RegId::flatIndex()); indices past the last register read 0.
     */
    std::uint64_t regTaintMask() const { return regTaint_; }

    /** Is any byte of [addr, addr+size) tainted? */
    bool memTainted(Addr addr, unsigned size) const;

    /**
     * Decode-time check: does @p op constitute a tainted load, store,
     * or branch — i.e. should stealth-mode translation inject decoys
     * for it? A memory op is tainted if any address register is; a
     * conditional branch if the flags are; an indirect branch if its
     * target register is. A pure query: host-side probes (the flow
     * cache's and the chain's stability checks) may call it any
     * number of times; the decoder reports the uses it acts on through
     * noteTaintedUse().
     */
    bool taintedLoadOrBranch(const MacroOp &op) const;

    /**
     * Count (and trace) one decode-time tainted use of @p op, for
     * which taintedLoadOrBranch() held: a tainted load bumps
     * tainted_loads, a tainted branch tainted_branches.
     */
    void noteTaintedUse(const MacroOp &op);

    /**
     * Propagate taint through one executed uop, in program order; @p
     * eff_addr is its effective address for memory uops. Decoy
     * micro-ops are skipped: they exist outside the program's
     * dataflow.
     */
    void
    propagateUop(const Uop &uop, Addr eff_addr)
    {
        if (!uop.decoy)  // decoys live outside the program dataflow
            propagateDataflow(uop, eff_addr);
    }

    StatGroup &stats() { return stats_; }

  private:
    void setRegTaint(const RegId &reg, bool tainted);
    bool uopSourceTaint(const Uop &uop, Addr eff_addr) const;
    void taintMem(Addr addr, unsigned size, bool tainted);
    void propagateDataflow(const Uop &uop, Addr eff_addr);

    static_assert(numFlatRegs <= 64, "register taint is one 64-bit mask");

    static constexpr unsigned granuleShift = 3; //!< 8-byte granules
    static constexpr unsigned pageShift = 12;   //!< 4 KiB shadow pages
    static constexpr unsigned granulesPerPage = 1u
                                                << (pageShift - granuleShift);

    /** One bit per granule of a shadow page. */
    using ShadowPage = std::array<std::uint64_t, granulesPerPage / 64>;

    /** The shadow page holding @p granule, or null if never tainted. */
    ShadowPage *findPage(Addr granule) const;

    std::vector<AddrRange> sources_;
    std::uint64_t regTaint_ = 0;  //!< bit RegId::flatIndex()
    // Shadow memory: a bitmap per 4 KiB page, allocated the first time
    // a granule in it is tainted. Node-based, so page pointers stay
    // valid across inserts; the last page looked up is memoized (taint
    // traffic is dominated by a few key/table pages).
    std::unordered_map<Addr, ShadowPage> shadow_;
    mutable Addr lastPage_ = invalidAddr;
    mutable ShadowPage *lastPageBits_ = nullptr;

    StatGroup stats_;
    Counter taintedLoads_;
    Counter taintedBranches_;
    Counter propagations_;
};

inline void
TaintTracker::setRegTaint(const RegId &reg, bool tainted)
{
    if (!reg.valid())
        return;
    const std::uint64_t bit = std::uint64_t{1} << reg.flatIndex();
    regTaint_ = tainted ? regTaint_ | bit : regTaint_ & ~bit;
}

inline bool
TaintTracker::uopSourceTaint(const Uop &uop, Addr eff_addr) const
{
    bool tainted = false;
    if (uop.isLoad()) {
        // Data taint plus pointer taint: a lookup indexed by a tainted
        // value yields a tainted value (the AES T-table pattern).
        tainted = memTainted(eff_addr, uop.memSize);
        if (uop.src1.valid())
            tainted = tainted || regTainted(uop.src1);
        if (uop.src2.valid())
            tainted = tainted || regTainted(uop.src2);
        return tainted;
    }
    if (uop.src1.valid())
        tainted = tainted || regTainted(uop.src1);
    if (!uop.immData && uop.src2.valid() && !uop.isMem())
        tainted = tainted || regTainted(uop.src2);
    if (uop.readsFlags)
        tainted = tainted || regTainted(flagsReg());
    return tainted;
}

inline void
TaintTracker::propagateDataflow(const Uop &uop, Addr eff_addr)
{
    if (uop.isStore()) {
        bool data_taint = uop.src3.valid() && regTainted(uop.src3);
        // Pointer taint flows into the stored location as well.
        if (uop.src1.valid())
            data_taint = data_taint || regTainted(uop.src1);
        if (uop.src2.valid())
            data_taint = data_taint || regTainted(uop.src2);
        taintMem(eff_addr, uop.memSize, data_taint);
        if (data_taint)
            ++propagations_;
        return;
    }

    if (uop.isBranch())
        return;  // no data result

    const bool tainted = uopSourceTaint(uop, eff_addr);
    // Immediate loads break dependences (limm overwrites dst).
    const bool clears = uop.op == MicroOpcode::LoadImm;
    if (uop.dst.valid())
        setRegTaint(uop.dst, clears ? false : tainted);
    if (uop.writesFlags)
        setRegTaint(flagsReg(), tainted);
    if (tainted)
        ++propagations_;
}

} // namespace csd

#endif // CSD_DIFT_TAINT_HH
