#include "dift/taint.hh"

#include "common/trace.hh"

namespace csd
{

TaintTracker::TaintTracker() : stats_("dift")
{
    stats_.addCounter("tainted_loads", &taintedLoads_,
                      "loads flagged as key-dependent at decode");
    stats_.addCounter("tainted_branches", &taintedBranches_,
                      "branches flagged as key-dependent at decode");
    stats_.addCounter("propagations", &propagations_,
                      "uops through which taint propagated");
}

void
TaintTracker::addTaintSource(const AddrRange &range)
{
    sources_.push_back(range);
    // Pre-taint the source bytes themselves.
    taintMem(range.start, static_cast<unsigned>(range.size()), true);
}

void
TaintTracker::reset()
{
    sources_.clear();
    regTaint_ = 0;
    shadow_.clear();
    lastPage_ = invalidAddr;
    lastPageBits_ = nullptr;
}

TaintTracker::ShadowPage *
TaintTracker::findPage(Addr granule) const
{
    const Addr page = granule >> (pageShift - granuleShift);
    if (page != lastPage_) {
        const auto it = shadow_.find(page);
        if (it == shadow_.end())
            return nullptr;
        lastPage_ = page;
        lastPageBits_ = const_cast<ShadowPage *>(&it->second);
    }
    return lastPageBits_;
}

void
TaintTracker::taintMem(Addr addr, unsigned size, bool tainted)
{
    const Addr first = addr >> granuleShift;
    const Addr last = (addr + (size ? size - 1 : 0)) >> granuleShift;
    for (Addr granule = first; granule <= last; ++granule) {
        ShadowPage *bits = findPage(granule);
        if (!bits) {
            if (!tainted)
                continue;  // an untouched page is already clean
            bits = &shadow_[granule >> (pageShift - granuleShift)];
            lastPage_ = granule >> (pageShift - granuleShift);
            lastPageBits_ = bits;
        }
        const unsigned bit =
            static_cast<unsigned>(granule & (granulesPerPage - 1));
        const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
        if (tainted)
            (*bits)[bit >> 6] |= mask;
        else
            (*bits)[bit >> 6] &= ~mask;
    }
}

bool
TaintTracker::memTainted(Addr addr, unsigned size) const
{
    const Addr first = addr >> granuleShift;
    const Addr last = (addr + (size ? size - 1 : 0)) >> granuleShift;
    for (Addr granule = first; granule <= last; ++granule) {
        const ShadowPage *bits = findPage(granule);
        if (!bits)
            continue;
        const unsigned bit =
            static_cast<unsigned>(granule & (granulesPerPage - 1));
        if (((*bits)[bit >> 6] >> (bit & 63)) & 1)
            return true;
    }
    for (const AddrRange &range : sources_)
        if (range.overlaps(AddrRange(addr, addr + (size ? size : 1))))
            return true;
    return false;
}

bool
TaintTracker::taintedLoadOrBranch(const MacroOp &op) const
{
    if (op.hasMem && (isMemRead(op) || isMemWrite(op))) {
        const bool base_taint =
            op.mem.hasBase() && regTainted(intReg(op.mem.base));
        const bool index_taint =
            op.mem.hasIndex() && regTainted(intReg(op.mem.index));
        // A store whose data register carries taint is equally
        // key-dependent (the DIFT intercepts the tainted operand).
        const bool data_taint = op.opcode == MacroOpcode::Store &&
                                op.src1 != Gpr::Invalid &&
                                regTainted(intReg(op.src1));
        return base_taint || index_taint || data_taint;
    }
    if (op.opcode == MacroOpcode::Jcc && op.cond != Cond::Always)
        return regTainted(flagsReg());
    if (op.opcode == MacroOpcode::JmpInd)
        return regTainted(intReg(op.src1));
    return false;
}

void
TaintTracker::noteTaintedUse(const MacroOp &op)
{
    if (op.hasMem && (isMemRead(op) || isMemWrite(op))) {
        if (isMemRead(op))
            ++taintedLoads_;
        CSD_TRACE_NOW(Dift, "tainted_load", 'i', "pc",
                      static_cast<double>(op.pc));
        return;
    }
    ++taintedBranches_;
    CSD_TRACE_NOW(Dift, "tainted_branch", 'i', "pc",
                  static_cast<double>(op.pc));
}

} // namespace csd
