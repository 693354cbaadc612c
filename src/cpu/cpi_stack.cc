#include "cpu/cpi_stack.hh"

#include <algorithm>

namespace csd
{

const char *
cpiBucketName(CpiBucket bucket)
{
    switch (bucket) {
      case CpiBucket::Base:           return "base";
      case CpiBucket::FrontendL1i:    return "frontend_l1i";
      case CpiBucket::FrontendDecode: return "frontend_decode";
      case CpiBucket::BackendRob:     return "backend_rob";
      case CpiBucket::BackendDep:     return "backend_dep";
      case CpiBucket::BackendPort:    return "backend_port";
      case CpiBucket::BackendCommit:  return "backend_commit";
      case CpiBucket::MemL1d:         return "mem_l1d";
      case CpiBucket::MemL2:          return "mem_l2";
      case CpiBucket::MemLlc:         return "mem_llc";
      case CpiBucket::MemDram:        return "mem_dram";
      case CpiBucket::CsdDecoy:       return "csd_decoy";
      case CpiBucket::CsdDevect:      return "csd_devect";
      case CpiBucket::VpuWake:        return "vpu_wake";
      case CpiBucket::NumBuckets:     break;
    }
    return "?";
}

CpiStack::CpiStack(Tick start_cycle, std::size_t slot_count)
    : startCycle_(start_cycle), accountedUpTo_(start_cycle),
      rows_(slot_count)
{
}

void
CpiStack::accountExternal(Tick new_total, CpiBucket bucket)
{
    if (new_total <= accountedUpTo_)
        return;
    buckets_[static_cast<unsigned>(bucket)] += new_total - accountedUpTo_;
    accountedUpTo_ = new_total;
}

Cycles
CpiStack::totalBucketCycles() const
{
    Cycles total = 0;
    for (Cycles cycles : buckets_)
        total += cycles;
    return total;
}

std::unordered_map<Addr, CpiStack::PcProfile>
CpiStack::pcProfiles() const
{
    std::unordered_map<Addr, PcProfile> profiles;
    for (const Row &row : rows_)
        if (row.pc != invalidAddr)
            profiles.emplace(row.pc, row.profile);
    return profiles;
}

std::vector<const CpiStack::Row *>
CpiStack::hottestRows(std::size_t max_pcs) const
{
    std::vector<const Row *> rows;
    for (const Row &row : rows_)
        if (row.pc != invalidAddr)
            rows.push_back(&row);
    std::sort(rows.begin(), rows.end(), [](const Row *a, const Row *b) {
        const Cycles ca = a->profile.cycles;
        const Cycles cb = b->profile.cycles;
        return ca != cb ? ca > cb : a->pc < b->pc;
    });
    if (max_pcs != 0 && rows.size() > max_pcs)
        rows.resize(max_pcs);
    return rows;
}

std::vector<Addr>
CpiStack::hottestPcs(std::size_t max_pcs) const
{
    std::vector<Addr> pcs;
    for (const Row *row : hottestRows(max_pcs))
        pcs.push_back(row->pc);
    return pcs;
}

void
CpiStack::dumpJson(std::ostream &os, std::size_t max_pcs) const
{
    os << "{\n  \"total_cycles\": " << accounted() << ",\n  \"buckets\": {";
    for (unsigned i = 0; i < numCpiBuckets; ++i) {
        os << (i ? ", " : "") << '"'
           << cpiBucketName(static_cast<CpiBucket>(i)) << "\": "
           << buckets_[i];
    }
    os << "},\n  \"pcs\": [\n";
    const auto rows = hottestRows(max_pcs);
    for (std::size_t n = 0; n < rows.size(); ++n) {
        const PcProfile &profile = rows[n]->profile;
        os << "    {\"pc\": " << rows[n]->pc << ", \"uops\": " << profile.uops
           << ", \"cycles\": " << profile.cycles
           << ", \"taint_hits\": " << profile.taintHits
           << ", \"decoy_uops\": " << profile.decoyUops
           << ", \"buckets\": {";
        for (unsigned i = 0; i < numCpiBuckets; ++i) {
            os << (i ? ", " : "") << '"'
               << cpiBucketName(static_cast<CpiBucket>(i)) << "\": "
               << profile.buckets[i];
        }
        os << "}}" << (n + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

void
CpiStack::dumpCsv(std::ostream &os, std::size_t max_pcs) const
{
    os << "pc,uops,cycles,taint_hits,decoy_uops";
    for (unsigned i = 0; i < numCpiBuckets; ++i)
        os << ',' << cpiBucketName(static_cast<CpiBucket>(i));
    os << "\n";
    for (const Row *row : hottestRows(max_pcs)) {
        const PcProfile &profile = row->profile;
        os << row->pc << ',' << profile.uops << ',' << profile.cycles << ','
           << profile.taintHits << ',' << profile.decoyUops;
        for (unsigned i = 0; i < numCpiBuckets; ++i)
            os << ',' << profile.buckets[i];
        os << "\n";
    }
}

} // namespace csd
