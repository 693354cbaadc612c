#include "memory/hierarchy.hh"

namespace csd
{

MemHierarchy::MemHierarchy(const MemHierarchyParams &params)
    : params_(params),
      l1i_(std::make_unique<Cache>(params.l1i)),
      l1d_(std::make_unique<Cache>(params.l1d)),
      l2_(std::make_unique<Cache>(params.l2)),
      llc_(std::make_unique<Cache>(params.llc)),
      stats_("mem")
{
    stats_.addCounter("dram_accesses", &dramAccesses_, "DRAM accesses");
    stats_.addDistribution("read_latency", &readLatency_,
                           "demand data-read latency (cycles)");
    l1dMissRate_ = [this] {
        return static_cast<double>(
                   l1d_->stats().counterValue("misses")) /
               static_cast<double>(
                   l1d_->stats().counterValue("accesses"));
    };
    stats_.addFormula("l1d_miss_rate", &l1dMissRate_,
                      "L1D demand miss fraction");
    stats_.addChild(&l1i_->stats());
    stats_.addChild(&l1d_->stats());
    stats_.addChild(&l2_->stats());
    stats_.addChild(&llc_->stats());
}

MemAccessResult
MemHierarchy::missThrough(Cache &l1, Addr addr, bool is_write,
                          MemAccessResult result)
{
    result.latency += l2_->hitLatency() + params_.extraL2Latency;
    if (l2_->access(addr, is_write)) {
        result.levelHit = 2;
        l1.fill(addr);
        return result;
    }

    result.latency += llc_->hitLatency();
    if (llc_->access(addr, is_write)) {
        result.levelHit = 3;
        l2_->fill(addr);
        l1.fill(addr);
        return result;
    }

    result.latency += params_.dramLatency;
    result.levelHit = 4;
    ++dramAccesses_;
    CSD_TRACE_NOW(Cache, "dram_access", 'i', "addr",
                  static_cast<double>(addr));
    llc_->fill(addr);
    l2_->fill(addr);
    l1.fill(addr);
    return result;
}

void
MemHierarchy::flush(Addr addr)
{
    CSD_TRACE_NOW(Cache, "clflush", 'i', "addr",
                  static_cast<double>(addr));
    l1i_->invalidate(addr);
    l1d_->invalidate(addr);
    l2_->invalidate(addr);
    llc_->invalidate(addr);
}

CacheSetMonitor &
MemHierarchy::armSetMonitor(const SetMonitorConfig &config)
{
    if (!setMonitor_) {
        setMonitor_ = std::make_unique<CacheSetMonitor>(config);
        l1i_->setMonitor(setMonitor_.get(),
                         CacheSetMonitor::Structure::L1I);
        l1d_->setMonitor(setMonitor_.get(),
                         CacheSetMonitor::Structure::L1D);
    }
    return *setMonitor_;
}

void
MemHierarchy::invalidateAll()
{
    l1i_->invalidateAll();
    l1d_->invalidateAll();
    l2_->invalidateAll();
    llc_->invalidateAll();
}

} // namespace csd
