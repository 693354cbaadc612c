#include "cpu/backend.hh"

#include "common/logging.hh"

namespace csd
{

BackEnd::BackEnd(const BackEndParams &params, MemHierarchy *mem)
    : params_(params), mem_(mem), stats_("backend")
{
    robRing_.assign(params_.robEntries, 0);
    stats_.addCounter("uops_executed", &uopsExecuted_,
                      "uops issued to functional units");
    stats_.addCounter("loads", &loadsExecuted_, "load uops executed");
    stats_.addCounter("stores", &storesExecuted_, "store uops executed");
    stats_.addCounter("vpu_uops", &vpuUops_, "uops executed on the VPU");
    stats_.addCounter("port_conflict_cycles", &portConflictCycles_,
                      "cycles lost waiting for an issue port");
}

} // namespace csd
