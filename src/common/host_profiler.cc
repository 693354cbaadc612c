#include "common/host_profiler.hh"

namespace csd
{

namespace
{

const char *const phaseNames[static_cast<unsigned>(HostPhase::NumPhases)] = {
    "translate", "flow_cache", "execute", "pipeline",
    "memory",    "stat_overhead", "channel_monitor", "other",
};

} // namespace

const char *
HostProfiler::phaseName(HostPhase phase)
{
    const auto idx = static_cast<unsigned>(phase);
    if (idx >= static_cast<unsigned>(HostPhase::NumPhases))
        return "?";
    return phaseNames[idx];
}

void
HostProfiler::writePhasesJson(std::ostream &os) const
{
    os << "{\"total\": " << totalSeconds();
    if (enabled_) {
        for (unsigned i = 0; i < static_cast<unsigned>(HostPhase::NumPhases);
             ++i) {
            os << ", \"" << phaseNames[i] << "\": " << seconds_[i];
        }
    }
    os << "}";
}

} // namespace csd
