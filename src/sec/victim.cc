#include "sec/victim.hh"

namespace csd
{

namespace
{

SimParams
cacheOnlyParams()
{
    SimParams params;
    params.mode = SimMode::CacheOnly;
    return params;
}

} // namespace

Victim::Victim(const Program &prog, const DefenseConfig &defense,
               const SimParams &params)
    : defense_(defense)
{
    SimParams defended = params;
    if (defense_.enabled)
        defended.mem.extraL2Latency = defense_.diftL2Penalty;
    sim_ = std::make_unique<Simulation>(prog, defended);

    if (defense_.enabled) {
        msrs_ = std::make_unique<MsrFile>();
        taint_ = std::make_unique<TaintTracker>();
        csd_ = std::make_unique<ContextSensitiveDecoder>(*msrs_,
                                                         taint_.get());
        csd_->arm(defense_);
        sim_->setTaintTracker(taint_.get());
        sim_->setCsd(csd_.get());
    }
}

Victim::Victim(const Program &prog, const DefenseConfig &defense)
    : Victim(prog, defense, cacheOnlyParams())
{
}

CacheSetMonitor &
Victim::armChannelMonitor(const SetMonitorConfig &config)
{
    CacheSetMonitor &monitor = sim_->mem().armSetMonitor(config);
    sim_->frontend().uopCache().setMonitor(&monitor);
    return monitor;
}

void
Victim::invoke()
{
    CacheSetMonitor::ScopedActor actor(sim_->mem().setMonitor(),
                                       MonitorActor::Victim);
    sim_->restart();
    sim_->runToHalt();
}

bool
Victim::invokeSlice(std::uint64_t n)
{
    CacheSetMonitor::ScopedActor actor(sim_->mem().setMonitor(),
                                       MonitorActor::Victim);
    if (sim_->halted())
        sim_->restart();
    sim_->run(n);
    return !sim_->halted();
}

} // namespace csd
