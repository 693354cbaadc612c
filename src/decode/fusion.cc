#include "decode/fusion.hh"

namespace csd
{

void
applyFusionConfig(UopFlow &flow, const FrontEndParams &params)
{
    if (params.microFusion)
        return;
    for (Uop &uop : flow.uops) {
        uop.fusedLeader = false;
        uop.fusedFollower = false;
    }
}

unsigned
applySpTracking(UopFlow &flow, const FrontEndParams &params)
{
    if (!params.spTracker)
        return 0;
    unsigned eliminated = 0;
    const RegId rsp = intReg(Gpr::Rsp);
    for (Uop &uop : flow.uops) {
        const bool rsp_adjust =
            (uop.op == MicroOpcode::Add || uop.op == MicroOpcode::Sub) &&
            uop.dst == rsp && uop.src1 == rsp && uop.immData &&
            !uop.writesFlags;
        if (rsp_adjust && !uop.eliminated) {
            uop.eliminated = true;
            ++eliminated;
        }
    }
    return eliminated;
}

std::uint64_t
deliveredSlots(const UopFlow &flow)
{
    std::uint64_t slots = 0;
    for (const Uop &uop : flow.uops)
        if (!uop.eliminated && !uop.fusedFollower)
            ++slots;
    if (flow.loop && flow.loop->tripCount > 1) {
        std::uint64_t body = 0;
        for (unsigned i = flow.loop->bodyStart; i < flow.loop->bodyEnd; ++i) {
            const Uop &uop = flow.uops[i];
            if (!uop.eliminated && !uop.fusedFollower)
                ++body;
        }
        slots += body * (flow.loop->tripCount - 1);
    }
    if (flow.loop && flow.loop->tripCount == 0) {
        // Body never executes; remove its static slots.
        for (unsigned i = flow.loop->bodyStart; i < flow.loop->bodyEnd; ++i) {
            const Uop &uop = flow.uops[i];
            if (!uop.eliminated && !uop.fusedFollower)
                --slots;
        }
    }
    return slots;
}

std::uint64_t
deliveredUops(const UopFlow &flow)
{
    std::uint64_t count = 0;
    for (const Uop &uop : flow.uops)
        if (!uop.eliminated)
            ++count;
    if (flow.loop && flow.loop->tripCount > 1) {
        std::uint64_t body = 0;
        for (unsigned i = flow.loop->bodyStart; i < flow.loop->bodyEnd; ++i)
            if (!flow.uops[i].eliminated)
                ++body;
        count += body * (flow.loop->tripCount - 1);
    }
    if (flow.loop && flow.loop->tripCount == 0) {
        for (unsigned i = flow.loop->bodyStart; i < flow.loop->bodyEnd; ++i)
            if (!flow.uops[i].eliminated)
                --count;
    }
    return count;
}

bool
uopCacheEligible(const UopFlow &flow, const FrontEndParams &params,
                 std::uint64_t delivered_slots)
{
    return !flow.fromMsrom && !flow.loop && flow.cacheable &&
           delivered_slots <= params.uopCacheSlotsPerWay;
}

} // namespace csd
