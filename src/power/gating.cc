#include "power/gating.hh"

#include "common/logging.hh"

namespace csd
{

PowerGateController::PowerGateController(const GatingParams &params,
                                         const EnergyModel &energy)
    : params_(params), energy_(energy), window_(params.windowInstrs, 0),
      idleThreshold_(std::max(params.idleGateThreshold,
                              energy.breakEvenCycles())),
      stats_("gating")
{
    stats_.addCounter("gate_events", &gateEvents_,
                      "times the VPU was power-gated");
    stats_.addCounter("wake_events", &wakeEvents_,
                      "times the VPU was powered back on");
    stats_.addCounter("demand_wakes", &demandWakes_,
                      "wakes forced by a stalled vector instruction");
    stats_.addCounter("sse_powered_on", &sseCounts_[0],
                      "SSE instructions executed on the VPU");
    stats_.addCounter("sse_powering_on", &sseCounts_[1],
                      "SSE instructions devectorized during wake");
    stats_.addCounter("sse_power_gated", &sseCounts_[2],
                      "SSE instructions devectorized while gated");
    stats_.addDistribution("gated_stretch", &gatedStretch_,
                           "length of each gated period (cycles)");
    gatedFrac_ = [this] { return gatedFraction(); };
    stats_.addFormula("gated_fraction", &gatedFrac_,
                      "fraction of time the VPU spent power-gated");
}

void
PowerGateController::accountUntil(Tick now)
{
    if (now <= lastNow_)
        return;
    const Cycles delta = now - lastNow_;
    switch (state_) {
      case VpuState::On:         onCycles_ += delta; break;
      case VpuState::PoweringOn: wakingCycles_ += delta; break;
      case VpuState::Gated:      gatedCycles_ += delta; break;
    }
    lastNow_ = now;
}

void
PowerGateController::switchState(VpuState next, Tick now)
{
    accountUntil(now);
    if (next == state_)
        return;
    if (state_ == VpuState::Gated) {
        // Leaving the gated state closes one gated stretch.
        gatedStretch_.sample(static_cast<double>(now - stateSince_));
        CSD_TRACE(Gating, "vpu_gated", now, 'E');
    }
    if (next == VpuState::Gated) {
        ++gateEvents_;
        CSD_TRACE(Gating, "vpu_gated", now, 'B');
    }
    if (next == VpuState::PoweringOn) {
        ++wakeEvents_;
        wakeDoneAt_ = now + energy_.params().vpuWakeLatency;
        CSD_TRACE(Gating, "wake_start", now);
    }
    if (next == VpuState::On && state_ == VpuState::PoweringOn)
        CSD_TRACE(Gating, "wake_done", now);
    state_ = next;
    stateSince_ = now;
}

bool
PowerGateController::vpuUsable(Tick now)
{
    if (state_ == VpuState::PoweringOn && now >= wakeDoneAt_)
        switchState(VpuState::On, now);
    return state_ == VpuState::On;
}

PowerGateController::Directive
PowerGateController::onMacroOp(const MacroOp &op, Tick now,
                               unsigned vec_uops)
{
    accountUntil(now);
    Directive directive;

    // Maintain the vector-activity window.
    const unsigned weight = isVector(op.opcode) ? std::max(vec_uops, 1u)
                                                : 0u;
    if (!window_.empty()) {
        windowCount_ += weight;
        windowCount_ -= window_[windowPos_];
        window_[windowPos_] = weight;
        if (++windowPos_ == window_.size())
            windowPos_ = 0;
    }

    const bool uses_vpu = vec_uops > 0;

    switch (params_.policy) {
      case GatingPolicy::AlwaysOn:
        if (uses_vpu)
            ++sseCounts_[static_cast<unsigned>(SseExecClass::PoweredOn)];
        break;

      case GatingPolicy::ConventionalPG: {
        if (uses_vpu) {
            if (!vpuUsable(now)) {
                // Demand wake: the pipeline stalls while the VPU
                // powers on (conventional gating's cost).
                const Cycles stall = state_ == VpuState::PoweringOn
                    ? (wakeDoneAt_ > now ? wakeDoneAt_ - now : 0)
                    : energy_.params().vpuWakeLatency;
                if (state_ == VpuState::Gated)
                    switchState(VpuState::PoweringOn, now);
                ++demandWakes_;
                CSD_TRACE(Gating, "demand_wake", now, 'i', "stall",
                          static_cast<double>(stall));
                directive.stallCycles = stall;
                switchState(VpuState::On, now + stall);
                lastNow_ = now;  // caller advances time by stall
            }
            ++sseCounts_[static_cast<unsigned>(SseExecClass::PoweredOn)];
            lastVectorUse_ = now;
        } else if (state_ == VpuState::On &&
                   now - lastVectorUse_ > idleThreshold_) {
            switchState(VpuState::Gated, now);
        }
        break;
      }

      case GatingPolicy::CsdDevect: {
        // Unit-criticality decisions from the window counter.
        if (state_ == VpuState::On &&
            windowCount_ <= params_.lowWatermark) {
            switchState(VpuState::Gated, now);
        } else if (state_ == VpuState::Gated &&
                   windowCount_ >= params_.highWatermark) {
            switchState(VpuState::PoweringOn, now);
        }
        if (uses_vpu) {
            lastVectorUse_ = now;
            if (vpuUsable(now)) {
                ++sseCounts_[static_cast<unsigned>(
                    SseExecClass::PoweredOn)];
            } else {
                // Execute scalarized; no stall (paper §V: CSD hides the
                // power-on delay by continuing in scalar mode).
                directive.devectorize = true;
                ++sseCounts_[static_cast<unsigned>(
                    state_ == VpuState::PoweringOn
                        ? SseExecClass::PoweringOn
                        : SseExecClass::PowerGated)];
            }
        } else {
            vpuUsable(now);  // complete a pending wake
        }
        break;
      }
    }

    return directive;
}

void
PowerGateController::finalize(Tick now)
{
    vpuUsable(now);
    accountUntil(now);
}

double
PowerGateController::gatedFraction() const
{
    const double total = static_cast<double>(gatedCycles_) +
                         wakingCycles_ + onCycles_;
    return total == 0 ? 0.0 : static_cast<double>(gatedCycles_) / total;
}

} // namespace csd
