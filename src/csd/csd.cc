#include "csd/csd.hh"

#include <iterator>

#include "csd/devect.hh"

namespace csd
{

ContextSensitiveDecoder::ContextSensitiveDecoder(MsrFile &msrs,
                                                 TaintTracker *taint)
    : msrs_(msrs), taint_(taint), stats_("csd")
{
    msrs_.setWriteHook([this](MsrAddr addr, std::uint64_t value) {
        onMsrWrite(addr, value);
    });
    watchdog_.setCallback([this]() {
        ++watchdogFires_;
        CSD_TRACE(Csd, "watchdog_fire", now_);
        retriggerStealth();
    });

    stats_.addCounter("translations", &translations_,
                      "macro-ops translated");
    stats_.addCounter("stealth_flows", &stealthFlows_,
                      "flows with injected decoys");
    stats_.addCounter("decoy_uops", &decoyUops_,
                      "decoy micro-ops injected (expanded)");
    stats_.addCounter("devect_flows", &devectFlows_,
                      "vector flows scalarized");
    stats_.addCounter("mcu_flows", &mcuFlows_,
                      "flows using MCU custom translations");
    stats_.addCounter("stealth_triggers", &stealthTriggers_,
                      "stealth-mode (re)triggers");
    stats_.addCounter("watchdog_fires", &watchdogFires_,
                      "watchdog-driven re-triggers");
    stats_.addCounter("noise_uops", &noiseUops_,
                      "timing-noise NOP uops injected");
    stats_.addDistribution("decoys_per_flow", &decoysPerFlow_,
                           "decoy uops injected per stealth flow");
    stealthFlowRate_ = [this] {
        return static_cast<double>(stealthFlows_.value()) /
               static_cast<double>(translations_.value());
    };
    stats_.addFormula("stealth_flow_rate", &stealthFlowRate_,
                      "fraction of translations carrying decoys");
    stats_.addChild(&mcu_.stats());
}

void
ContextSensitiveDecoder::arm(const DefenseConfig &defense)
{
    if (!defense.enabled)
        return;
    if (taint_) {
        for (const AddrRange &source : defense.taintSources)
            if (source.valid())
                taint_->addTaintSource(source);
    }
    msrs_.setWatchdogPeriod(defense.watchdogPeriod);
    if (defense.decoyDRange.valid())
        msrs_.setDecoyDRange(0, defense.decoyDRange);
    if (defense.decoyIRange.valid())
        msrs_.setDecoyIRange(0, defense.decoyIRange);
    msrs_.setControl(ctrlStealthEnable | ctrlDiftTrigger);
}

void
ContextSensitiveDecoder::onMsrWrite(MsrAddr addr, std::uint64_t value)
{
    // Register tracking: a control write enabling stealth, or an update
    // to the decoy range registers while enabled, triggers an immediate
    // mode switch (internal-range snapshot).
    (void)value;
    // Any MSR write may change what a translation produces (control
    // bits, decoy ranges, tainted-PC scratchpads): stale memoized flows
    // must be re-translated.
    ++epoch_;
    switch (addr) {
      case MsrAddr::CsdControl:
        if (stealthArmed())
            retriggerStealth();
        else {
            pending_.clear();
            watchdog_.disarm();
        }
        break;
      default: {
        const auto raw = static_cast<std::uint32_t>(addr);
        const auto ibase =
            static_cast<std::uint32_t>(MsrAddr::DecoyIRangeBase);
        const auto dbase =
            static_cast<std::uint32_t>(MsrAddr::DecoyDRangeBase);
        const bool range_write =
            (raw >= ibase && raw < ibase + 2 * numDecoyRanges) ||
            (raw >= dbase && raw < dbase + 2 * numDecoyRanges);
        if (range_write && stealthArmed())
            retriggerStealth();
        break;
      }
    }
}

void
ContextSensitiveDecoder::retriggerStealth()
{
    ++retriggers_;
    pending_.clear();
    for (const AddrRange &range : msrs_.decoyIRanges())
        if (range.valid())
            pending_.push_back(PendingRange{range, true});
    for (const AddrRange &range : msrs_.decoyDRanges())
        if (range.valid())
            pending_.push_back(PendingRange{range, false});
    if (!pending_.empty()) {
        ++stealthTriggers_;
        CSD_TRACE(Csd, "stealth_trigger", now_, 'i', "ranges",
                  static_cast<double>(pending_.size()));
    }
}


void
ContextSensitiveDecoder::setDevectorize(bool on)
{
    if (devect_ != on)
        ++devectToggles_;
    devect_ = on;
}

ContextSensitiveDecoder::TaintTrigger
ContextSensitiveDecoder::taintTrigger(const MacroOp &op) const
{
    const std::uint64_t ctrl = msrs_.control();
    if (ctrl & ctrlPcRangeTrigger) {
        for (Addr pc : msrs_.taintedPcs())
            if (pc == op.pc)
                return TaintTrigger::PcRange;
    }
    if ((ctrl & ctrlDiftTrigger) && taint_ &&
        taint_->taintedLoadOrBranch(op))
        return TaintTrigger::Dift;
    return TaintTrigger::None;
}

UopFlow
ContextSensitiveDecoder::applyMcu(const MacroOp &op, UopFlow flow)
{
    const CustomTranslation *xlat = mcu_.lookup(op.opcode);
    if (!xlat)
        return flow;
    ++mcuFlows_;
    lastCtx_ = ctxMcu;
    UopVec custom = xlat->uops;
    for (Uop &uop : custom) {
        uop.macroPc = op.pc;
    }
    switch (xlat->placement) {
      case McuPlacement::Replace:
        flow.uops = std::move(custom);
        flow.loop.reset();
        break;
      case McuPlacement::Prepend:
        flow.uops.insert(flow.uops.begin(), custom.begin(), custom.end());
        if (flow.loop) {
            flow.loop->bodyStart += custom.size();
            flow.loop->bodyEnd += custom.size();
        }
        break;
      case McuPlacement::Append: {
        // Keep a trailing branch the last uop of the flow.
        std::size_t insert_at = flow.uops.size();
        if (!flow.uops.empty() && flow.uops.back().isBranch())
            insert_at = flow.uops.size() - 1;
        flow.uops.insert(flow.uops.begin() +
                             static_cast<std::ptrdiff_t>(insert_at),
                         custom.begin(), custom.end());
        break;
      }
    }
    if (flow.uops.size() > 4)
        flow.fromMsrom = true;
    return flow;
}

void
ContextSensitiveDecoder::applyTimingNoise(const MacroOp &op,
                                          UopFlow &flow)
{
    // Galois LFSR: cheap, key-independent pseudo-randomness (the chip
    // would use a hardware entropy source).
    noiseLfsr_ = (noiseLfsr_ >> 1) ^
                 (-(noiseLfsr_ & 1) & 0xd800000000000000ull);
    const unsigned nops = static_cast<unsigned>(
        noiseLfsr_ % (noiseMaxNops + 1));
    if (nops == 0)
        return;

    std::size_t insert_at = flow.uops.size();
    if (!flow.uops.empty() && flow.uops.back().isBranch())
        insert_at = flow.uops.size() - 1;
    for (unsigned i = 0; i < nops; ++i) {
        Uop nop;
        nop.op = MicroOpcode::Nop;
        nop.decoy = true;
        nop.macroPc = op.pc;
        flow.uops.insert(flow.uops.begin() +
                             static_cast<std::ptrdiff_t>(insert_at),
                         nop);
        if (flow.loop && flow.loop->bodyStart >= insert_at) {
            ++flow.loop->bodyStart;
            ++flow.loop->bodyEnd;
        }
    }
    // Each dynamic instance is different: never cache it.
    flow.cacheable = false;
    noiseUops_ += nops;
    lastCtx_ = ctxNoise;
}

UopFlow
ContextSensitiveDecoder::translate(const MacroOp &op)
{
    ++translations_;
    lastCtx_ = ctxNative;

    // Selective devectorization has priority for VPU arithmetic.
    if (devect_) {
        if (auto scalar = devectorize(op)) {
            ++devectFlows_;
            lastCtx_ = ctxDevect;
            traceContextSwitch();
            return *std::move(scalar);
        }
    }

    UopFlow flow = translateNative(op);

    if (mcuMode_)
        flow = applyMcu(op, flow);

    // Stealth-mode decoy injection for tainted loads/stores/branches.
    const TaintTrigger trigger = stealthArmed() && !pending_.empty()
        ? taintTrigger(op)
        : TaintTrigger::None;
    if (trigger != TaintTrigger::None) {
        if (trigger == TaintTrigger::Dift)
            taint_->noteTaintedUse(op);
        const PendingRange next = pending_.front();
        if (injectDecoys(flow, next.range, next.isInstr, decoyStyle)) {
            pending_.erase(pending_.begin());
            ++stealthFlows_;
            const std::uint64_t injected = countDecoyUops(flow);
            decoyUops_ += injected;
            decoysPerFlow_.sample(static_cast<double>(injected));
            CSD_TRACE(Decoy, next.isInstr ? "inject_irange"
                                          : "inject_drange",
                      now_, 'i', "uops", static_cast<double>(injected));
            lastCtx_ = ctxStealth;
            if (flow.uops.size() > 4 || flow.loop)
                flow.fromMsrom = true;
            if (pending_.empty()) {
                // All ranges emptied: stealth turns itself off and the
                // watchdog re-triggers it before the attacker's next
                // probe interval (paper §IV-B).
                watchdog_.arm(now_, msrs_.watchdogPeriod());
            }
        }
    }

    if (msrs_.control() & ctrlTimingNoise)
        applyTimingNoise(op, flow);

    traceContextSwitch();
    return flow;
}

void
ContextSensitiveDecoder::traceContextSwitch()
{
    if (!traceEnabled(TraceFlag::Csd) || lastCtx_ == tracedCtx_)
        return;
    static const char *const names[] = {
        "ctx_native", "ctx_stealth", "ctx_devect", "ctx_mcu", "ctx_noise",
    };
    const char *name = lastCtx_ < std::size(names) ? names[lastCtx_]
                                                   : "ctx_?";
    CSD_TRACE(Csd, name, now_, 'i', "from",
              static_cast<double>(tracedCtx_));
    tracedCtx_ = lastCtx_;
}

} // namespace csd
