#include "sim/simulation.hh"

#include <limits>
#include <mutex>

#include "common/env.hh"
#include "common/logging.hh"
#include "csd/csd.hh"
#include "csd/devect.hh"
#include "sim/detailed.hh"
#include "sim/fastpath.hh"

namespace csd
{

namespace
{

/**
 * Bind @p ctx to the constructing thread from inside the member-init
 * list, so components built after obs_ already record into it.
 */
ObservabilityContext *
bindObs(ObservabilityContext *ctx)
{
    ctx->bindToThread();
    return ctx;
}

} // namespace

Simulation::Simulation(const Program &prog, const SimParams &params)
    : Simulation(prog, params, nullptr)
{
}

Simulation::Simulation(const Program &prog, const SimParams &params,
                       MemHierarchy *shared_mem)
    : prog_(prog),
      params_(params),
      ownedObs_(params.obs ? nullptr
                           : std::make_unique<ObservabilityContext>()),
      obs_(bindObs(params.obs ? params.obs : ownedObs_.get())),
      executor_(state_),
      ownedMem_(shared_mem ? nullptr
                           : std::make_unique<MemHierarchy>(params.mem)),
      mem_(shared_mem ? shared_mem : ownedMem_.get()),
      frontend_(std::make_unique<FrontEnd>(params.frontend, mem_)),
      backend_(std::make_unique<BackEnd>(params.backend, mem_)),
      bpred_(std::make_unique<BranchPredictor>(params.bpred)),
      translator_(&nativeTranslator_),
      energyModel_(params.energy),
      stats_("sim")
{
    state_.loadProgram(prog);
    idqRing_.assign(28, 0);

    // Predecoded-flow cache: on unless CSD_FLOW_CACHE=0 (host-side
    // only; simulated timing/stats are identical either way). One
    // slot per static instruction, indexed by position in code().
    const Knobs &knobs = Knobs::process();
    flowCache_.reset(prog.code().size());
    flowCacheEnabled_ = knobs.flag(Knob::FlowCache);

    // Superblock tier (host-side; both fidelities, see run()).
    fastpath_ = std::make_unique<FastPath>(*this);
    fastpath_->reset(prog.code().size());
    superblockEnabled_ = knobs.flag(Knob::Superblock);

    stats_.addCounter("instructions", &instructions_,
                      "macro-ops committed");
    stats_.addCounter("slots_delivered", &slotsDelivered_,
                      "fused-domain slots sent to the back end");
    stats_.addCounter("decoy_uops_executed", &decoyUopsExecuted_,
                      "decoy uops that flowed through the pipeline");
    stats_.addCounter("devect_uops_executed", &devectUopsExecuted_,
                      "uops from devectorized flows");
    stats_.addCounter("macro_fused_pairs", &macroFusedPairs_,
                      "cmp/test+jcc pairs macro-fused");
    stats_.addCounter("vpu_wake_stalls", &vpuStalls_,
                      "cycles stalled on conventional demand wakes");
    stats_.addDistribution("flow_len", &flowLen_,
                           "dynamic uops per macro-op flow");
    ipc_ = [this] {
        return static_cast<double>(instructions_.value()) /
               static_cast<double>(cycles_);
    };
    stats_.addFormula("ipc", &ipc_, "committed macro-ops per cycle");
    uopsPerInstr_ = [this] {
        return static_cast<double>(backend_->uopsExecuted()) /
               static_cast<double>(instructions_.value());
    };
    stats_.addFormula("uops_per_instr", &uopsPerInstr_,
                      "executed uops per committed macro-op");
    l1dMpki_ = [this] {
        return 1000.0 *
               static_cast<double>(
                   mem_->l1d().stats().counterValue("misses")) /
               static_cast<double>(instructions_.value());
    };
    stats_.addFormula("l1d_mpki", &l1dMpki_,
                      "L1D misses per kilo-instruction");
    decoyFrac_ = [this] {
        return static_cast<double>(decoyUopsExecuted_.value()) /
               static_cast<double>(slotsDelivered_.value());
    };
    stats_.addFormula("decoy_frac", &decoyFrac_,
                      "decoy uops per delivered slot");
    stats_.addChild(&frontend_->stats());
    stats_.addChild(&backend_->stats());
    stats_.addChild(&bpred_->stats());
    stats_.addChild(&mem_->stats());

    // Instruction-grain observability, armed through the context
    // (configured from CSD_CPI_STACK and CSD_LIFECYCLE*) so existing
    // harnesses grow traces without code changes.
    if (params_.mode == SimMode::Detailed) {
        if (obs_->cpiStack())
            enableCpiStack();
        const ObservabilityContext::LifecycleConfig &lc =
            obs_->lifecycleConfig();
        if (lc.enabled) {
            enableLifecycle(lc.capacity);
            // "%c" names a per-context file (parallel simulations).
            lifecycleExportPath_ =
                expandContextPath(lc.exportPath, obs_->id());
            if (!lifecycleExportPath_.empty()) {
                // Abnormal-exit safety: the context flushes this ring
                // from atexit/SIGINT/SIGTERM, so an interrupted run
                // still leaves a loadable (truncated) pipeline trace.
                lifecycleFlushToken_ = obs_->addFlushHook([this] {
                    if (lifecycle_)
                        lifecycle_->exportFile(lifecycleExportPath_);
                });
            }
        }
    }

    // Channel telemetry (memory/set_monitor.hh), armed through the
    // context (CSD_CHANNEL_MONITOR / CSD_CHANNEL_HEATMAP) in any
    // fidelity mode — the Fig. 7 attacks run cache-only.
    const ObservabilityContext::ChannelMonitorConfig &cm =
        obs_->channelMonitorConfig();
    if (cm.enabled) {
        SetMonitorConfig monitor_config;
        monitor_config.heatmapInterval = cm.heatmapInterval;
        CacheSetMonitor &monitor = mem_->armSetMonitor(monitor_config);
        frontend_->uopCache().setMonitor(&monitor);
        channelExportPath_ = expandContextPath(cm.exportPath, obs_->id());
        if (!channelExportPath_.empty()) {
            channelFlushToken_ = obs_->addFlushHook([this] {
                if (const CacheSetMonitor *mon = mem_->setMonitor())
                    mon->exportFiles(channelExportPath_);
            });
        }
    }
}

Simulation::~Simulation()
{
    if (lifecycleFlushToken_ != 0)
        obs_->removeFlushHook(lifecycleFlushToken_);
    if (lifecycle_ && !lifecycleExportPath_.empty()) {
        std::lock_guard<std::mutex> lock(ObservabilityContext::exportLock());
        lifecycle_->exportFile(lifecycleExportPath_);
    }
    if (channelFlushToken_ != 0)
        obs_->removeFlushHook(channelFlushToken_);
    if (!channelExportPath_.empty() && mem_->setMonitor()) {
        profiled(HostPhase::ChannelMonitor, [&] {
            std::lock_guard<std::mutex> lock(
                ObservabilityContext::exportLock());
            mem_->setMonitor()->exportFiles(channelExportPath_);
        });
    }
}

CpiStack &
Simulation::enableCpiStack()
{
    if (params_.mode != SimMode::Detailed)
        csd_fatal("Simulation: CPI-stack accounting requires detailed "
                  "mode");
    if (!cpiStack_) {
        cpiStack_ = std::make_unique<CpiStack>(cycles_, prog_.code().size());
        feL1iSeen_ = frontend_->fetchStallCycles();
        feDecodeSeen_ = frontend_->decodeBwCycles();
    }
    return *cpiStack_;
}

LifecycleTracer &
Simulation::enableLifecycle(std::size_t capacity)
{
    if (params_.mode != SimMode::Detailed)
        csd_fatal("Simulation: lifecycle tracing requires detailed mode");
    if (!lifecycle_)
        lifecycle_ = std::make_unique<LifecycleTracer>(capacity);
    else
        lifecycle_->setCapacity(capacity);
    return *lifecycle_;
}

void
Simulation::setTranslator(Translator *translator)
{
    translator_ = translator ? translator : &nativeTranslator_;
    // Cached flows belong to the previous translator: drop them, and
    // the superblocks compiled from them (a new translator may reuse
    // epoch numbers, so the entry-time epoch compare alone can't tell
    // its flows from the old ones).
    flowCache_.clear();
    fastpath_->clear();
}

void
Simulation::setFlowCacheEnabled(bool on)
{
    flowCacheEnabled_ = on;
    if (!on) {
        flowCache_.clear();
        // Superblocks point into the flow cache's entries; with the
        // flows destroyed under an unchanged epoch they must go too.
        fastpath_->clear();
    }
}

void
Simulation::setSuperblockEnabled(bool on)
{
    superblockEnabled_ = on;
    if (!on)
        fastpath_->clear();
}

void
Simulation::setSuperblockThreshold(std::uint32_t threshold)
{
    fastpath_->setThreshold(threshold);
}

/**
 * Translate @p op, serving the flow from the predecoded-flow cache
 * when the translator vouches that memoization is faithful. Returns a
 * reference valid until the next step (cached entries are stable
 * across steps; uncached flows live in scratchFlow_).
 */
const UopFlow &
Simulation::translatedFlow(const MacroOp &op)
{
    // Cache slot = the op's position in the program's instruction
    // stream (step() always fetches through Program::at, which hands
    // out pointers into code()).
    const std::size_t slot =
        static_cast<std::size_t>(&op - prog_.code().data());
    if (flowCacheEnabled_ && slot < flowCache_.slots() &&
        translator_->translationStable(op)) {
        const std::uint64_t epoch = translator_->translationEpoch();
        const UopFlow *cached =
            profiled(HostPhase::FlowCache, [&]() -> const UopFlow * {
                const FlowCache::Entry *hit = flowCache_.lookup(
                    slot, epoch, translator_->stableContext(op));
                if (!hit)
                    return nullptr;
                translator_->noteCachedTranslation(op, hit->flow,
                                                   hit->ctx);
                curCtx_ = hit->ctx;
                curTiming_ = hit->timing.data();
                return &hit->flow;
            });
        if (cached)
            return *cached;
        return profiled(HostPhase::Translate, [&]() -> const UopFlow & {
            UopFlow flow = translator_->translate(op);
            applyFusionConfig(flow, params_.frontend);
            applySpTracking(flow, params_.frontend);
            curCtx_ = translator_->contextId();
            if (flow.cacheable) {
                const FlowCache::Entry &entry = flowCache_.insert(
                    slot, epoch, curCtx_, std::move(flow));
                curTiming_ = entry.timing.data();
                return entry.flow;
            }
            curTiming_ = nullptr;
            scratchFlow_ = std::move(flow);
            return scratchFlow_;
        });
    }
    ++flowCache_.bypasses;
    curTiming_ = nullptr;
    return profiled(HostPhase::Translate, [&]() -> const UopFlow & {
        scratchFlow_ = translator_->translate(op);
        applyFusionConfig(scratchFlow_, params_.frontend);
        applySpTracking(scratchFlow_, params_.frontend);
        curCtx_ = translator_->contextId();
        return scratchFlow_;
    });
}

void
Simulation::setCsd(ContextSensitiveDecoder *csd)
{
    csd_ = csd;
    setTranslator(csd);
}

void
Simulation::setTaintTracker(TaintTracker *taint)
{
    taint_ = taint;
}

void
Simulation::setPowerController(PowerGateController *power)
{
    power_ = power;
}

std::uint64_t
Simulation::uopsExecuted() const
{
    return backend_->uopsExecuted();
}

bool
Simulation::step()
{
    if (state_.halted)
        return false;
    if (instructions_.value() >= params_.maxInstructions)
        return false;

    const MacroOp *op = prog_.at(state_.pc);
    if (!op)
        csd_fatal("Simulation: no instruction at pc 0x", std::hex,
                  state_.pc);

    // Route this thread's trace/stats/log fast paths through our
    // context (cheap TLS compare; only rebinds when a worker pool
    // moved us to another thread or ran a different simulation here).
    if (ObservabilityContext::currentOrNull() != obs_)
        obs_->bindToThread();

    // Keep clock-less components' trace events roughly on the timeline.
    if (traceAnyEnabled())
        obs_->tracer().setTimeHint(cycles_);

    // Power-gating decision (unit-criticality predictor input).
    if (power_) {
        const unsigned vec_uops =
            devectorizable(op->opcode) ? 1u : 0u;
        const auto directive = power_->onMacroOp(*op, cycles_, vec_uops);
        if (csd_)
            csd_->setDevectorize(directive.devectorize);
        if (directive.stallCycles > 0) {
            // Conventional PG: pipeline stalls for the demand wake.
            cycles_ += directive.stallCycles;
            vpuStalls_ += directive.stallCycles;
            frontend_->redirect(cycles_);
            if (cpiStack_)
                cpiStack_->accountExternal(cycles_, CpiBucket::VpuWake);
        }
    }

    // Decode (context-sensitive translation), with decode-time passes,
    // memoized per PC when architecturally faithful (translatedFlow).
    state_.cycleHint = cycles_;
    translator_->tick(cycles_);
    const UopFlow &flow = translatedFlow(*op);

    // Functional execution with per-uop annotations (into a reused
    // buffer: the DynUop vector's heap spill survives across steps).
    profiled(HostPhase::Execute,
             [&] { executor_.executeInto(*op, flow, scratchResult_); });
    const FlowResult &result = scratchResult_;

    // DIFT propagation (program order, as the hardware would).
    if (taint_)
        taint_->propagate(flow, result);

    if (params_.mode == SimMode::Detailed)
        profiled(HostPhase::Pipeline,
                 [&] { stepDetailed(*op, flow, result); });
    else
        profiled(HostPhase::Memory,
                 [&] { stepCacheOnly(*op, flow, result); });

    ++instructions_;
    uopsSimulated_ += result.dynUops.size();
    if (statsDetailEnabled())
        flowLen_.sample(static_cast<double>(result.dynUops.size()));
    prevMacro_ = op;  // points into prog_.code(); stable for our lifetime

    if (sampleInterval_ != 0 && cycles_ >= nextSampleAt_)
        maybeSample();

    return !state_.halted;
}

void
Simulation::sampleEvery(Tick interval, std::vector<std::string> stat_paths)
{
    if (interval == 0)
        csd_fatal("Simulation::sampleEvery: interval must be positive");
    sampleInterval_ = interval;
    samplePaths_ = stat_paths.empty()
        ? std::vector<std::string>{"instructions", "ipc"}
        : std::move(stat_paths);
    // Validate eagerly so typos fail at configuration time.
    for (const std::string &path : samplePaths_)
        stats_.valueOf(path);
    nextSampleAt_ = cycles_ + interval;
}

void
Simulation::maybeSample()
{
    HostProfiler::Scope prof(obs_->profiler(), HostPhase::StatOverhead);
    IntervalSample sample;
    sample.cycle = cycles_;
    sample.values.reserve(samplePaths_.size());
    for (const std::string &path : samplePaths_)
        sample.values.push_back(stats_.valueOf(path));
    samples_.push_back(std::move(sample));
    while (nextSampleAt_ <= cycles_)
        nextSampleAt_ += sampleInterval_;
}

void
Simulation::writeSamplesCsv(std::ostream &os) const
{
    os << "cycle";
    for (const std::string &path : samplePaths_)
        os << "," << path;
    os << "\n";
    for (const IntervalSample &sample : samples_) {
        os << sample.cycle;
        for (double v : sample.values)
            os << "," << v;
        os << "\n";
    }
}

void
Simulation::stepDetailed(const MacroOp &op, const UopFlow &flow,
                         const FlowResult &result)
{
    // The interpreter's producer side: feed the shared consumer
    // (sim/detailed.hh) each uop's timing record — the flow cache's,
    // resolved when the flow was cached, or derived on the fly for an
    // uncached flow.
    DetailedMacro mc = detailedBegin(op, flow, deliveredSlots(flow),
                                     result.tookBranch, result.nextPc);
    if (const UopTimingRec *timing = curTiming_) {
        const Uop *const base = flow.uops.data();
        for (const DynUop &dyn : result.dynUops)
            detailedUop(op, *dyn.uop, timing[dyn.uop - base], dyn.effAddr,
                        mc);
    } else {
        for (const DynUop &dyn : result.dynUops)
            detailedUop(op, *dyn.uop, timingRecordFor(*dyn.uop),
                        dyn.effAddr, mc);
    }
    detailedEnd(op, mc, result.tookBranch, result.nextPc);
}

void
Simulation::stepCacheOnly(const MacroOp &op, const UopFlow &flow,
                          const FlowResult &result)
{
    // Instruction fetch: touch the I-cache once per block.
    const Addr first = blockAlign(op.pc);
    const Addr last = blockAlign(op.pc + op.length - 1);
    Cycles latency = 0;
    for (Addr block = first; block <= last; block += cacheBlockSize) {
        if (block != lastFetchBlock_) {
            latency += mem_->fetchInstr(block).latency;
            lastFetchBlock_ = block;
        }
    }

    for (const DynUop &dyn : result.dynUops) {
        const Uop &uop = *dyn.uop;
        if (uop.eliminated)
            continue;
        ++slotsDelivered_;
        if (uop.decoy)
            ++decoyUopsExecuted_;
        if (uop.isLoad()) {
            latency += (uop.instrFetch ? mem_->fetchInstr(dyn.effAddr)
                                       : mem_->readData(dyn.effAddr))
                           .latency;
        } else if (uop.isStore()) {
            mem_->writeData(dyn.effAddr);
        } else if (uop.op == MicroOpcode::CacheFlush) {
            mem_->flush(dyn.effAddr);
            latency += 40;
        }
        const double energy = energyModel_.uopEnergy(uop);
        if (onVpu(uop))
            vpuDynamic_ += energy;
        else
            coreDynamic_ += energy;
    }

    // Pseudo-cycles: one per uop plus a fraction of memory latency
    // (enough to drive the watchdog at a realistic rate).
    cycles_ += deliveredUops(flow) + latency / 4;
    (void)result;
}

bool
Simulation::tierEngaged() const
{
    // Tracing stays on the interpreter so per-step trace output is
    // unchanged; a power controller needs its per-macro hook. The tier
    // is compiled for the native translator and the CSD only: any
    // other Translator (e.g. a DecoderProfiler wrapping one) runs on
    // the interpreter.
    return superblockEnabled_ && flowCacheEnabled_ && !power_ &&
           (translator_ == &nativeTranslator_ || translator_ == csd_) &&
           !traceAnyEnabled();
}

std::uint64_t
Simulation::run(std::uint64_t max_instructions)
{
    std::uint64_t executed = 0;

    // Superblock fast path: compiled straight-line execution between
    // region heads (sim/fastpath.hh), in either fidelity.
    if (tierEngaged()) {
        if (ObservabilityContext::currentOrNull() != obs_)
            obs_->bindToThread();
        // Region heads are where superblocks anchor: program entry and
        // every branch target. Consulting only there keeps the heat
        // counters (and block count) bounded by the branch structure
        // rather than by static code size. Between heads the tier is
        // re-entered only at the resume point its last exit left
        // (FastPath::resumePending): the macro after one the
        // interpreter had to retire, or where a budget slice stopped.
        bool at_head = true;
        for (;;) {
            if ((at_head || fastpath_->resumePending()) &&
                executed < max_instructions) {
                executed += profiled(HostPhase::Superblock, [&] {
                    return fastpath_->run(max_instructions - executed,
                                          at_head);
                });
            }
            if (executed >= max_instructions || !step())
                return executed;
            ++executed;
            at_head = scratchResult_.tookBranch;
        }
    }

    while (executed < max_instructions && step())
        ++executed;
    return executed;
}

void
Simulation::runToHalt()
{
    run(std::numeric_limits<std::uint64_t>::max());
}

void
Simulation::restart()
{
    state_.pc = prog_.entry();
    state_.halted = false;
    prevMacro_ = nullptr;
}

EnergyBreakdown
Simulation::energy() const
{
    const EnergyParams &ep = energyModel_.params();
    EnergyBreakdown breakdown;
    breakdown.coreDynamic = coreDynamic_;
    breakdown.vpuDynamic = vpuDynamic_;
    breakdown.frontendDynamic = frontendDynamic_;
    breakdown.coreStatic = ep.coreLeakage * static_cast<double>(cycles_);

    if (power_) {
        // finalize() must have been called by the harness.
        const double on = static_cast<double>(power_->onCycles());
        const double waking = static_cast<double>(power_->wakingCycles());
        const double gated = static_cast<double>(power_->gatedCycles());
        breakdown.vpuStatic = ep.vpuLeakage * (on + waking);
        breakdown.headerStatic = ep.headerLeakage * gated;
        breakdown.gatingOverhead =
            energyModel_.gatingOverhead() *
            static_cast<double>(power_->gateEvents());
    } else {
        breakdown.vpuStatic =
            ep.vpuLeakage * static_cast<double>(cycles_);
    }
    return breakdown;
}

double
Simulation::ipc() const
{
    return cycles_ == 0
        ? 0.0
        : static_cast<double>(instructions_.value()) / cycles_;
}

obs::Manifest
Simulation::buildManifest() const
{
    // Hash everything that defines the *simulated* run — program shape
    // and architectural parameters — and nothing host-side (flow cache,
    // jobs, output paths), so runs that should be comparable hash
    // equal regardless of how they were executed.
    obs::ConfigHasher h;
    h.add("mode", params_.mode == SimMode::Detailed ? "detailed"
                                                    : "cache_only");
    h.add("max_instructions", params_.maxInstructions);
    h.add("program.instructions",
          static_cast<std::uint64_t>(prog_.code().size()));
    h.add("program.entry", static_cast<std::uint64_t>(prog_.entry()));

    const FrontEndParams &fe = params_.frontend;
    h.add("fe.fetch_bytes", fe.fetchBytesPerCycle);
    h.add("fe.macro_queue", fe.macroQueueEntries);
    h.add("fe.decode_width", fe.decodeWidth);
    h.add("fe.simple_decoders", fe.simpleDecoders);
    h.add("fe.complex_max_uops", fe.complexDecoderMaxUops);
    h.add("fe.msrom_width", fe.msromWidth);
    h.add("fe.uc_enabled", static_cast<std::uint64_t>(fe.uopCacheEnabled));
    h.add("fe.uc_sets", fe.uopCacheSets);
    h.add("fe.uc_ways", fe.uopCacheWays);
    h.add("fe.uc_slots", fe.uopCacheSlotsPerWay);
    h.add("fe.uc_window", fe.uopCacheWindowBytes);
    h.add("fe.uc_max_ways", fe.uopCacheMaxWaysPerWindow);
    h.add("fe.uc_stream", fe.uopCacheStreamWidth);
    h.add("fe.uc_ctx_bits",
          static_cast<std::uint64_t>(fe.uopCacheContextBits));
    h.add("fe.uc_switch_penalty", fe.uopCacheSwitchPenalty);
    h.add("fe.lsd_enabled", static_cast<std::uint64_t>(fe.lsdEnabled));
    h.add("fe.lsd_slots", fe.lsdMaxSlots);
    h.add("fe.lsd_stream", fe.lsdStreamWidth);
    h.add("fe.macro_fusion", static_cast<std::uint64_t>(fe.macroFusion));
    h.add("fe.micro_fusion", static_cast<std::uint64_t>(fe.microFusion));
    h.add("fe.sp_tracker", static_cast<std::uint64_t>(fe.spTracker));

    const MemHierarchyParams &mem = params_.mem;
    const auto cache = [&h](const char *level, const CacheParams &c) {
        h.add(std::string(level) + ".size", c.sizeBytes);
        h.add(std::string(level) + ".assoc", c.assoc);
        h.add(std::string(level) + ".latency", c.hitLatency);
    };
    cache("mem.l1i", mem.l1i);
    cache("mem.l1d", mem.l1d);
    cache("mem.l2", mem.l2);
    cache("mem.llc", mem.llc);
    h.add("mem.dram_latency", mem.dramLatency);
    h.add("mem.extra_l2_latency", mem.extraL2Latency);

    const BackEndParams &be = params_.backend;
    h.add("be.rob", be.robEntries);
    h.add("be.commit_width", be.commitWidth);
    h.add("be.dispatch_latency", be.dispatchLatency);
    h.add("be.mispredict_resteer", be.mispredictResteer);
    h.add("be.taken_bubble", be.takenBranchBubble);

    const BranchPredParams &bp = params_.bpred;
    h.add("bp.gshare", bp.gshareEntries);
    h.add("bp.history", bp.historyBits);
    h.add("bp.btb", bp.btbEntries);
    h.add("bp.ras", bp.rasEntries);

    const EnergyParams &en = params_.energy;
    h.add("en.int_alu", en.intAluEnergy);
    h.add("en.vec_alu", en.vecAluEnergy);
    h.add("en.core_leakage", en.coreLeakage);
    h.add("en.vpu_leakage", en.vpuLeakage);
    h.add("en.header_ratio", en.headerAreaRatio);

    obs::Manifest manifest;
    manifest.configHash = h.hex();
    // No context id here: it depends on construction order, and the
    // manifest promises "deterministic except phases" for a fixed
    // build + host + configuration.
    manifest.note("translator_epoch", translator_->reportedEpoch());
    return manifest;
}

void
Simulation::dumpStatsJson(std::ostream &os) const
{
    const obs::Manifest manifest = buildManifest();
    stats_.dumpJson(os, 0,
                    [&](std::ostream &out, const std::string &indent) {
                        manifest.write(out, indent, &obs_->profiler());
                    });
}

} // namespace csd
