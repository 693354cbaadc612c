#include "sim/simulation.hh"

#include <limits>
#include <mutex>

#include "common/env.hh"
#include "common/logging.hh"
#include "csd/csd.hh"
#include "csd/devect.hh"
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
    // (configured from CSD_CPI_STACK and CSD_LIFECYCLE_*) so existing
    // harnesses grow traces without code changes.
    if (params_.mode == SimMode::Detailed) {
        if (obs_->cpiStack())
            enableCpiStack();
        const ObservabilityContext::LifecycleConfig &lc =
            obs_->lifecycleConfig();
        if (!lc.exportPath.empty()) {
            enableLifecycle(lc.capacity);
            lifecycleExport_ =
                armExport(lc.exportPath, [this](const std::string &path) {
                    lifecycle_->exportFile(path);
                });
        }
    }

    // Channel telemetry (memory/set_monitor.hh), armed through the
    // context (CSD_CHANNEL_HEATMAP) in any fidelity mode — the Fig. 7
    // attacks run cache-only.
    const ObservabilityContext::ChannelMonitorConfig &cm =
        obs_->channelMonitorConfig();
    if (!cm.exportPath.empty()) {
        SetMonitorConfig monitor_config;
        monitor_config.heatmapInterval = cm.heatmapInterval;
        CacheSetMonitor &monitor = mem_->armSetMonitor(monitor_config);
        frontend_->uopCache().setMonitor(&monitor);
        channelExport_ =
            armExport(cm.exportPath, [&monitor](const std::string &base) {
                monitor.exportFiles(base);
            });
    }
}

Simulation::~Simulation()
{
    finishExport(lifecycleExport_, HostPhase::Other);
    finishExport(channelExport_, HostPhase::ChannelMonitor);
}

std::uint64_t
Simulation::armExport(const std::string &path,
                      std::function<void(const std::string &)> write)
{
    // "%c" names a per-context file (parallel simulations).
    return obs_->addFlushHook(
        [path = expandContextPath(path, obs_->id()),
         write = std::move(write)] { write(path); });
}

void
Simulation::finishExport(std::uint64_t token, HostPhase phase)
{
    if (token == 0)
        return;
    const std::function<void()> write = obs_->removeFlushHook(token);
    profiled(phase, [&] {
        std::lock_guard<std::mutex> lock(ObservabilityContext::exportLock());
        write();
    });
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

const SbMacro *
Simulation::translatedFlow(const MacroOp &op)
{
    // Cache slot = the op's position in the program's instruction
    // stream (run() always fetches through Program::at, which hands
    // out pointers into code()).
    const std::size_t slot =
        static_cast<std::size_t>(&op - prog_.code().data());
    const bool cached = flowCacheEnabled_ && slot < flowCache_.slots() &&
                        translator_->translationStable(op);
    std::uint64_t epoch = 0;
    unsigned ctx = 0;
    if (cached) {
        epoch = translator_->translationEpoch();
        ctx = translator_->stableContext(op);
        const FlowCache::Entry *hit = profiled(HostPhase::FlowCache, [&] {
            const FlowCache::Entry *entry =
                flowCache_.lookup(slot, epoch, ctx);
            if (entry)
                translator_->noteCachedTranslation(op, entry->flow, ctx);
            return entry;
        });
        if (hit)
            return &hit->macro;
    } else {
        ++flowCache_.bypasses;
    }
    return profiled(HostPhase::Translate, [&]() -> const SbMacro * {
        UopFlow flow = translator_->translate(op);
        applyFusionConfig(flow, params_.frontend);
        applySpTracking(flow, params_.frontend);
        const unsigned got = translator_->contextId();
        // Only a flow of the context the lookup expected is cached:
        // filed under another context, it could overwrite a live entry
        // compiled blocks list.
        if (cached && got == ctx && FlowCache::admits(flow)) {
            return &flowCache_
                        .insert(slot, epoch, ctx, op, std::move(flow),
                                energyModel_)
                        .macro;
        }
        scratch_.assign(op, std::move(flow), got, energyModel_);
        return &scratch_.macro;
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

void
Simulation::powerHook(const MacroOp &op)
{
    // Power-gating decision (unit-criticality predictor input).
    const unsigned vec_uops = devectorizable(op.opcode) ? 1u : 0u;
    const auto directive = power_->onMacroOp(op, cycles_, vec_uops);
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
