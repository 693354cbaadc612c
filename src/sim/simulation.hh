/**
 * @file
 * The top-level simulator: program-order driver connecting the
 * translator (native or context-sensitive), the functional executor,
 * the decode front end, the out-of-order back end, the cache
 * hierarchy, DIFT, and the power-gating controller.
 *
 * Two fidelity levels share all functional and cache state:
 *  - detailed: full front-end + back-end cycle accounting (performance
 *    experiments, Figs. 8-16)
 *  - cache-only: functional execution with cache residency/timing only
 *    (security experiments, Fig. 7 — attack success depends on cache
 *    state, not pipeline cycles)
 *
 * One engine retires every macro-op, in either fidelity: the retire
 * routine (retireMacro, sim/retire.cc) walks the macro's resolved uop
 * stream (decode/superblock.hh) through the functional handlers, the
 * fidelity's timing consumer, DIFT and the commit bookkeeping. Two
 * drivers feed it. The interpreter (step()) translates one macro —
 * from the predecoded-flow cache when it can — and resolves it into a
 * scratch stream; the superblock tier (sim/fastpath.hh) walks the
 * streams it compiled for hot regions. They differ only in how they
 * obtain a macro's stream and in the translator protocol around it.
 */

#ifndef CSD_SIM_SIMULATION_HH
#define CSD_SIM_SIMULATION_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "cpu/arch_state.hh"
#include "cpu/backend.hh"
#include "cpu/branch_pred.hh"
#include "cpu/cpi_stack.hh"
#include "cpu/executor.hh"
#include "cpu/lifecycle.hh"
#include "decode/flow_cache.hh"
#include "decode/frontend.hh"
#include "decode/superblock.hh"
#include "decode/translator.hh"
#include "dift/taint.hh"
#include "isa/program.hh"
#include "memory/hierarchy.hh"
#include "common/context.hh"
#include "obs/manifest.hh"
#include "power/energy.hh"
#include "power/gating.hh"

namespace csd
{

class ContextSensitiveDecoder;
class FastPath;

/** Simulation fidelity. */
enum class SimMode : std::uint8_t
{
    Detailed,   //!< front end + OoO back end cycle model
    CacheOnly,  //!< functional + cache residency (fast)
};

/** Simulator configuration. */
struct SimParams
{
    SimMode mode = SimMode::Detailed;
    FrontEndParams frontend;
    MemHierarchyParams mem;
    BackEndParams backend;
    BranchPredParams bpred;
    EnergyParams energy;
    std::uint64_t maxInstructions = 1ull << 40;

    /**
     * The observability context this simulation records into (stats
     * detail, event/lifecycle tracing, log sink, host profiler). Null
     * = the simulation creates and owns a private context inheriting
     * the constructing thread's configuration; non-null = share the
     * caller's context (e.g. DuoSimulation's two halves record one
     * combined trace). The caller keeps ownership.
     */
    ObservabilityContext *obs = nullptr;
};

/** One interval-sampler observation: selected stats at a cycle. */
struct IntervalSample
{
    Tick cycle = 0;
    std::vector<double> values;
};

/** The simulator. */
class Simulation
{
  public:
    Simulation(const Program &prog, const SimParams &params = {});

    /**
     * Co-located construction: share @p shared_mem with other
     * simulations (hardware contexts on one core / socket). The caller
     * keeps ownership of the hierarchy.
     */
    Simulation(const Program &prog, const SimParams &params,
               MemHierarchy *shared_mem);

    ~Simulation();

    // --- wiring (before run) ---------------------------------------------

    /** Use a custom translator (e.g. the CSD); default is native. */
    void setTranslator(Translator *translator);

    /** Convenience: install a CSD and keep the devectorization hook. */
    void setCsd(ContextSensitiveDecoder *csd);

    /** Enable DIFT propagation. */
    void setTaintTracker(TaintTracker *taint);

    /** Drive VPU power gating. */
    void setPowerController(PowerGateController *power);

    /**
     * Toggle the host-side predecoded-flow cache (decode/flow_cache.hh).
     * On by default; CSD_FLOW_CACHE=0 in the environment disables it.
     * Purely a host optimization: simulated timing and statistics are
     * bit-identical either way (tests/sim/test_flow_cache.cc).
     */
    void setFlowCacheEnabled(bool on);
    bool flowCacheEnabled() const { return flowCacheEnabled_; }

    /** Host-side hit/miss accounting for the predecoded-flow cache. */
    const FlowCache &flowCache() const { return flowCache_; }

    /**
     * Toggle the superblock tier (sim/fastpath.hh): in either
     * fidelity, hot straight-line regions of cached flows are compiled
     * into flat pre-resolved uop streams and retired without the
     * per-macro interpreter overhead. On by default;
     * CSD_SUPERBLOCK=0 in the environment disables it. Purely a host
     * optimization: simulated timing and statistics are bit-identical
     * either way (tests/sim/test_superblock.cc). The tier engages only
     * when the flow cache is enabled (so disabling the flow cache also
     * disables the tier) and tracing is off (run() re-checks per
     * call); with a power controller attached, it runs the controller's
     * per-macro hook itself.
     */
    void setSuperblockEnabled(bool on);
    bool superblockEnabled() const { return superblockEnabled_; }

    /**
     * Region-entry count at which a hot head is compiled (>= 1; default
     * 16).
     */
    void setSuperblockThreshold(std::uint32_t threshold);

    /** The superblock tier's host-side counters and block cache. */
    const FastPath &fastPath() const { return *fastpath_; }

    /**
     * Sample the statistics named by @p stat_paths (dotted paths under
     * the "sim" group, e.g. "instructions", "ipc",
     * "frontend.slots_legacy") every @p interval cycles into an
     * in-memory time series. Pass an empty list for the default set
     * {"instructions", "ipc"}. Paths are validated on the first
     * sample; unknown paths are fatal. The series survives restart()
     * so attack harnesses see all invocations on one timeline.
     */
    void sampleEvery(Tick interval,
                     std::vector<std::string> stat_paths = {});

    /** Stat paths captured by the interval sampler. */
    const std::vector<std::string> &sampledStats() const
    {
        return samplePaths_;
    }

    /** The recorded time series (cumulative values at each sample). */
    const std::vector<IntervalSample> &samples() const { return samples_; }

    /** Write the time series as CSV: "cycle,<path>,<path>,..." */
    void writeSamplesCsv(std::ostream &os) const;

    // --- instruction-grain observability -----------------------------------

    /**
     * Enable CPI-stack accounting (detailed mode only). Every cycle
     * from this point on is attributed to exactly one CpiBucket;
     * enable before the first step() so the buckets sum to cycles().
     * Also armed at construction by CSD_CPI_STACK=1.
     */
    CpiStack &enableCpiStack();

    /** The accountant, or null when not enabled. */
    CpiStack *cpiStack() { return cpiStack_.get(); }
    const CpiStack *cpiStack() const { return cpiStack_.get(); }

    /**
     * Enable per-uop lifecycle tracing into a bounded ring (detailed
     * mode only; records export as O3PipeView / Kanata). Also armed at
     * construction by CSD_LIFECYCLE=1 with CSD_LIFECYCLE_CAPACITY and,
     * when CSD_LIFECYCLE_FILE names a path, exported at destruction.
     */
    LifecycleTracer &enableLifecycle(std::size_t capacity = 1 << 16);

    /** The lifecycle tracer, or null when not enabled. */
    LifecycleTracer *lifecycle() { return lifecycle_.get(); }

    // --- execution ---------------------------------------------------------

    /** Execute one macro-op. Returns false once halted. */
    bool step();

    /** Execute up to @p max_instructions; returns number executed. */
    std::uint64_t run(std::uint64_t max_instructions);

    /** Run until the program halts. */
    void runToHalt();

    /**
     * Re-arm the program for another run (attack harnesses invoke the
     * victim thousands of times): resets PC/halted, keeps all cache,
     * memory, predictor, translator, and statistic state.
     */
    void restart();

    bool halted() const { return state_.halted; }

    // --- results -----------------------------------------------------------

    Tick cycles() const { return cycles_; }
    std::uint64_t instructions() const { return instructions_.value(); }
    std::uint64_t uopsExecuted() const;

    /**
     * Dynamic uops processed in any fidelity mode (cache-only runs
     * never drive the back end, so uopsExecuted() stays 0 there).
     * Host-side bookkeeping, not part of the stat tree.
     */
    std::uint64_t uopsSimulated() const { return uopsSimulated_; }
    std::uint64_t slotsDelivered() const { return slotsDelivered_.value(); }
    double ipc() const;

    /** Energy consumed so far, with static terms up to cycles(). */
    EnergyBreakdown energy() const;

    ArchState &state() { return state_; }
    MemHierarchy &mem() { return *mem_; }
    FrontEnd &frontend() { return *frontend_; }
    BackEnd &backend() { return *backend_; }
    BranchPredictor &bpred() { return *bpred_; }
    const Program &program() const { return prog_; }
    const EnergyModel &energyModel() const { return energyModel_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** The observability context this simulation records into. */
    ObservabilityContext &obs() const { return *obs_; }

    /**
     * Hierarchical JSON dump of the whole stat tree, led by a
     * "manifest" member (obs/manifest.hh) recording the configuration
     * hash, build/host provenance, translator epoch, and host
     * wall-time phases of this run.
     */
    void dumpStatsJson(std::ostream &os) const;

    /** The run-provenance record emitted by dumpStatsJson(). */
    obs::Manifest buildManifest() const;

  private:
    /**
     * Run @p fn with its host time attributed to @p phase when the
     * profiler is on. The disabled branch calls @p fn with no Scope in
     * scope at all: keeping the clock reads out of the hot loop's
     * codegen is worth the duplicated call — an unconditional
     * HostProfiler::Scope costs double-digit percent simulation
     * throughput even when it never reads the clock.
     */
    template <typename Fn>
    decltype(auto) profiled(HostPhase phase, Fn &&fn)
    {
        HostProfiler &prof = obs_->profiler();
        if (prof.enabled()) [[unlikely]] {
            HostProfiler::Scope scope(prof, phase);
            return fn();
        }
        return fn();
    }

    void maybeSample();

    /**
     * Translate @p op — from the predecoded-flow cache when the
     * translator vouches that memoization is faithful — and resolve
     * it into scratchOps_. The span stays valid until the next step.
     */
    SbMacro translatedFlow(const MacroOp &op);

    // --- the retire routine (sim/retire.cc) --------------------------------

    /**
     * The accounting retireMacro() accumulates instead of updating the
     * members per macro; flushTally() applies it. The tier keeps one
     * tally across a block, step() one per macro. cycles and lastFetch
     * are the cache-only clock and I-fetch dedup (detailed mode's
     * timing consumer keeps the clock in cycles_).
     */
    struct RetireTally
    {
        Tick cycles = 0;
        Addr lastFetch = invalidAddr;
        std::uint64_t instructions = 0;
        std::uint64_t uops = 0;
        std::uint64_t slots = 0;
        std::uint64_t decoys = 0;
    };

    /**
     * Retire macro @p m, whose resolved uops start at @p first: run
     * each uop's functional handler, fused in cache-only mode with the
     * memory probe and the slot/decoy/energy accounting, propagate
     * DIFT taint per uop (Taint), then — detailed mode — feed the
     * timing consumer below, and commit (instruction and uop counts,
     * flow-length sample, macro-fusion pairing, interval sampling).
     * A Halt uop ends the macro, as the reference executor's flow loop
     * does. @p prof, when non-null, is charged the functional and
     * timing halves separately (step() passes its enabled profiler;
     * the tier charges whole blocks to HostPhase::Superblock). Returns
     * whether control left the fall-through path.
     */
    template <bool Taint, bool Detailed>
    bool retireMacro(const SbMacro &m, const SbOp *first, RetireTally &t,
                     HostProfiler *prof);

    /** Apply @p t's deltas (and cache-only clock) to the members. */
    void
    flushTally(RetireTally &t)
    {
        if (params_.mode == SimMode::CacheOnly) {
            cycles_ = t.cycles;
            lastFetchBlock_ = t.lastFetch;
        }
        instructions_ += t.instructions;
        uopsSimulated_ += t.uops;
        slotsDelivered_ += t.slots;
        decoyUopsExecuted_ += t.decoys;
        t.instructions = t.uops = t.slots = t.decoys = 0;
    }

    // The detailed-mode timing consumer: detailedBegin() once,
    // detailedUop() per dynamic uop in expansion order, detailedEnd()
    // once — the front-end/back-end/CPI/lifecycle/energy accounting,
    // fed with each uop's timing record and effective address.

    /** Per-macro state of the timing consumer. */
    struct DetailedMacro
    {
        Tick fetchCycle = 0;
        Tick deliver = 0;
        Tick branchComplete = 0;
        bool macroFused = false;
    };

    inline DetailedMacro detailedBegin(const MacroOp &op,
                                       const UopFlow &flow,
                                       std::uint64_t slots, bool took_branch,
                                       Addr next_pc);
    inline void detailedUop(const MacroOp &op, const Uop &uop,
                            const UopTimingRec &rec, Addr eff_addr,
                            DetailedMacro &mc);
    inline void detailedEnd(const MacroOp &op, const DetailedMacro &mc,
                            bool took_branch, Addr next_pc);

    /**
     * The power-gating controller's per-macro hook (unit-criticality
     * predictor input): observe @p op, the next macro to retire, at
     * the current cycle, switch CSD devectorization as directed, and
     * charge a conventional demand-wake stall. Requires power_. Runs
     * exactly once per retired macro, before its translation,
     * whichever driver retires it: the tier, having run it for a macro
     * it then hands to the interpreter, sets hookedPc_, and the next
     * call, for the op at that pc, consumes the mark instead.
     */
    void powerHook(const MacroOp &op);

    /** May run() hand execution to the superblock tier right now? */
    bool tierEngaged() const;

    const Program &prog_;
    SimParams params_;

    // Observability context, constructed (and bound to the building
    // thread) before any component so construction-time trace/log
    // events already land in the right buffers.
    std::unique_ptr<ObservabilityContext> ownedObs_;  //!< null if shared
    ObservabilityContext *obs_;

    ArchState state_;
    FunctionalExecutor executor_;
    std::unique_ptr<MemHierarchy> ownedMem_;
    MemHierarchy *mem_;
    std::unique_ptr<FrontEnd> frontend_;
    std::unique_ptr<BackEnd> backend_;
    std::unique_ptr<BranchPredictor> bpred_;
    NativeTranslator nativeTranslator_;
    Translator *translator_;
    ContextSensitiveDecoder *csd_ = nullptr;
    TaintTracker *taint_ = nullptr;
    PowerGateController *power_ = nullptr;
    Addr hookedPc_ = invalidAddr;  //!< hook ran, macro not yet retired
    EnergyModel energyModel_;

    Tick cycles_ = 0;
    Addr lastFetchBlock_ = invalidAddr;
    unsigned curCtx_ = 0;
    std::uint64_t uopsSimulated_ = 0;

    // Predecoded-flow cache (host optimization, see translatedFlow()).
    FlowCache flowCache_;
    bool flowCacheEnabled_ = true;

    // Superblock tier (host optimization, see run()). FastPath is a
    // friend: it runs the translator protocol and hands each macro of
    // its blocks to retireMacro().
    friend class FastPath;
    std::unique_ptr<FastPath> fastpath_;
    bool superblockEnabled_ = true;

    // The interpreter's scratch (reused across steps, so their heap
    // buffers survive): the flow and timing records on the uncached
    // path, and the resolved stream of the macro being retired.
    UopFlow scratchFlow_;
    std::vector<UopTimingRec> scratchTiming_;
    std::vector<SbOp> scratchOps_;
    bool tookBranch_ = false;  //!< step()'s macro left the fall-through
    std::vector<Addr> effs_;   //!< detailed: one macro's effective addrs

    // Macro-fusion pairing state (previous committed macro-op; points
    // into prog_.code(), null right after restart()).
    const MacroOp *prevMacro_ = nullptr;
    Tick lastSlotCycle_ = 0;

    // IDQ backpressure ring (fused slots).
    std::vector<Tick> idqRing_;
    std::size_t idqIdx_ = 0;
    std::uint64_t idqCount_ = 0;

    // Dynamic energy accumulators (nJ).
    double coreDynamic_ = 0;
    double vpuDynamic_ = 0;
    double frontendDynamic_ = 0;

    // Instruction-grain observability (both null => zero per-uop cost
    // beyond two pointer tests).
    std::unique_ptr<CpiStack> cpiStack_;
    std::unique_ptr<LifecycleTracer> lifecycle_;
    std::string lifecycleExportPath_;
    std::uint64_t lifecycleFlushToken_ = 0;  //!< context flush-hook handle
    std::string channelExportPath_;  //!< set-heatmap base ("%c" expanded)
    std::uint64_t channelFlushToken_ = 0;
    std::uint64_t feL1iSeen_ = 0;     //!< fetch-stall counter watermark
    std::uint64_t feDecodeSeen_ = 0;  //!< decode-bw counter watermark

    // Interval sampler state. The series intentionally survives
    // restart(): attack harnesses re-arm thousands of times and want
    // one continuous timeline.
    Tick sampleInterval_ = 0;
    Tick nextSampleAt_ = 0;
    std::vector<std::string> samplePaths_;
    std::vector<IntervalSample> samples_;

    StatGroup stats_;
    Counter instructions_;
    Counter slotsDelivered_;
    Counter decoyUopsExecuted_;
    Counter devectUopsExecuted_;
    Counter macroFusedPairs_;
    Counter vpuStalls_;
    Distribution flowLen_{0, 32, 16};
    Formula ipc_;
    Formula uopsPerInstr_;
    Formula l1dMpki_;
    Formula decoyFrac_;
};

} // namespace csd

#endif // CSD_SIM_SIMULATION_HH
