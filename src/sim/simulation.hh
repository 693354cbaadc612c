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
 * One loop drives every macro-op, in either fidelity (run(),
 * sim/retire.cc). Each macro first passes the per-macro protocol —
 * trace time hint, power-gating hook, translator tick — and then
 * retires through one routine (retireRun) that walks resolved macros'
 * uop spans (decode/flow_cache.hh) through the functional handlers, the
 * fidelity's timing consumer, DIFT and the commit bookkeeping. The
 * stream comes from a superblock the tier (sim/fastpath.hh) compiled
 * for a hot region, whose later macros then pass the protocol inside
 * the same call, or else from the one macro's entry in the
 * predecoded-flow cache, or, when it cannot be cached, from a
 * translation resolved into scratch.
 */

#ifndef CSD_SIM_SIMULATION_HH
#define CSD_SIM_SIMULATION_HH

#include <functional>
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
     * disables the tier) and the translator is the native one or the
     * CSD installed by setCsd() (run() re-checks per call); tracing and
     * a power controller run on it like any other macro.
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
     * construction when CSD_LIFECYCLE_FILE names a path, with
     * CSD_LIFECYCLE_CAPACITY, and then exported there at destruction.
     */
    LifecycleTracer &enableLifecycle(std::size_t capacity = 1 << 16);

    /** The lifecycle tracer, or null when not enabled. */
    LifecycleTracer *lifecycle() { return lifecycle_.get(); }

    // --- execution ---------------------------------------------------------

    /** Execute one macro-op. Returns false once halted. */
    bool step() { return run(1) == 1; }

    /**
     * Execute up to @p max_instructions; returns the number executed,
     * not counting the Halt that ends the program.
     */
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

    /**
     * Arm a recorder export through the context: a flush hook that
     * runs @p write on @p path ("%c" expanded), so an interrupted run
     * still leaves a loadable (truncated) file. Returns its token.
     */
    std::uint64_t armExport(const std::string &path,
                            std::function<void(const std::string &)> write);

    /**
     * Teardown of the export armed as @p token (0 = none): take its
     * hook back from the context and run it under
     * ObservabilityContext::exportLock(), charging the host time to
     * @p phase.
     */
    void finishExport(std::uint64_t token, HostPhase phase);

    void maybeSample();

    /**
     * @p op's resolved translation: the predecoded-flow cache's entry
     * when the translator vouches that memoization is faithful (a miss
     * translates and inserts it), else a fresh translation resolved
     * into scratch_, valid until the next call.
     */
    const SbMacro *translatedFlow(const MacroOp &op);

    // --- the driver loop and retire routine (sim/retire.cc) -----------------

    /**
     * The accounting retireRun() accumulates instead of updating the
     * members per macro; flushTally() applies it. The loop keeps one
     * per iteration, across a whole run of compiled macros. cycles and
     * lastFetch are the cache-only clock and I-fetch dedup (detailed
     * mode's timing consumer keeps the clock in cycles_).
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

    /** Where and why retireRun() stopped. */
    struct RunStop
    {
        const SbMacro *const *at;  //!< the first macro it did not retire
        SbExit exit;
        bool tookBranch;    //!< the last retired macro took a branch
    };

    /**
     * run(), specialized on the translator's concrete type (the
     * native translator's protocol hooks fold away and the CSD's
     * inline ones devirtualize; any other Translator never runs
     * compiled blocks), DIFT and the fidelity.
     */
    template <class Tr, bool Taint, bool Detailed>
    std::uint64_t runLoop(Tr &tr, std::uint64_t budget);

    /**
     * The per-macro protocol every macro passes once before it
     * retires, whichever stream it retires from: keep clock-less trace
     * events on the timeline, run the power hook, tick the translator
     * (watchdog). Reads the cache-only clock from @p t.
     */
    template <class Tr, bool Detailed>
    void enterMacro(Tr &tr, const MacroOp &op, RetireTally &t);

    /**
     * Retire a run of resolved macros starting at @p m, whose protocol
     * has run, for the native translator or the CSD (@p tr is read
     * only in compiled runs): with @p block null, *@p m alone;
     * otherwise *@p m and the macros after it in @p block's list. Per
     * uop of each macro's span: the functional
     * handler, fused in cache-only mode with the memory probe and the
     * slot/decoy/energy accounting, DIFT propagation (Taint); per
     * macro, in detailed mode, the timing consumer below; then the
     * commit (instruction and uop counts, flow-length sample,
     * macro-fusion pairing, interval sampling). A Halt uop ends its
     * macro, as the reference executor's flow loop does. Each compiled
     * macro first passes the guards — epoch, stability, stable context
     * — and replays its cached translation; each after the first
     * passes the protocol (enterMacro) too. The run stops on a taken
     * branch, at the block's end, after @p room macros, or at a macro
     * a guard vetoes, with its protocol run. @p prof, when non-null,
     * is charged the functional and timing halves separately (a
     * translated macro's run; block runs are charged to
     * HostPhase::Superblock whole).
     */
    template <class Tr, bool Taint, bool Detailed>
    RunStop retireRun(Tr &tr, const SbMacro *const *m,
                      const Superblock *block, std::uint64_t room,
                      RetireTally &t, HostProfiler *prof);

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
     * once per retired macro, in its protocol (enterMacro).
     */
    void powerHook(const MacroOp &op);

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
    EnergyModel energyModel_;

    Tick cycles_ = 0;
    Addr lastFetchBlock_ = invalidAddr;
    unsigned curCtx_ = 0;
    std::uint64_t uopsSimulated_ = 0;

    // Predecoded-flow cache (host optimization, see translatedFlow()).
    FlowCache flowCache_;
    bool flowCacheEnabled_ = true;

    // Superblock tier (host optimization, see run()). FastPath is a
    // friend: its head consult compiles from the flow cache.
    friend class FastPath;
    std::unique_ptr<FastPath> fastpath_;
    bool superblockEnabled_ = true;

    // The uncached path's translation, resolved in the flow cache's
    // form (reused across macros, so its span's buffer survives).
    FlowCache::Entry scratch_;
    std::vector<Addr> effs_;  //!< detailed: one macro's effective addrs

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
    std::uint64_t lifecycleExport_ = 0;  //!< CSD_LIFECYCLE_FILE hook token
    std::uint64_t channelExport_ = 0;    //!< CSD_CHANNEL_HEATMAP hook token
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
