/**
 * @file
 * The context-sensitive decoder (paper §III).
 *
 * Implements the Translator interface used by the front end and swaps
 * translations based on execution context:
 *
 *  - Stealth mode (§IV): triggered by MSR writes (register tracking),
 *    tainted-PC scratchpads, DIFT taint interception, or the hardware
 *    watchdog; injects decoy micro-ops covering the decoy address-range
 *    MSRs, then turns itself off and arms the watchdog.
 *  - Selective devectorization (§V): triggered by the unit-criticality
 *    power-gating controller; rewrites VPU arithmetic into scalar flows.
 *  - MCU custom translations (§III-C): rules installed through the
 *    auto-translated microcode update path.
 */

#ifndef CSD_CSD_CSD_HH
#define CSD_CSD_CSD_HH

#include "common/stats.hh"
#include "common/trace.hh"
#include "csd/decoy.hh"
#include "csd/defense.hh"
#include "csd/devect.hh"
#include "csd/mcu.hh"
#include "csd/msr.hh"
#include "csd/watchdog.hh"
#include "decode/translator.hh"
#include "dift/taint.hh"

namespace csd
{

/** Translation context ids (micro-op cache tag bits). */
enum : unsigned
{
    ctxNative = 0,
    ctxStealth = 1,
    ctxDevect = 2,
    ctxMcu = 3,
    ctxNoise = 4,
};

/**
 * The context-sensitive decoder. Final, and its flow-cache protocol
 * hooks are defined inline below the class: the superblock fast path
 * consults them per macro-op on a devirtualized pointer
 * (sim/fastpath.cc), so they must be visible for inlining.
 */
class ContextSensitiveDecoder final : public Translator
{
  public:
    /**
     * @param msrs  MSR file; the decoder installs its register-tracking
     *              hook so writes switch context immediately
     * @param taint optional DIFT tracker for the dynamic trigger
     */
    explicit ContextSensitiveDecoder(MsrFile &msrs,
                                     TaintTracker *taint = nullptr);

    // --- Translator interface -------------------------------------------

    UopFlow translate(const MacroOp &op) override;

    /** Context used by the most recent translate() call. */
    unsigned contextId() const override { return lastCtx_; }

    /** Advance the decoder clock; fires the watchdog. */
    void tick(Tick now) override;

    /** Bumped on every change that can alter a *stable* translation
     *  (MSR write, MCU mode switch): cached flows become stale. A
     *  stealth retrigger does not bump it (see retriggerStealth()),
     *  nor does a devectorization toggle (see setDevectorize()). */
    std::uint64_t translationEpoch() const override { return epoch_; }

    /** translationEpoch() plus every stealth retrigger and every
     *  devectorization toggle so far. */
    std::uint64_t
    reportedEpoch() const override
    {
        return epoch_ + retriggers_ + devectToggles_;
    }

    /**
     * A translation is memoizable unless it would consume mutable
     * per-instance state: MCU rule lookup, timing-noise randomness, or
     * a pending stealth decoy injection for a tainted instruction.
     */
    bool translationStable(const MacroOp &op) const override;

    /**
     * Stable flows only ever come from the native or the
     * devectorization path (stealth/MCU/noise translations are never
     * stable), so the expected context is a function of the
     * devectorize switch and the opcode alone.
     */
    unsigned stableContext(const MacroOp &op) const override;

    /** Replay translate()'s accounting for a flow served from cache. */
    void noteCachedTranslation(const MacroOp &op, const UopFlow &flow,
                               unsigned ctx) override;

    // --- Stealth-mode arming ----------------------------------------------

    /**
     * Program @p defense: its DIFT sources into the taint tracker (if
     * the decoder has one), then the watchdog period, the decoy data
     * and instruction ranges (slot 0), and last the control write that
     * enables DIFT-triggered stealth translation. A disabled defense
     * leaves the decoder untouched.
     */
    void arm(const DefenseConfig &defense);

    // --- Devectorization control (unit-criticality predictor) -----------

    /**
     * Enable/disable vector->scalar translation (VPU gated). A toggle
     * changes only stableContext() of devectorizable ops, and the flow
     * cache keeps one entry per stable context, so memoized flows stay
     * current and the epoch does not move; the toggle is counted in
     * reportedEpoch().
     */
    void setDevectorize(bool on);
    bool devectorizing() const { return devect_; }

    // --- Stealth-mode introspection --------------------------------------

    /** Ranges still pending decoy injection in this stealth burst. */
    std::size_t pendingRanges() const { return pending_.size(); }

    /** True if stealth translation is armed (control bit set). */
    bool stealthArmed() const;

    /** Decoy loop shape knob (ablation). */
    DecoyStyle decoyStyle = DecoyStyle::MicroLoop;

    /** Max NOPs injected per instruction in timing-noise mode. */
    unsigned noiseMaxNops = 3;

    /** Seed the timing-noise LFSR (chip-internal entropy stand-in). */
    void seedNoise(std::uint64_t seed) { noiseLfsr_ = seed | 1; }

    // --- MCU --------------------------------------------------------------

    McuEngine &mcu() { return mcu_; }

    /** Enable applying installed MCU rules. */
    void
    setMcuMode(bool on)
    {
        if (mcuMode_ != on)
            ++epoch_;
        mcuMode_ = on;
    }
    bool mcuMode() const { return mcuMode_; }

    StatGroup &stats() { return stats_; }

  private:
    void onMsrWrite(MsrAddr addr, std::uint64_t value);

    /**
     * Copy the decoy-range MSRs into the decoder's internal registers.
     * Refilling pending_ changes only the translation of tainted ops,
     * which translationStable() already vetoes while ranges are
     * pending, so memoized (native/devectorized) flows stay current
     * and the epoch does not move.
     */
    void retriggerStealth();

    /** Which trigger mechanism (if any) flags an instruction. */
    enum class TaintTrigger : std::uint8_t
    {
        None,
        PcRange,  //!< tainted-PC scratchpad match
        Dift,     //!< DIFT: a tainted load, store, or branch
    };

    /**
     * Is this instruction tainted under the active trigger mechanisms?
     * A pure query (translationStable() probes it per memoized fetch);
     * translate() reports DIFT hits to the tracker's counters.
     */
    TaintTrigger taintTrigger(const MacroOp &op) const;

    UopFlow applyMcu(const MacroOp &op, UopFlow flow);
    void applyTimingNoise(const MacroOp &op, UopFlow &flow);

    /** Record a Csd trace event when the translation context changes. */
    void traceContextSwitch();

    MsrFile &msrs_;
    TaintTracker *taint_;
    WatchdogTimer watchdog_;
    McuEngine mcu_;

    struct PendingRange
    {
        AddrRange range;
        bool isInstr;
    };
    SmallVector<PendingRange, 2 * numDecoyRanges> pending_;

    bool devect_ = false;
    bool mcuMode_ = false;
    unsigned lastCtx_ = ctxNative;
    unsigned tracedCtx_ = ctxNative;
    Tick now_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint64_t retriggers_ = 0;  //!< retriggerStealth() calls
    std::uint64_t devectToggles_ = 0;  //!< setDevectorize() changes
    std::uint64_t noiseLfsr_ = 0xace1ace1ace1ace1ull;

    StatGroup stats_;
    Counter translations_;
    Counter stealthFlows_;
    Counter decoyUops_;
    Counter devectFlows_;
    Counter mcuFlows_;
    Counter stealthTriggers_;
    Counter watchdogFires_;
    Counter noiseUops_;
    Distribution decoysPerFlow_{0, 64, 16};
    Formula stealthFlowRate_;
};

inline void
ContextSensitiveDecoder::tick(Tick now)
{
    now_ = now;
    watchdog_.tick(now);
}

inline bool
ContextSensitiveDecoder::stealthArmed() const
{
    return (msrs_.control() & ctrlStealthEnable) != 0;
}

inline bool
ContextSensitiveDecoder::translationStable(const MacroOp &op) const
{
    if (mcuMode_)
        return false;
    if (msrs_.control() & ctrlTimingNoise)
        return false;
    // A pending decoy injection for a tainted op consumes a decoy
    // range and advances the stealth burst: never memoized.
    if (stealthArmed() && !pending_.empty() &&
        taintTrigger(op) != TaintTrigger::None)
        return false;
    return true;
}

inline unsigned
ContextSensitiveDecoder::stableContext(const MacroOp &op) const
{
    // Mirrors translate()'s priority order for the stable paths:
    // selective devectorization first, else the native translation.
    return devect_ && devectorizable(op.opcode) ? ctxDevect : ctxNative;
}

inline void
ContextSensitiveDecoder::noteCachedTranslation(const MacroOp &op,
                                               const UopFlow &flow,
                                               unsigned ctx)
{
    // Reproduce exactly the accounting translate() performs on the
    // paths a memoizable flow can come from (native or devectorized;
    // stealth/MCU/noise flows are never stable, see above).
    (void)op;
    (void)flow;
    ++translations_;
    lastCtx_ = ctx;
    if (ctx == ctxDevect)
        ++devectFlows_;
    // traceContextSwitch re-checks this and is a no-op when the CSD
    // trace stream is off; guarding here keeps an out-of-line call off
    // the fast path's per-macro protocol (it runs only when tracing is
    // disabled, so the call could never record anything).
    if (traceEnabled(TraceFlag::Csd)) [[unlikely]]
        traceContextSwitch();
}

} // namespace csd

#endif // CSD_CSD_CSD_HH
