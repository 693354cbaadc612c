/**
 * @file
 * VPU power-gating controller and policies (paper §V, Fig. 5).
 *
 * Three policies are modeled:
 *  - AlwaysOn: the VPU never gates (baseline of Fig. 13).
 *  - ConventionalPG: gate after an idle period, wake on demand while
 *    the pipeline stalls for the 30-cycle power-on.
 *  - CsdDevect: a windowed vector-activity counter (simple vector
 *    instructions count 1, complex ones their uop count); below the
 *    low watermark the controller gates the VPU and turns on CSD
 *    devectorization, above the high watermark it powers the unit back
 *    on while devectorization hides the wake latency.
 */

#ifndef CSD_POWER_GATING_HH
#define CSD_POWER_GATING_HH

#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "isa/macroop.hh"
#include "power/energy.hh"

namespace csd
{

/** Gating policy selector. */
enum class GatingPolicy : std::uint8_t
{
    AlwaysOn,
    ConventionalPG,
    CsdDevect,
};

/** VPU power state. */
enum class VpuState : std::uint8_t
{
    On,
    PoweringOn,  //!< wake initiated, not yet usable
    Gated,
};

/** Per-SSE-instruction classification (Fig. 16's categories). */
enum class SseExecClass : std::uint8_t
{
    PoweredOn,   //!< executed on the VPU
    PoweringOn,  //!< devectorized while the VPU was waking
    PowerGated,  //!< devectorized while the VPU was gated
};

/** Controller configuration. */
struct GatingParams
{
    GatingPolicy policy = GatingPolicy::CsdDevect;

    /** Instruction window over which vector activity is counted. */
    unsigned windowInstrs = 256;
    /** Gate + devectorize below this count (CsdDevect). */
    unsigned lowWatermark = 2;
    /** Initiate power-on above this count (CsdDevect). */
    unsigned highWatermark = 8;

    /**
     * ConventionalPG: idle cycles before gating (a realistic
     * idle-detect interval; always clamped up to the energy model's
     * break-even time).
     */
    Cycles idleGateThreshold = 150;
};

/**
 * The unit-criticality-driven power-gating controller.
 *
 * Driven in program order, as hardware that reacts to vector
 * instructions and to its own timers: for every instruction the
 * simulator asks the inline event gate skipMacro() first, and calls
 * onMacroOp() with the current cycle only when the gate says the
 * instruction can change something (a vector instruction, or one of
 * the controller's deadlines is due). The directive onMacroOp()
 * returns says whether the instruction must be devectorized and how
 * many stall cycles a demand wake costs (ConventionalPG only); a
 * skipped instruction's directive is {false, 0}. The cycle passed in
 * never decreases.
 */
class PowerGateController
{
  public:
    PowerGateController(const GatingParams &params,
                        const EnergyModel &energy);

    /** Directive for one instruction. */
    struct Directive
    {
        bool devectorize = false;  //!< translate to scalar uops
        Cycles stallCycles = 0;    //!< demand-wake stall (conventional)
    };

    /**
     * The event gate, asked for every instruction in program order.
     * A vector instruction always needs onMacroOp(); any other only
     * once one of the controller's deadlines is due (schedule()).
     * Until then onMacroOp() would return {false, 0} and change
     * nothing the next call or finalize() does not catch up on, so the
     * gate counts @p op as observed and returns true. Returns false,
     * counting nothing, when the caller must call onMacroOp() for
     * @p op at cycle @p now.
     */
    bool
    skipMacro(const MacroOp &op, Tick now)
    {
        if (isVector(op.opcode) || macros_ >= dueMacro_ || now >= dueCycle_)
            return false;
        ++macros_;
        return true;
    }

    /**
     * Observe one macro-op in program order at cycle @p now.
     * @param vec_uops the VPU uop count of the instruction's native
     *        translation (0 for non-vector instructions, and only a
     *        vector instruction may use the VPU)
     */
    Directive onMacroOp(const MacroOp &op, Tick now, unsigned vec_uops);

    /** Finish accounting at the end of simulation. */
    void finalize(Tick now);

    VpuState state() const { return state_; }

    // --- results -----------------------------------------------------

    Cycles gatedCycles() const { return gatedCycles_; }
    Cycles wakingCycles() const { return wakingCycles_; }
    Cycles onCycles() const { return onCycles_; }
    std::uint64_t gateEvents() const { return gateEvents_.value(); }

    std::uint64_t sseCount(SseExecClass cls) const
    {
        return sseCounts_[static_cast<unsigned>(cls)].value();
    }

    /** Fraction of time the VPU spent power-gated (Fig. 15). */
    double gatedFraction() const;

    StatGroup &stats() { return stats_; }

    // --- host-side counts (in no stats dump) -------------------------

    /** Instructions observed: onMacroOp() calls plus skipped ones. */
    std::uint64_t macros() const { return macros_; }
    /** onMacroOp() calls: the instructions that reached the
     *  controller past its event gate. */
    std::uint64_t calls() const { return calls_; }

  private:
    static constexpr std::uint64_t never = ~std::uint64_t{0};

    void switchState(VpuState next, Tick now);
    void accountUntil(Tick now);
    bool vpuUsable(Tick now);
    /** Drop the window's vector instructions older than the last
     *  windowInstrs instructions observed. */
    void expireWindow();
    /** Set the deadlines the event gate waits for (dueMacro_,
     *  dueCycle_) from the state onMacroOp() or finalize() left. */
    void schedule();

    GatingParams params_;
    const EnergyModel &energy_;

    VpuState state_ = VpuState::On;
    Tick stateSince_ = 0;
    Tick wakeDoneAt_ = 0;
    Tick lastVectorUse_ = 0;
    Tick lastNow_ = 0;

    std::uint64_t macros_ = 0;  //!< observed; the next one's number
    std::uint64_t calls_ = 0;
    /** The gate's deadlines: the number of the first instruction, and
     *  the first cycle, at which a non-vector instruction may change
     *  something (never: no such deadline). */
    std::uint64_t dueMacro_ = never;
    Tick dueCycle_ = never;
    bool devectorized_ = false;  //!< the last directive devectorized

    // Sliding window over the last windowInstrs instructions, holding
    // only its vector instructions (a non-vector one weighs 0), oldest
    // first in a ring: an instruction leaves when the one windowInstrs
    // after it is observed, so skipped ones need no entry and the count
    // is exact from the first instruction on.
    struct VectorUse
    {
        std::uint64_t macro;  //!< its number in program order
        unsigned weight;
    };
    std::vector<VectorUse> window_;  //!< capacity windowInstrs
    std::size_t windowHead_ = 0;     //!< the oldest entry's slot
    std::size_t windowSize_ = 0;
    std::uint64_t windowCount_ = 0;  //!< the entries' summed weight

    /** ConventionalPG idle threshold, clamped to the break-even time. */
    Cycles idleThreshold_;

    Cycles gatedCycles_ = 0;
    Cycles wakingCycles_ = 0;
    Cycles onCycles_ = 0;

    StatGroup stats_;
    Counter gateEvents_;
    Counter wakeEvents_;
    Counter demandWakes_;
    Counter sseCounts_[3];
    Distribution gatedStretch_{0, 20000, 20};
    Formula gatedFrac_;
};

} // namespace csd

#endif // CSD_POWER_GATING_HH
