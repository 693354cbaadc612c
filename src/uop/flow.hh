/**
 * @file
 * A micro-op flow: the translation of one macro-op.
 *
 * Flows may contain a micro-loop — a contiguous body of uops replayed a
 * statically known number of times by the microsequencer. Decoy
 * injection (paper Fig. 4c) and microsequenced string operations use
 * this. Trip counts are always known at translation time because the
 * context-sensitive decoder snapshots the decoy address-range MSRs into
 * its internal registers when a translation mode is triggered.
 */

#ifndef CSD_UOP_FLOW_HH
#define CSD_UOP_FLOW_HH

#include <cstdint>
#include <optional>

#include "common/small_vector.hh"
#include "uop/uop.hh"

namespace csd
{

/**
 * Container for a flow's micro-ops. Most translations are 1-4 uops
 * (the paper's Table 1 workloads average ~1.2 uops per macro-op), so
 * four inline slots keep the common case allocation-free; only
 * decoy-injected, devectorized, and microsequenced flows spill.
 */
using UopVec = SmallVector<Uop, 4>;

/** A statically counted micro-loop within a flow. */
struct MicroLoop
{
    std::uint16_t bodyStart = 0;  //!< first uop index of the body
    std::uint16_t bodyEnd = 0;    //!< one past the last body uop
    std::uint32_t tripCount = 0;  //!< number of body iterations
};

/** The translation of one macro-op into micro-ops. */
struct UopFlow
{
    UopVec uops;
    std::optional<MicroLoop> loop;

    /** Delivered by the MSROM microsequencer rather than a decoder. */
    bool fromMsrom = false;

    /**
     * Eligible for the micro-op cache. Per-instance randomized
     * translations (timing-noise injection) must not be cached, or the
     * cache would replay one fixed instance and defeat the noise.
     */
    bool cacheable = true;

    /**
     * Number of uops the flow delivers dynamically, expanding the
     * micro-loop as FunctionalExecutor::executeInto does: prologue,
     * the body once per trip (not at all for a zero-trip loop), then
     * the epilogue.
     */
    std::uint64_t
    expandedCount() const
    {
        std::uint64_t count = uops.size();
        if (loop) {
            const std::uint64_t body = loop->bodyEnd - loop->bodyStart;
            count = count - body + body * loop->tripCount;
        }
        return count;
    }

    /**
     * Number of slots the flow occupies in fused-domain structures
     * (uop queue, uop cache): fused pairs count once.
     */
    std::uint64_t
    fusedSlotCount() const
    {
        std::uint64_t slots = 0;
        for (const Uop &uop : uops)
            if (!uop.fusedFollower)
                ++slots;
        return slots;
    }

    /** True iff any uop in the flow executes on the VPU. */
    bool
    usesVpu() const
    {
        for (const Uop &uop : uops)
            if (onVpu(uop))
                return true;
        return false;
    }
};

} // namespace csd

#endif // CSD_UOP_FLOW_HH
