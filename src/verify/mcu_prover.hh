/**
 * @file
 * Static MCU admission prover (see DESIGN.md "MCU admission
 * contract").
 *
 * The paper's §III-C microcode-update path lets a privileged runtime
 * hot-load custom translations into the decoder — the repo's defense
 * distribution channel. This pass proves, per update entry, that a
 * blob is safe to install *before* it can load:
 *
 *  1. integrity / header soundness — signature, checksum over the
 *     data part, revision monotonicity against the engine's installed
 *     revision, autoTranslate consistency, no duplicate targets;
 *
 *  2. architectural containment — an abstract-interpretation walk over
 *     the auto-translated uops proving no architectural GPR / XMM /
 *     flags / memory write escapes unless the header declares
 *     allowArchWrites, and that the engine's GPR→decoder-temp
 *     remapping is injective and total. The remap rules are re-derived
 *     independently here (first-use order onto t0..t5 / vt0..vt3,
 *     flag-write stripping) the way tier_equiv.cc re-derives execUop's
 *     dispatch groups, and the engine's output must be an ordered
 *     subsequence (the optimizer only deletes) of that re-derivation;
 *
 *  3. translation-consistency re-audit — the patched flow each target
 *     opcode would decode to under MCU mode is replayed against the
 *     translation_check structural and micro-table invariants
 *     (register ranges, port binding, latency, energy coverage);
 *
 *  4. channel non-regression — the leak prover's closed/narrowed/open
 *     judgment for every confirmed site of a victim context is
 *     re-scored under the patched translation; any closed→narrowed or
 *     closed→open transition is an error. Sweep loads the update adds
 *     to a flow count as extra always-hot coverage, and the per-entry
 *     static energy delta is published from the constexpr tables.
 *
 * All engine state is read through McuBlobView (a struct of
 * std::functions with a real() factory, like MicroTableView and
 * EntryView) so seeded-defect tests prove every check fires
 * without corrupting a real blob or engine. The prover doubles as the
 * runtime admission hook: mcuAdmissionProver() adapts it to
 * McuEngine::setAdmissionProver so offline lint and applyUpdate are
 * the same code path.
 */

#ifndef CSD_VERIFY_MCU_PROVER_HH
#define CSD_VERIFY_MCU_PROVER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "csd/mcu.hh"
#include "isa/finding.hh"
#include "verify/leak_prover.hh"
#include "verify/translation_check.hh"

namespace csd
{

/** Indirection over blob/engine state for fault-injection tests. */
struct McuBlobView
{
    /** Checksum of the data part (real: mcuChecksum). */
    std::function<std::uint32_t(const McuBlob &)> checksumOf;

    /** Header revision as the admission check sees it. */
    std::function<std::uint32_t(const McuHeader &)> revisionOf;

    /** The uops the engine would install for an entry (real:
     *  identity over translateEntry's output). */
    std::function<UopVec(const UopVec &)> installedOf;

    /** The micro-op tables the patched flow is audited against. */
    MicroTableView tables;

    /**
     * Decoy MSR coverage surviving under the patched translator
     * (real: identity — applyMcu runs before stealth decoy injection,
     * so installing an update never masks a decoy range; see
     * csd.cc::translate). A defect here models a translator whose
     * Replace placement clobbers the decoy pass.
     */
    std::function<AddrRange(const AddrRange &)> decoyCoverageOf;

    /** The shipping engine semantics. */
    static McuBlobView real();
};

/**
 * Victim context the channel non-regression check scores against:
 * the program, the lint options its leak sites were confirmed with,
 * and the defense configuration in force.
 */
struct McuChannelContext
{
    const Program *program = nullptr;
    VerifyOptions options;
    DefenseConfig defense;
    ProveOptions prove;
    std::string name;  //!< target label for messages/JSON
};

/** Prover inputs. */
struct McuProveOptions
{
    McuBlobView view = McuBlobView::real();

    /** Engine revision watermark the blob must exceed. */
    std::uint32_t installedRevision = 0;

    /** Victim context for pass 4; null skips the channel check. */
    const McuChannelContext *channel = nullptr;
};

/** Per-entry audit facts (published alongside the findings). */
struct McuEntryAudit
{
    MacroOpcode target = MacroOpcode::Nop;
    McuPlacement placement = McuPlacement::Append;
    std::size_t nativeOps = 0;       //!< macro-ops in the data part
    std::size_t installedUops = 0;   //!< custom uops after optimization
    /** Static energy delta per execution of the target opcode (nJ):
     *  custom-uop energy, minus the replaced native flow's energy for
     *  Replace placement. */
    double energyDeltaNj = 0;
    /** Always-hot lines the entry's absolute sweep loads cover. */
    std::size_t sweptLines = 0;
};

/** The proof artifact for one blob. */
struct McuAudit
{
    std::vector<McuEntryAudit> entries;

    bool channelChecked = false;
    std::size_t baselineClosed = 0;
    std::size_t baselineNarrowed = 0;
    std::size_t baselineOpen = 0;
    std::size_t patchedClosed = 0;
    std::size_t patchedNarrowed = 0;
    std::size_t patchedOpen = 0;
    double baselineResidualBits = 0;
    double patchedResidualBits = 0;

    /** JSON object for the csd-lint --mcu report. */
    std::string json(const std::string &blob_name) const;
};

/**
 * Prove @p blob admissible. Findings (mcu.* ids) go to @p report;
 * returns the audit facts. The blob is never installed anywhere —
 * translation replay happens against scratch engines.
 */
McuAudit proveMcuAdmission(const McuBlob &blob, VerifyReport &report,
                           const McuProveOptions &opts = {});

/**
 * Adapt the prover to McuEngine::setAdmissionProver. The returned
 * hook re-reads the engine's installed revision at apply time and
 * rejects with the first finding's rendering as the error string.
 */
McuEngine::AdmissionProver mcuAdmissionProver(McuProveOptions opts = {});

} // namespace csd

#endif // CSD_VERIFY_MCU_PROVER_HH
