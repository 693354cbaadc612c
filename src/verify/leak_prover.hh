/**
 * @file
 * Static side-channel prover (see DESIGN.md "Verification layer").
 *
 * For every leak site the dataflow lint confirms, the prover
 *
 *  1. resolves the secret-dependent footprint into concrete hardware
 *     coordinates (verify/channel_model.hh): for a tainted-index
 *     access, the candidate lines of the table the access indexes;
 *     for a tainted branch, the I-cache lines fetched on exactly one
 *     side of the branch (the cone-exclusive footprint);
 *
 *  2. bounds the leakage: log2(#distinguishable outcomes) bits per
 *     observation — candidate lines for FLUSH+RELOAD, candidate sets
 *     for PRIME+PROBE — summed over the key loop;
 *
 *  3. re-runs the analysis against the defended program form (decoy
 *     injection covering the configured ranges, taint-gated decode)
 *     and emits a verdict per site: closed (the decoy covers every
 *     candidate coordinate, so all observations are identical),
 *     narrowed (some candidates remain distinguishable, residual
 *     bits < the undefended bound), or open.
 *
 * The result is the static half of the paper's Fig. 7 claims: the
 * dynamic PRIME+PROBE / FLUSH+RELOAD harnesses must observe a subset
 * of the sets named here, and a `closed` verdict must coincide with
 * the dynamic attacker recovering nothing.
 */

#ifndef CSD_VERIFY_LEAK_PROVER_HH
#define CSD_VERIFY_LEAK_PROVER_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/addr_range.hh"
#include "csd/defense.hh"
#include "verify/channel_model.hh"
#include "verify/options.hh"
#include "verify/program_verifier.hh"

namespace csd
{

/** Per-site defense verdict. */
enum class LeakVerdict : std::uint8_t
{
    Open,      //!< the defense does not reduce the bound
    Narrowed,  //!< residual bits > 0 but below the undefended bound
    Closed,    //!< every candidate coordinate is covered: 0 bits
};

/** Printable verdict ("open"/"narrowed"/"closed"). */
const char *verdictName(LeakVerdict verdict);

/** The benchmark driver's name for DefenseConfig (perfbench/driver.cc). */
using DefenseModel = DefenseConfig;

/** Prover knobs. */
struct ProveOptions
{
    /**
     * Times each static leak site executes per victim run (the key
     * loop trip count: exponent bits for RSA; 1 for the unrolled
     * AES/Blowfish ciphers). Scales the per-run total bound.
     */
    std::uint64_t keyLoopIterations = 1;

    /** Hardware geometry; default = the simulator's Table I config. */
    ChannelGeometry geometry = ChannelGeometry::fromSimulator();
};

/** The proof artifact for one leak site. */
struct SiteProof
{
    LeakSite site;
    ChannelFootprint footprint;      //!< undefended candidate coords

    double bitsPerObservation = 0;   //!< log2(outcomes), line granularity
    double setBitsPerObservation = 0;//!< log2(outcomes), set granularity
    std::uint64_t observations = 1;  //!< per victim run
    double totalBits = 0;            //!< bitsPerObservation * observations

    LeakVerdict verdict = LeakVerdict::Open;
    double residualBitsPerObservation = 0;  //!< under the defense
    std::size_t residualLines = 0;   //!< candidates the decoy misses
    std::string note;
};

/** All site proofs for one victim program. */
struct LeakProof
{
    std::vector<SiteProof> sites;    //!< sorted by site pc
    double totalBits = 0;            //!< undefended bound, whole run
    double residualTotalBits = 0;    //!< defended bound, whole run
    std::size_t closedSites = 0;
    std::size_t narrowedSites = 0;
    std::size_t openSites = 0;

    bool allClosed() const
    {
        return openSites == 0 && narrowedSites == 0;
    }

    /** Aligned text rendering, one site per line plus a summary. */
    std::string text() const;

    /** JSON object for the csd-lint --channels report. */
    std::string json(const std::string &target) const;
};

/**
 * Run the dataflow leak lint over @p prog and prove a bound for every
 * site under @p defense (its watchdog period and DIFT penalty play no
 * part in the proof). @p options must carry the taint sources (the
 * same ones the lint runs with).
 */
LeakProof proveLeaks(const Program &prog, const VerifyOptions &options,
                     const DefenseConfig &defense,
                     const ProveOptions &prove = {});

/**
 * Re-judge every site of @p baseline without re-running the dataflow:
 * footprints and undefended bounds carry over verbatim; verdicts,
 * residuals, and the summary counters are recomputed under @p defense
 * with @p extra_covered_for naming additional always-hot lines per
 * site (empty function = none). The extra lines model coverage the
 * decoy MSRs don't know about — e.g. a microcode update that appends a
 * constant-time sweep to the site's flow — and count as covered even
 * when stealth-mode decoys are off, since they fire unconditionally.
 * The MCU admission prover uses this to score channel non-regression
 * per update entry (verify/mcu_prover.hh).
 */
LeakProof rejudgeLeaks(
    const LeakProof &baseline, const VerifyOptions &options,
    const DefenseConfig &defense, const ProveOptions &prove,
    const std::function<std::set<Addr>(const SiteProof &)>
        &extra_covered_for = {});

} // namespace csd

#endif // CSD_VERIFY_LEAK_PROVER_HH
