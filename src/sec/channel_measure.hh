/**
 * @file
 * Dynamic leakage measurement: one monitored attack-variant runner
 * and one ledger-to-MeasuredChannel conversion, shared by the Fig. 7
 * harnesses and the canned measurements of `csd-lint --channels`.
 *
 * runMonitoredAttack() runs an attack against a victim with the
 * channel monitor armed and an ObservationLedger classifying every
 * probe. Each measure*Channels() helper runs a small, deterministic
 * attack loop through it against the canonical lint victim twice —
 * undefended and under the canonical Fig. 7 defense. The ledger's
 * empirical mutual information becomes MeasuredChannel records the
 * cross-check (verify/channel_crosscheck.hh) compares against the
 * static proof.
 *
 * Only the *secret-dependent* site feeds the cross-check: "multiply"
 * for RSA (invoked iff the exponent bit is 1) and "t0" for AES (the
 * key-indexed table). Sites like RSA's "square" run on every exponent
 * bit regardless of the key, so their ledger MI measures observation
 * fidelity of the line, not secret leakage — a defended victim's
 * decoys can leave such a site "observable" while leaking nothing.
 * They are still reported (allSites) for the benches and JSON.
 *
 * The loops are deliberately tiny (a 16-bit exponent, ~100
 * encryptions): the cross-check compares per-observation bounds, which
 * are independent of key width and sample count beyond estimator
 * noise (CrossCheckOptions::toleranceBits absorbs the bias).
 */

#ifndef CSD_SEC_CHANNEL_MEASURE_HH
#define CSD_SEC_CHANNEL_MEASURE_HH

#include <functional>
#include <string>
#include <vector>

#include "sec/observation_ledger.hh"
#include "sec/victim.hh"
#include "verify/channel_crosscheck.hh"

namespace csd
{

/** The secret-dependent site an attack probes, and through what. */
struct ProbedSite
{
    const char *site;  //!< ledger site label
    Channel channel;
    bool setGranular;  //!< PRIME+PROBE (sets) vs F+R (lines)
};

/** FLUSH+RELOAD on RSA's `multiply` I-cache line (Fig. 7b, lint). */
inline constexpr ProbedSite rsaMultiplySite{"multiply", Channel::L1IFetch,
                                            false};

/** PRIME+PROBE on AES's Te0 table (Fig. 7a, lint). */
inline constexpr ProbedSite aesT0Site{"t0", Channel::L1DAccess, true};

/** What one attack variant's ledger recorded. */
struct MonitoredRun
{
    std::vector<SiteMeasure> sites;  //!< every site, sorted by name
    std::uint64_t probes = 0;        //!< probes across all sites

    /** @p site's tally (empty if the site never observed). */
    LedgerTally tally(const std::string &site) const;
};

/**
 * Run @p attack against a cache-only victim of @p program under
 * @p defense, with the channel monitor armed and an ObservationLedger
 * classifying every probe. A non-empty @p heatmap_base exports the
 * monitor's per-set heatmaps there afterwards.
 */
MonitoredRun runMonitoredAttack(
    const Program &program, const DefenseConfig &defense,
    const std::function<void(Victim &, ObservationLedger &)> &attack,
    const std::string &heatmap_base = "");

/** The cross-check record of @p probed in one variant's ledger. */
MeasuredChannel measuredChannel(const ProbedSite &probed,
                                const MonitoredRun &run, bool defended);

/** Measurement knobs (defaults are the lint CI configuration). */
struct ChannelMeasureOptions
{
    /**
     * RSA probe interval in victim instructions. Chosen longer than
     * one decoy watchdog period so a defended slice always includes a
     * decoy fetch of `multiply` — the meter then sees the constant
     * "always hot" signal the defense presents, not probe-phase noise.
     */
    std::uint64_t rsaSliceInstructions = 1200;

    /** Encryptions per AES victim variant (random plaintexts). */
    unsigned aesSamples = 96;

    /** PRNG seed for the AES plaintext stream. */
    std::uint64_t seed = 7;

    /**
     * Defect injection for the lint self-test: added to every
     * cross-check record's measured bits, so a nonzero value makes the
     * defended measurement exceed its closed/residual bound and MUST
     * fail the cross-check. Never set outside tests/CI.
     */
    double injectBits = 0.0;
};

/** One target's dynamic measurement, both defense variants. */
struct ChannelMeasurement
{
    std::string target;  //!< "rsa" or "aes"

    /** Secret-dependent records for crossCheckChannels(). */
    std::vector<MeasuredChannel> crossCheck;

    /** Full ledger classification per variant (all sites). */
    std::vector<SiteMeasure> undefendedSites;
    std::vector<SiteMeasure> defendedSites;

    std::uint64_t observations = 0;  //!< total probes, both variants
};

/**
 * FLUSH+RELOAD on the `multiply` I-cache line across one 16-bit
 * modular exponentiation, undefended and defended (decoy fetches over
 * rsa_multiply, DIFT on the exponent + running result).
 */
ChannelMeasurement measureRsaChannels(const ChannelMeasureOptions &options = {});

/**
 * PRIME+PROBE on one Te0 line over random-plaintext encryptions,
 * undefended and defended (decoy loads over the T-tables, DIFT on the
 * round keys).
 */
ChannelMeasurement measureAesChannels(const ChannelMeasureOptions &options = {});

} // namespace csd

#endif // CSD_SEC_CHANNEL_MEASURE_HH
