/**
 * @file
 * The crypto figure family: the paper's 8 security-benchmark
 * datapoints (§VI-A), {OpenSSL AES, GnuPG RSA, MiBench Blowfish,
 * MiBench Rijndael} x {encrypt, decrypt}, and the Fig. 7 attacks.
 *
 * Figs. 8-11, the uop-cache study and the decoy ablation are views:
 * each lists the CryptoCells it needs, runCryptoCells() simulates them,
 * and the harness renders tables from the results in request order.
 * Figs. 7a/7b run their attack variants through runAttackVariants()
 * and publish the static bound and the measured leak through one
 * report (reportStaticBound(), reportMeasuredLeak()).
 */

#ifndef CSD_BENCH_COMMON_CRYPTO_CASES_HH
#define CSD_BENCH_COMMON_CRYPTO_CASES_HH

#include <functional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sec/channel_measure.hh"
#include "sec/victim.hh"
#include "sim/simulation.hh"
#include "verify/leak_prover.hh"

namespace csd::bench
{

/** One security-benchmark datapoint. */
struct CryptoCase
{
    std::string name;
    Program program;
    DefenseConfig defense;  //!< the workload's canonical defense
    std::function<void(SparseMemory &, Random &)> newInput;
    unsigned invocationsPerRun = 300;

    /** Invoke @p victim invocationsPerRun times, each on a fresh
     *  input drawn from @p rng. */
    void run(Victim &victim, Random &rng) const;
};

/** Build all 8 datapoints. */
std::vector<CryptoCase> cryptoSuite();

/** One detailed-mode run of a crypto case: the unit a view requests. */
struct CryptoCell
{
    std::string caseName;  //!< a CryptoCase::name of the suite
    FrontEndParams frontend;
    bool stealth = false;
    Cycles watchdogPeriod = 1000;
    DecoyStyle decoyStyle = DecoyStyle::MicroLoop;
    std::uint64_t inputSeed = 0;

    bool operator==(const CryptoCell &) const = default;
};

/** The paper-figure cell: inputs seeded per stealth setting. */
CryptoCell figureCell(const std::string &case_name,
                      const FrontEndParams &frontend, bool stealth,
                      Cycles watchdog_period = 1000);

/** Per case of @p suite, per front end: the base then the stealth
 *  figure cell. */
std::vector<CryptoCell>
stealthPairs(const std::vector<CryptoCase> &suite,
             const std::vector<FrontEndParams> &frontends);

/** Measured statistics of one run. */
struct CryptoRunStats
{
    Tick cycles = 0;
    std::uint64_t uopsExecuted = 0;
    std::uint64_t decoyUops = 0;
    double l1dMpki = 0.0;
    double uopCacheHitRate = 0.0;
    /** CPI-stack attribution; buckets sum to cycles. */
    std::array<Cycles, numCpiBuckets> cpiCycles{};
};

/** Simulate @p cells of @p suite (across --jobs threads); results
 *  come back in request order. */
std::vector<CryptoRunStats>
runCryptoCells(const std::vector<CryptoCase> &suite,
               const std::vector<CryptoCell> &cells);

// --- Fig. 7 attacks --------------------------------------------------------

/** One attack variant: its defense and its heatmap file stem. */
struct AttackVariant
{
    DefenseConfig defense;
    /** Stem under CSD_CHANNEL_HEATMAP_DIR; empty = no export. */
    std::string heatmap;
};

/**
 * Run attack(i, victim, ledger) for every variant i against @p program
 * (runMonitoredAttack, across --jobs threads) and return the ledgers
 * in request order. The attack keeps its own outcome, in slot i.
 */
std::vector<MonitoredRun> runAttackVariants(
    const Program &program, const std::vector<AttackVariant> &variants,
    const std::function<void(std::size_t, Victim &, ObservationLedger &)>
        &attack);

/**
 * Print and publish (static_leak.*) the static prover's bound for
 * @p program with @p secrets tainted: the undefended leakage and the
 * residual under @p defense.
 */
LeakProof reportStaticBound(const Program &program,
                            const std::vector<AddrRange> &secrets,
                            const DefenseConfig &defense,
                            const ProveOptions &prove = {});

/** How a figure reports its measured channel. */
struct LeakChannel
{
    std::string figure;       //!< cross-check target, e.g. "fig7a"
    ProbedSite probed;        //!< the secret-dependent site
    std::string description;  //!< e.g. "PRIME+PROBE on Te0 line"
    /** Secret-independent sites: their undefended MI measures
     *  observation fidelity and is published, not cross-checked. */
    std::vector<std::string> fidelitySites;
};

/**
 * The dynamic half of the leakage story: the ledger's bits per
 * observation on @p channel, printed and published (channel.*) next
 * to the static bound and cross-checked against @p proof the way
 * `csd-lint --channels` does. Returns the number of disagreement
 * findings (0 on a healthy build).
 */
std::size_t reportMeasuredLeak(const LeakChannel &channel,
                               const LeakProof &proof,
                               const MonitoredRun &undefended,
                               const MonitoredRun &defended);

} // namespace csd::bench

#endif // CSD_BENCH_COMMON_CRYPTO_CASES_HH
