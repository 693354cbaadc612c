/**
 * @file
 * The paper's 8 security-benchmark datapoints (§VI-A): {OpenSSL AES,
 * GnuPG RSA, MiBench Blowfish, MiBench Rijndael} x {encrypt, decrypt},
 * plus the runner that measures each under a front-end configuration
 * with stealth-mode translation on or off.
 */

#ifndef CSD_BENCH_COMMON_CRYPTO_CASES_HH
#define CSD_BENCH_COMMON_CRYPTO_CASES_HH

#include <functional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sec/victim.hh"
#include "sim/simulation.hh"

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

/** Measured statistics of one run. */
struct CryptoRunStats
{
    Tick cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t uopsExecuted = 0;
    std::uint64_t slotsDelivered = 0;
    std::uint64_t decoyUops = 0;
    double l1dMpki = 0.0;
    double uopCacheHitRate = 0.0;
    /** CPI-stack attribution; buckets sum to cycles. */
    std::array<Cycles, numCpiBuckets> cpiCycles{};
};

/** Run one case in detailed-timing mode. */
CryptoRunStats runCryptoCase(const CryptoCase &c, bool stealth,
                             const FrontEndParams &frontend,
                             Cycles watchdog_period = 1000);

} // namespace csd::bench

#endif // CSD_BENCH_COMMON_CRYPTO_CASES_HH
