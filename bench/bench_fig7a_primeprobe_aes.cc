/**
 * @file
 * Fig. 7a — PRIME+PROBE attack on AES, with and without stealth mode.
 *
 * Paper result: without the defense, 64 of the 128 key bits are
 * compromised (one 4-bit nibble per byte, the steep 100%-rate dips of
 * the figure); with stealth-mode translation every probe sees a hit
 * and no candidate separates from the rest.
 */

#include <cstdio>

#include "bench/common/bench_util.hh"
#include "bench/common/crypto_cases.hh"
#include "sec/aes_attack.hh"

using namespace csd;
using namespace csd::bench;

namespace
{

const std::array<std::uint8_t, 16> key = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

void
report(const char *label, const AesAttackResult &result)
{
    std::printf("\n--- %s ---\n", label);
    std::printf("encryptions attempted: %llu\n",
                static_cast<unsigned long long>(result.encryptions));
    std::printf("key bits compromised:  %u / 128 "
                "(paper: 64 undefended, 0 defended)\n",
                result.keyBitsRecovered);

    // The Fig. 7a series: per-guess touch rate for the first key byte
    // (the "steep dips" appear as sub-1.0 rates for wrong guesses).
    Table table({"pt[0] high nibble", "monitored-line touch rate",
                 "verdict"});
    for (unsigned guess = 0; guess < 16; ++guess) {
        const double rate = result.touchRate[0][guess];
        table.addRow({fmt(static_cast<double>(guess), 0), fmt(rate, 3),
                      rate >= 1.0 ? "candidate (100% hits)"
                                  : "eliminated (dip)"});
    }
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Figure 7a",
                "PRIME+PROBE attack on OpenSSL-style T-table AES",
                "Chosen plaintexts; D-cache side channel; scaled sample"
                " counts (see DESIGN.md).");
    const AesWorkload workload = AesWorkload::build(key);
    const DefenseConfig defense = workload.defense();
    std::printf("\n");
    const LeakProof proof =
        reportStaticBound(workload.program, {workload.keyRange}, defense);

    // The attack is fully deterministic, so case-derived heatmap file
    // names stay byte-identical at any --jobs.
    DefenseConfig off = defense;
    off.enabled = false;
    std::vector<AesAttackResult> attacks(2);
    const std::vector<MonitoredRun> ledgers = runAttackVariants(
        workload.program,
        {{off, "fig7a_undefended"}, {defense, "fig7a_defended"}},
        [&](std::size_t i, Victim &victim, ObservationLedger &ledger) {
            AesAttackConfig config;
            config.flushReload = false;
            config.maxSamplesPerCandidate = i == 1 ? 40 : 150;
            config.ledger = &ledger;
            attacks[i] = runAesAttack(victim, workload, key, config);
        });
    const AesAttackResult &undefended = attacks[0];
    const AesAttackResult &defended = attacks[1];
    // The attack sweeps all 16 key bytes, so tables t0..t3 all carry
    // tallies; t0 is the canonical secret-dependent site fed into the
    // cross-check (the other tables are symmetric).
    const std::size_t disagreements = reportMeasuredLeak(
        {"fig7a", aesT0Site, "PRIME+PROBE on Te0 line", {}}, proof,
        ledgers[0], ledgers[1]);
    report("stealth-mode OFF", undefended);
    report("stealth-mode ON", defended);

    std::printf("\nSummary: %u bits leak without CSD, %u with CSD "
                "(paper: 64 -> 0)\n",
                undefended.keyBitsRecovered, defended.keyBitsRecovered);
    return undefended.keyBitsRecovered == 64 &&
                   defended.keyBitsRecovered == 0 && disagreements == 0
        ? 0
        : 1;
}
