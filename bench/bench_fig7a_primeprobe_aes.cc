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
#include <cstdlib>
#include <vector>

#include "bench/common/bench_util.hh"
#include "bench/common/parallel.hh"
#include "common/env.hh"
#include "sec/aes_attack.hh"
#include "sec/observation_ledger.hh"
#include "verify/channel_crosscheck.hh"
#include "verify/leak_prover.hh"

using namespace csd;
using namespace csd::bench;

namespace
{

const std::array<std::uint8_t, 16> key = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

/** Attack outcome plus the ledger's dynamic leakage measurement. */
struct VariantResult
{
    AesAttackResult attack;
    std::vector<SiteMeasure> sites;
    std::uint64_t probes = 0;
};

VariantResult
runOnce(const AesWorkload &workload, const DefenseConfig &defense)
{
    const bool defended = defense.enabled;
    Victim victim(workload.program, defense);
    CacheSetMonitor &monitor = victim.armChannelMonitor();
    ObservationLedger ledger(monitor);

    AesAttackConfig config;
    config.flushReload = false;
    config.maxSamplesPerCandidate = defended ? 40 : 150;
    config.ledger = &ledger;
    VariantResult result;
    result.attack = runAesAttack(victim, workload, key, config);
    result.sites = ledger.siteMeasures();
    result.probes = ledger.totalObservations();

    // Per-set heatmap export (satellite of the channel monitor): the
    // attack is fully deterministic, so a case-derived file name keeps
    // the files byte-identical at any --jobs (the determinism gate
    // covers them).
    if (const std::string &dir = Knobs::process().text(
            Knob::ChannelHeatmapDir);
        !dir.empty()) {
        monitor.exportFiles(dir + "/fig7a_" +
                            (defended ? "defended" : "undefended"));
    }
    return result;
}

/** The ledger measure for one site, or an empty default. */
const SiteMeasure *
findSite(const std::vector<SiteMeasure> &sites, const std::string &name)
{
    for (const SiteMeasure &sm : sites)
        if (sm.site == name)
            return &sm;
    return nullptr;
}

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

/**
 * Publish the static prover's claim for the same victim + defense the
 * dynamic attack runs against: the undefended leakage bound and the
 * residual bound (must be 0 bits / all-closed) under the defense.
 */
LeakProof
reportStaticBound(const AesWorkload &workload, const DefenseConfig &defense)
{
    VerifyOptions options;
    options.taintSources = {workload.keyRange};
    LeakProof proof = proveLeaks(workload.program, options, defense, {});

    std::printf("\nstatic model: %zu leak site(s), %.1f bits/run "
                "undefended, %.1f bits/run defended (%s)\n",
                proof.sites.size(), proof.totalBits,
                proof.residualTotalBits,
                proof.allClosed() ? "all closed" : "NOT closed");
    benchStat("static_leak.sites", static_cast<double>(proof.sites.size()));
    benchStat("static_leak.total_bits", proof.totalBits);
    benchStat("static_leak.residual_bits_defended",
              proof.residualTotalBits);
    benchStat("static_leak.verdict",
              proof.allClosed() ? "closed" : "open");
    return proof;
}

/**
 * The dynamic half of the leakage story (ISSUE 7): the ledger's
 * empirical bits/observation on the monitored T-table site, published
 * next to the static bound and cross-checked against the proof the
 * same way `csd-lint --channels` does. Returns the number of
 * disagreement findings (0 on a healthy build).
 */
std::size_t
reportMeasuredLeak(const LeakProof &proof, const VariantResult &undefended,
                   const VariantResult &defended)
{
    // The attack sweeps all 16 key bytes, so tables t0..t3 all carry
    // tallies; t0 is the canonical secret-dependent site fed into the
    // cross-check (the other tables are symmetric).
    const SiteMeasure *off = findSite(undefended.sites, "t0");
    const SiteMeasure *on = findSite(defended.sites, "t0");

    std::vector<MeasuredChannel> records;
    for (const bool is_defended : {false, true}) {
        const SiteMeasure *sm = is_defended ? on : off;
        if (!sm)
            continue;
        MeasuredChannel mc;
        mc.site = "t0";
        mc.channel = Channel::L1DAccess;
        mc.defended = is_defended;
        mc.setGranular = true;  // PRIME+PROBE
        mc.bitsPerObservation = sm->miBits;
        mc.observations = sm->tally.total();
        records.push_back(std::move(mc));
    }
    const std::vector<Finding> findings =
        crossCheckChannels("fig7a", proof, records);

    std::printf("measured leak (PRIME+PROBE on Te0 line): %.4f bits/obs "
                "undefended, %.4f defended; static bound %s / cross-check "
                "%s\n",
                off ? off->miBits : 0.0, on ? on->miBits : 0.0,
                proof.allClosed() ? "closed" : "open",
                findings.empty() ? "agrees" : "DISAGREES");
    for (const Finding &f : findings)
        std::printf("  %s: %s\n", f.checkId.c_str(), f.message.c_str());

    benchStat("channel.t0.measured_bits_per_obs", off ? off->miBits : 0.0);
    benchStat("channel.t0.measured_bits_defended", on ? on->miBits : 0.0);
    benchStat("channel.t0.observations",
              static_cast<double>(off ? off->tally.total() : 0));
    benchStat("channel.t0.true_positives",
              static_cast<double>(off ? off->tally.tp : 0));
    benchStat("channel.t0.false_positives",
              static_cast<double>(off ? off->tally.fp : 0));
    benchStat("channel.crosscheck_findings",
              static_cast<double>(findings.size()));
    benchStat("channel.probes_total",
              static_cast<double>(undefended.probes + defended.probes));
    return findings.size();
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
    const LeakProof proof = reportStaticBound(workload, defense);

    const std::vector<VariantResult> runs =
        parallelMap<VariantResult>(2, [&](std::size_t idx) {
            DefenseConfig variant = defense;
            variant.enabled = idx == 1;
            return runOnce(workload, variant);
        });
    const AesAttackResult &undefended = runs[0].attack;
    const AesAttackResult &defended = runs[1].attack;
    const std::size_t disagreements =
        reportMeasuredLeak(proof, runs[0], runs[1]);
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
