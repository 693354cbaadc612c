/**
 * @file
 * Fig. 7b — FLUSH+RELOAD attack on square-and-multiply RSA.
 *
 * Paper result: without the defense the attacker detects every
 * invocation of `multiply` (dips/spikes of the reload-latency series)
 * and reads the exponent; with stealth mode the attacker perceives an
 * I-cache hit at the end of every probe interval and learns nothing.
 * The PRIME+PROBE variant is also run (paper: "also defeated").
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/common/bench_util.hh"
#include "bench/common/parallel.hh"
#include "common/env.hh"
#include "sec/observation_ledger.hh"
#include "sec/rsa_attack.hh"
#include "verify/channel_crosscheck.hh"
#include "verify/leak_prover.hh"

using namespace csd;
using namespace csd::bench;

namespace
{

RsaWorkload
makeVictim()
{
    return RsaWorkload::build({0x90abcdefu, 0x12345678u},
                              {0xc0000001u, 0xd0000001u}, 0xb72d, 16);
}

/** Attack outcome plus the ledger's dynamic leakage measurement. */
struct VariantResult
{
    RsaAttackResult attack;
    std::vector<SiteMeasure> sites;
    std::uint64_t probes = 0;
};

/** The ledger measure for one site, or null. */
const SiteMeasure *
findSite(const std::vector<SiteMeasure> &sites, const std::string &name)
{
    for (const SiteMeasure &sm : sites)
        if (sm.site == name)
            return &sm;
    return nullptr;
}

DefenseConfig
makeDefense(const RsaWorkload &workload, bool enabled)
{
    DefenseConfig defense;
    defense.enabled = enabled;
    defense.decoyIRange = workload.multiplyRange;
    defense.taintSources = {workload.exponentRange,
                            workload.resultRange};
    defense.watchdogPeriod = 300;
    return defense;
}

void
report(const char *label, const RsaWorkload &,
       const RsaAttackResult &result)
{
    std::printf("\n--- %s ---\n", label);
    std::printf("probe intervals: %zu\n", result.timeline.size());

    // The Fig. 7b series: multiply-line hot/cold per probe interval
    // (first 100 intervals; '#' = reload hit, '.' = miss).
    std::printf("multiply-line reloads: ");
    for (std::size_t i = 0; i < result.timeline.size() && i < 100; ++i)
        std::printf("%c", result.timeline[i].second ? '#' : '.');
    std::printf("\n");

    std::printf("ground-truth exponent: ");
    // Fall back to printing the parse alignment.
    std::printf("(16 bits)\nrecovered bits:        ");
    for (bool bit : result.recoveredBits)
        std::printf("%d", bit ? 1 : 0);
    std::printf("\nbit accuracy: %s (%u/%u)\n",
                fmt(result.accuracy, 3).c_str(), result.bitsCorrect,
                result.totalBits);
}

/**
 * Publish the static prover's claim for the same victim + defense:
 * one bit per exponent bit through the multiply I-cache lines
 * undefended, 0 bits (closed) under the decoy configuration.
 */
LeakProof
reportStaticBound(const RsaWorkload &workload)
{
    VerifyOptions options;
    options.taintSources = {workload.exponentRange};
    DefenseModel model;
    model.enabled = true;
    model.decoyIRange = workload.multiplyRange;
    model.taintSources = {workload.exponentRange, workload.resultRange};
    ProveOptions prove;
    prove.keyLoopIterations = workload.expBits;
    const LeakProof proof =
        proveLeaks(workload.program, options, model, prove);

    std::printf("static model: %zu leak site(s), %.1f bits/run "
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
 * The dynamic half of the leakage story (ISSUE 7): ledger-measured
 * bits/observation on the FLUSH+RELOAD runs, published next to the
 * static bound and cross-checked against the proof. Only "multiply"
 * (invoked iff the exponent bit is 1) is secret-dependent and feeds
 * the cross-check; "square" runs for every bit, so its MI measures
 * observation fidelity, not leakage, and is published as-is.
 */
std::size_t
reportMeasuredLeak(const LeakProof &proof, const VariantResult &undefended,
                   const VariantResult &defended)
{
    const SiteMeasure *mul_off = findSite(undefended.sites, "multiply");
    const SiteMeasure *mul_on = findSite(defended.sites, "multiply");
    const SiteMeasure *sq_off = findSite(undefended.sites, "square");

    std::vector<MeasuredChannel> records;
    for (const bool is_defended : {false, true}) {
        const SiteMeasure *sm = is_defended ? mul_on : mul_off;
        if (!sm)
            continue;
        MeasuredChannel mc;
        mc.site = "multiply";
        mc.channel = Channel::L1IFetch;
        mc.defended = is_defended;
        mc.setGranular = false;  // FLUSH+RELOAD
        mc.bitsPerObservation = sm->miBits;
        mc.observations = sm->tally.total();
        records.push_back(std::move(mc));
    }
    const std::vector<Finding> findings =
        crossCheckChannels("fig7b", proof, records);

    std::printf("measured leak (FLUSH+RELOAD on multiply line): %.4f "
                "bits/obs undefended, %.4f defended; static bound %s / "
                "cross-check %s\n",
                mul_off ? mul_off->miBits : 0.0,
                mul_on ? mul_on->miBits : 0.0,
                proof.allClosed() ? "closed" : "open",
                findings.empty() ? "agrees" : "DISAGREES");
    for (const Finding &f : findings)
        std::printf("  %s: %s\n", f.checkId.c_str(), f.message.c_str());

    benchStat("channel.multiply.measured_bits_per_obs",
              mul_off ? mul_off->miBits : 0.0);
    benchStat("channel.multiply.measured_bits_defended",
              mul_on ? mul_on->miBits : 0.0);
    benchStat("channel.multiply.observations",
              static_cast<double>(mul_off ? mul_off->tally.total() : 0));
    benchStat("channel.multiply.true_positives",
              static_cast<double>(mul_off ? mul_off->tally.tp : 0));
    benchStat("channel.multiply.false_positives",
              static_cast<double>(mul_off ? mul_off->tally.fp : 0));
    benchStat("channel.square.measured_bits_per_obs",
              sq_off ? sq_off->miBits : 0.0);
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
    benchHeader("Figure 7b",
                "FLUSH+RELOAD attack on GnuPG-style RSA",
                "I-cache side channel on the `multiply` function; "
                "16-bit exponent (scaled, per-bit leak).");

    const RsaWorkload workload = makeVictim();
    const LeakProof proof = reportStaticBound(workload);
    std::printf("exponent (truth): ");
    for (unsigned i = workload.expBits; i-- > 0;)
        std::printf("%d",
                    static_cast<int>((workload.exponent >> i) & 1));
    std::printf("\n");

    // Four independent (attack, defense) runs; PRIME+PROBE is the
    // paper's "also defeated" variant (§VII-A). Every run carries the
    // channel monitor + observation ledger; the FLUSH+RELOAD pair also
    // exports its per-set heatmaps (deterministic case-derived names,
    // so the determinism gate covers them at any --jobs).
    const std::vector<VariantResult> runs =
        parallelMap<VariantResult>(4, [&](std::size_t idx) {
            const bool defended = (idx & 1) != 0;
            const bool flush_reload = idx < 2;
            RsaAttackConfig config;
            config.flushReload = flush_reload;
            Victim victim(workload.program,
                          makeDefense(workload, defended));
            CacheSetMonitor &monitor = victim.armChannelMonitor();
            ObservationLedger ledger(monitor);
            config.ledger = &ledger;
            VariantResult result;
            result.attack = runRsaAttack(victim, workload, config);
            result.sites = ledger.siteMeasures();
            result.probes = ledger.totalObservations();
            if (const std::string &dir = Knobs::process().text(
                    Knob::ChannelHeatmapDir);
                !dir.empty() && flush_reload) {
                monitor.exportFiles(
                    dir + "/fig7b_" +
                    (defended ? "defended" : "undefended"));
            }
            return result;
        });
    const RsaAttackResult &attack_plain = runs[0].attack;
    const RsaAttackResult &attack_defended = runs[1].attack;
    const RsaAttackResult &pp_off = runs[2].attack;
    const RsaAttackResult &pp_on = runs[3].attack;
    const std::size_t disagreements =
        reportMeasuredLeak(proof, runs[0], runs[1]);
    report("stealth-mode OFF (FLUSH+RELOAD)", workload, attack_plain);
    report("stealth-mode ON (FLUSH+RELOAD)", workload, attack_defended);

    Table table({"attack", "defense", "bit accuracy"});
    table.addRow({"FLUSH+RELOAD", "off", fmt(attack_plain.accuracy, 3)});
    table.addRow({"FLUSH+RELOAD", "on", fmt(attack_defended.accuracy, 3)});
    table.addRow({"PRIME+PROBE", "off", fmt(pp_off.accuracy, 3)});
    table.addRow({"PRIME+PROBE", "on", fmt(pp_on.accuracy, 3)});
    std::printf("\n");
    table.print();
    std::printf("\nPaper shape: accuracy 1.0 undefended; defended trace "
                "fully obfuscated (hit every interval).\n");

    return attack_plain.accuracy == 1.0 &&
                   attack_defended.accuracy < 0.8 && disagreements == 0
        ? 0
        : 1;
}
