#include "bench/common/crypto_cases.hh"

#include <algorithm>
#include <cstdio>

#include "bench/common/bench_util.hh"
#include "bench/common/parallel.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "verify/channel_crosscheck.hh"
#include "workloads/aes.hh"
#include "workloads/blowfish.hh"
#include "workloads/rijndael.hh"
#include "workloads/rsa.hh"

namespace csd::bench
{

namespace
{

std::array<std::uint8_t, 16>
aesKey()
{
    return {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
}

CryptoCase
makeAesCase(bool decrypt)
{
    const AesWorkload workload = AesWorkload::build(aesKey(), decrypt);
    CryptoCase c;
    c.name = decrypt ? "aes.dec" : "aes.enc";
    c.program = workload.program;
    c.defense = workload.defense();
    const Addr pt = workload.ptAddr;
    c.newInput = [pt](SparseMemory &mem, Random &rng) {
        for (unsigned i = 0; i < 16; ++i)
            mem.writeByte(pt + i, static_cast<std::uint8_t>(rng.next32()));
    };
    return c;
}

CryptoCase
makeRijndaelCase(bool decrypt)
{
    const RijndaelWorkload workload =
        RijndaelWorkload::build(aesKey(), decrypt);
    CryptoCase c;
    c.name = decrypt ? "rijndael.dec" : "rijndael.enc";
    c.program = workload.program;
    c.defense = workload.defense();
    const Addr pt = workload.ptAddr;
    c.newInput = [pt](SparseMemory &mem, Random &rng) {
        for (unsigned i = 0; i < 16; ++i)
            mem.writeByte(pt + i, static_cast<std::uint8_t>(rng.next32()));
    };
    return c;
}

CryptoCase
makeBlowfishCase(bool decrypt)
{
    const std::vector<std::uint8_t> key = {0xde, 0xad, 0xbe, 0xef,
                                           0x01, 0x23, 0x45, 0x67};
    const BlowfishWorkload workload =
        BlowfishWorkload::build(key, decrypt);
    CryptoCase c;
    c.name = decrypt ? "blowfish.dec" : "blowfish.enc";
    c.program = workload.program;
    c.defense = workload.defense();
    const Addr in = workload.inAddr;
    c.newInput = [in](SparseMemory &mem, Random &rng) {
        mem.write(in, 4, rng.next32());
        mem.write(in + 4, 4, rng.next32());
    };
    // Blowfish blocks are cheap: more invocations per run.
    c.invocationsPerRun = 900;
    return c;
}

CryptoCase
makeRsaCase(bool decrypt)
{
    // Public-exponent "encrypt" (0x10001) vs private-key "decrypt"
    // (a longer random-looking exponent).
    const std::uint64_t exponent = decrypt ? 0xb72d9 : 0x10001;
    const unsigned bits = decrypt ? 20 : 17;
    const RsaWorkload workload = RsaWorkload::build(
        {0x90abcdefu, 0x12345678u}, {0xc0000001u, 0xd0000001u},
        exponent, bits);
    CryptoCase c;
    c.name = decrypt ? "rsa.dec" : "rsa.enc";
    c.program = workload.program;
    c.defense = workload.defense();
    c.newInput = [](SparseMemory &, Random &) {};
    c.invocationsPerRun = 2;
    return c;
}

/** Simulate one cell in detailed-timing mode. */
CryptoRunStats
runCell(const std::vector<CryptoCase> &suite, const CryptoCell &cell)
{
    const auto it =
        std::find_if(suite.begin(), suite.end(), [&](const CryptoCase &c) {
            return c.name == cell.caseName;
        });
    if (it == suite.end())
        csd_fatal("crypto cell: no case '", cell.caseName,
                  "' in the suite");
    const CryptoCase &c = *it;

    SimParams params;
    params.mode = SimMode::Detailed;
    params.frontend = cell.frontend;
    DefenseConfig defense = c.defense;
    defense.enabled = cell.stealth;
    defense.watchdogPeriod = cell.watchdogPeriod;
    Victim victim(c.program, defense, params);
    if (victim.csd())
        victim.csd()->decoyStyle = cell.decoyStyle;
    Simulation &sim = victim.sim();
    sim.enableCpiStack();

    Random rng(cell.inputSeed);
    c.run(victim, rng);

    CryptoRunStats stats;
    stats.cycles = sim.cycles();
    stats.uopsExecuted = sim.uopsExecuted();
    stats.decoyUops =
        sim.stats().counterValue("decoy_uops_executed");
    stats.l1dMpki =
        1000.0 * static_cast<double>(sim.mem().l1d().misses()) /
        static_cast<double>(sim.instructions());
    stats.uopCacheHitRate = sim.frontend().uopCache().hitRate();
    stats.cpiCycles = sim.cpiStack()->buckets();
    return stats;
}

} // namespace

std::vector<CryptoCase>
cryptoSuite()
{
    std::vector<CryptoCase> cases;
    cases.push_back(makeAesCase(false));
    cases.push_back(makeAesCase(true));
    cases.push_back(makeRsaCase(false));
    cases.push_back(makeRsaCase(true));
    cases.push_back(makeBlowfishCase(false));
    cases.push_back(makeBlowfishCase(true));
    cases.push_back(makeRijndaelCase(false));
    cases.push_back(makeRijndaelCase(true));
    return cases;
}

void
CryptoCase::run(Victim &victim, Random &rng) const
{
    for (unsigned i = 0; i < invocationsPerRun; ++i) {
        newInput(victim.sim().state().mem, rng);
        victim.invoke();
    }
}

CryptoCell
figureCell(const std::string &case_name, const FrontEndParams &frontend,
           bool stealth, Cycles watchdog_period)
{
    return {case_name, frontend, stealth, watchdog_period,
            DecoyStyle::MicroLoop, 0xbe7c4u + stealth};
}

std::vector<CryptoCell>
stealthPairs(const std::vector<CryptoCase> &suite,
             const std::vector<FrontEndParams> &frontends)
{
    std::vector<CryptoCell> cells;
    for (const CryptoCase &c : suite)
        for (const FrontEndParams &frontend : frontends)
            for (const bool stealth : {false, true})
                cells.push_back(figureCell(c.name, frontend, stealth));
    return cells;
}

std::vector<CryptoRunStats>
runCryptoCells(const std::vector<CryptoCase> &suite,
               const std::vector<CryptoCell> &cells)
{
    return parallelMap<CryptoRunStats>(cells.size(), [&](std::size_t i) {
        return runCell(suite, cells[i]);
    });
}

std::vector<MonitoredRun>
runAttackVariants(
    const Program &program, const std::vector<AttackVariant> &variants,
    const std::function<void(std::size_t, Victim &, ObservationLedger &)>
        &attack)
{
    const std::string &dir =
        Knobs::process().text(Knob::ChannelHeatmapDir);
    return parallelMap<MonitoredRun>(variants.size(), [&](std::size_t i) {
        const AttackVariant &variant = variants[i];
        return runMonitoredAttack(
            program, variant.defense,
            [&](Victim &victim, ObservationLedger &ledger) {
                attack(i, victim, ledger);
            },
            dir.empty() || variant.heatmap.empty()
                ? std::string()
                : dir + "/" + variant.heatmap);
    });
}

LeakProof
reportStaticBound(const Program &program,
                  const std::vector<AddrRange> &secrets,
                  const DefenseConfig &defense, const ProveOptions &prove)
{
    VerifyOptions options;
    options.taintSources = secrets;
    LeakProof proof = proveLeaks(program, options, defense, prove);

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

std::size_t
reportMeasuredLeak(const LeakChannel &channel, const LeakProof &proof,
                   const MonitoredRun &undefended,
                   const MonitoredRun &defended)
{
    const ProbedSite &probed = channel.probed;
    const std::vector<Finding> findings = crossCheckChannels(
        channel.figure, proof,
        {measuredChannel(probed, undefended, false),
         measuredChannel(probed, defended, true)});
    const LedgerTally off = undefended.tally(probed.site);
    const double on_bits =
        defended.tally(probed.site).mutualInformationBits();

    std::printf("measured leak (%s): %.4f bits/obs undefended, %.4f "
                "defended; static bound %s / cross-check %s\n",
                channel.description.c_str(), off.mutualInformationBits(),
                on_bits, proof.allClosed() ? "closed" : "open",
                findings.empty() ? "agrees" : "DISAGREES");
    for (const Finding &f : findings)
        std::printf("  %s: %s\n", f.checkId.c_str(), f.message.c_str());

    const std::string key = std::string("channel.") + probed.site + ".";
    benchStat(key + "measured_bits_per_obs", off.mutualInformationBits());
    benchStat(key + "measured_bits_defended", on_bits);
    benchStat(key + "observations", static_cast<double>(off.total()));
    benchStat(key + "true_positives", static_cast<double>(off.tp));
    benchStat(key + "false_positives", static_cast<double>(off.fp));
    for (const std::string &site : channel.fidelitySites)
        benchStat("channel." + site + ".measured_bits_per_obs",
                  undefended.tally(site).mutualInformationBits());
    benchStat("channel.crosscheck_findings",
              static_cast<double>(findings.size()));
    benchStat("channel.probes_total",
              static_cast<double>(undefended.probes + defended.probes));
    return findings.size();
}

} // namespace csd::bench
