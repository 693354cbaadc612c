#include "sec/channel_measure.hh"

#include "common/random.hh"
#include "sec/attacker.hh"
#include "sec/rsa_attack.hh"
#include "sec/victim.hh"
#include "workloads/aes.hh"
#include "workloads/rsa.hh"

namespace csd
{

namespace
{

/** Run @p attack undefended, then under @p defense, and fold each
 *  variant's ledger into one measurement of @p probed. */
ChannelMeasurement
measureVariants(
    const std::string &target, const Program &program,
    DefenseConfig defense,
    const std::function<void(Victim &, ObservationLedger &)> &attack,
    const ProbedSite &probed, double inject_bits)
{
    ChannelMeasurement out;
    out.target = target;
    for (const bool defended : {false, true}) {
        defense.enabled = defended;
        MonitoredRun run = runMonitoredAttack(program, defense, attack);
        out.observations += run.probes;
        MeasuredChannel mc = measuredChannel(probed, run, defended);
        mc.bitsPerObservation += inject_bits;
        out.crossCheck.push_back(std::move(mc));
        (defended ? out.defendedSites : out.undefendedSites) =
            std::move(run.sites);
    }
    return out;
}

} // namespace

LedgerTally
MonitoredRun::tally(const std::string &site) const
{
    for (const SiteMeasure &sm : sites)
        if (sm.site == site)
            return sm.tally;
    return {};
}

MonitoredRun
runMonitoredAttack(
    const Program &program, const DefenseConfig &defense,
    const std::function<void(Victim &, ObservationLedger &)> &attack,
    const std::string &heatmap_base)
{
    Victim victim(program, defense);
    CacheSetMonitor &monitor = victim.armChannelMonitor();
    ObservationLedger ledger(monitor);
    attack(victim, ledger);
    if (!heatmap_base.empty())
        monitor.exportFiles(heatmap_base);
    return {ledger.siteMeasures(), ledger.totalObservations()};
}

MeasuredChannel
measuredChannel(const ProbedSite &probed, const MonitoredRun &run,
                bool defended)
{
    const LedgerTally tally = run.tally(probed.site);
    MeasuredChannel mc;
    mc.site = probed.site;
    mc.channel = probed.channel;
    mc.defended = defended;
    mc.setGranular = probed.setGranular;
    mc.bitsPerObservation = tally.mutualInformationBits();
    mc.observations = tally.total();
    return mc;
}

ChannelMeasurement
measureRsaChannels(const ChannelMeasureOptions &options)
{
    // A short exponent keeps the measurement in lint-CI budget; the
    // cross-checked quantity is per-observation, so width only affects
    // estimator noise. Bit pattern mixes 0s and 1s so the undefended
    // truth actually varies.
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xa5c3, /*exp_bits=*/16);

    const auto attack = [&](Victim &victim, ObservationLedger &ledger) {
        RsaAttackConfig config;
        config.flushReload = true;
        config.sliceInstructions = options.rsaSliceInstructions;
        config.ledger = &ledger;
        runRsaAttack(victim, workload, config);
    };

    return measureVariants("rsa", workload.program, workload.defense(),
                           attack, rsaMultiplySite, options.injectBits);
}

ChannelMeasurement
measureAesChannels(const ChannelMeasureOptions &options)
{
    const AesWorkload workload = AesWorkload::build(
        {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7,
         0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});

    // One Te0 line, chosen like the attack default to avoid aliasing
    // the rk/pt/ct sets.
    constexpr unsigned monitoredLine = 8;
    const Addr monitored =
        workload.tTableRange.start + monitoredLine * cacheBlockSize;

    const auto attack = [&](Victim &victim, ObservationLedger &ledger) {
        const unsigned monitored_set =
            victim.mem().l1d().setIndex(monitored);
        PrimeProbeAttacker pp(victim.mem(), {monitored}, false);
        Random rng(options.seed);
        constexpr auto l1d = CacheSetMonitor::Structure::L1D;

        // Random plaintexts: each encryption's 36 round-1..9 Te0
        // lookups miss the monitored line with probability ~(15/16)^36
        // ~ 10%, so the truth varies and the undefended MI is a real
        // (nonzero) measurement.
        for (unsigned sample = 0; sample < options.aesSamples; ++sample) {
            AesReference::Block pt{};
            for (auto &b : pt)
                b = static_cast<std::uint8_t>(rng.next32());
            workload.setInput(victim.sim().state().mem, pt);

            pp.prime();
            ledger.armSet(aesT0Site.site, l1d, monitored_set);
            victim.invoke();
            const ProbeResult probe = pp.probe()[0];
            // A probe miss means the victim displaced an attacker way.
            ledger.observeSet(aesT0Site.site, l1d, monitored_set,
                              probe.latency, !probe.hit);
        }
    };

    return measureVariants("aes", workload.program, workload.defense(),
                           attack, aesT0Site, options.injectBits);
}

} // namespace csd
