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

/** Fold one variant's ledger into the measurement record. */
void
collectVariant(ChannelMeasurement &out, ObservationLedger &ledger,
               bool defended, const std::string &secret_site,
               Channel channel, bool set_granular, double inject_bits)
{
    std::vector<SiteMeasure> sites = ledger.siteMeasures();
    out.observations += ledger.totalObservations();

    MeasuredChannel mc;
    mc.site = secret_site;
    mc.channel = channel;
    mc.defended = defended;
    mc.setGranular = set_granular;
    const LedgerTally tally = ledger.tally(secret_site);
    mc.bitsPerObservation = tally.mutualInformationBits() + inject_bits;
    mc.observations = tally.total();
    out.crossCheck.push_back(std::move(mc));

    auto &dest = defended ? out.defendedSites : out.undefendedSites;
    dest = std::move(sites);
}

} // namespace

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

    ChannelMeasurement out;
    out.target = "rsa";

    for (const bool defended : {false, true}) {
        DefenseConfig defense = workload.defense();
        defense.enabled = defended;
        Victim victim(workload.program, defense);
        CacheSetMonitor &monitor = victim.armChannelMonitor();
        ObservationLedger ledger(monitor);

        RsaAttackConfig config;
        config.flushReload = true;
        config.sliceInstructions = options.rsaSliceInstructions;
        config.ledger = &ledger;
        runRsaAttack(victim, workload, config);

        collectVariant(out, ledger, defended, "multiply",
                       Channel::L1IFetch, /*set_granular=*/false,
                       options.injectBits);
    }
    return out;
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

    ChannelMeasurement out;
    out.target = "aes";

    for (const bool defended : {false, true}) {
        DefenseConfig defense = workload.defense();
        defense.enabled = defended;
        Victim victim(workload.program, defense);
        CacheSetMonitor &monitor = victim.armChannelMonitor();
        ObservationLedger ledger(monitor);
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
            ledger.armSet("t0", l1d, monitored_set);
            victim.invoke();
            const ProbeResult probe = pp.probe()[0];
            // A probe miss means the victim displaced an attacker way.
            ledger.observeSet("t0", l1d, monitored_set, probe.latency,
                              !probe.hit);
        }

        collectVariant(out, ledger, defended, "t0", Channel::L1DAccess,
                       /*set_granular=*/true, options.injectBits);
    }
    return out;
}

} // namespace csd
