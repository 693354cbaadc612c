/**
 * The shared dynamic-measurement pieces: the monitored attack-variant
 * runner and the ledger-to-MeasuredChannel conversion the Fig. 7
 * harnesses and `csd-lint --channels` both use.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "sec/channel_measure.hh"
#include "sec/rsa_attack.hh"

namespace csd
{
namespace
{

TEST(ChannelMeasure, MeasuredChannelReadsTheProbedSiteTally)
{
    MonitoredRun run;
    SiteMeasure multiply;
    multiply.site = "multiply";
    multiply.tally = {4, 0, 4, 0};  // a perfect 1-bit channel
    run.sites = {multiply};
    run.probes = 8;

    const MeasuredChannel mc = measuredChannel(rsaMultiplySite, run, false);
    EXPECT_EQ(mc.site, "multiply");
    EXPECT_EQ(mc.channel, Channel::L1IFetch);
    EXPECT_FALSE(mc.setGranular);
    EXPECT_FALSE(mc.defended);
    EXPECT_EQ(mc.observations, 8u);
    EXPECT_DOUBLE_EQ(mc.bitsPerObservation, 1.0);

    // A site the ledger never observed reads as an empty tally.
    const MeasuredChannel t0 = measuredChannel(aesT0Site, run, true);
    EXPECT_TRUE(t0.setGranular);
    EXPECT_TRUE(t0.defended);
    EXPECT_EQ(t0.observations, 0u);
    EXPECT_EQ(t0.bitsPerObservation, 0.0);
}

TEST(ChannelMeasure, MonitoredAttackRecordsProbesAndExportsHeatmaps)
{
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu}, 0xa5c3, 8);
    DefenseConfig defense = workload.defense();
    defense.enabled = false;
    const std::string base =
        ::testing::TempDir() + "/csd_channel_measure_heatmap";

    const MonitoredRun run = runMonitoredAttack(
        workload.program, defense,
        [&](Victim &victim, ObservationLedger &ledger) {
            RsaAttackConfig config;
            config.ledger = &ledger;
            runRsaAttack(victim, workload, config);
        },
        base);

    EXPECT_GT(run.probes, 0u);
    EXPECT_GT(run.tally("multiply").total(), 0u);
    EXPECT_EQ(run.tally("multiply").total() + run.tally("square").total(),
              run.probes);
    EXPECT_TRUE(std::filesystem::exists(base + ".json"));
    EXPECT_TRUE(std::filesystem::exists(base + ".l1i.csv"));
}

} // namespace
} // namespace csd
