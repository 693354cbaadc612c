/**
 * @file
 * Unit tests for the static-vs-dynamic leakage cross-check
 * (verify/channel_crosscheck.hh): each finding kind fires exactly on
 * its invariant's boundary, against both a real RSA proof from the
 * prover and hand-built proofs for the narrowed/set-granular corners.
 */

#include <gtest/gtest.h>

#include "verify/channel_crosscheck.hh"
#include "verify/leak_prover.hh"
#include "workloads/rsa.hh"

namespace csd
{
namespace
{

/** A real proof of the RSA instruction channel, (un)defended. */
LeakProof
rsaProof(bool defended)
{
    const RsaWorkload w = RsaWorkload::build(
        {0x90abcdefu, 0x12345678u}, {0xc0000001u, 0xd0000001u}, 0xb72d,
        16);
    VerifyOptions options;
    options.taintSources = {w.exponentRange};
    options.expectLeak = true;
    DefenseConfig defense = w.defense();
    defense.enabled = defended;
    ProveOptions prove;
    prove.keyLoopIterations = 16;
    return proveLeaks(w.program, options, defense, prove);
}

MeasuredChannel
measured(const char *site, Channel channel, bool defended, double bits,
         bool set_granular = false)
{
    MeasuredChannel m;
    m.site = site;
    m.channel = channel;
    m.defended = defended;
    m.setGranular = set_granular;
    m.bitsPerObservation = bits;
    m.observations = 100;
    return m;
}

TEST(ChannelCrossCheck, AgreementProducesNoFindings)
{
    const LeakProof undef = rsaProof(false);
    ASSERT_EQ(undef.sites.size(), 1u);
    const double bound = undef.sites.front().bitsPerObservation;
    EXPECT_DOUBLE_EQ(bound, 1.0);  // tainted branch: taken vs not

    // A healthy measurement sits below the bound undefended and at
    // zero defended-with-closed-proof.
    EXPECT_TRUE(crossCheckChannels(
                    "rsa", undef,
                    {measured("multiply", Channel::L1IFetch, false, 0.38)})
                    .empty());

    const LeakProof def = rsaProof(true);
    ASSERT_TRUE(def.allClosed()) << def.text();
    EXPECT_TRUE(crossCheckChannels(
                    "rsa", def,
                    {measured("multiply", Channel::L1IFetch, true, 0.0)})
                    .empty());
}

TEST(ChannelCrossCheck, DynamicExceedingStaticBoundFires)
{
    const LeakProof proof = rsaProof(false);
    const double bound = proof.sites.front().bitsPerObservation;
    const CrossCheckOptions options;  // toleranceBits = 0.05

    // Just inside the tolerance band: the small-sample bias allowance.
    EXPECT_TRUE(crossCheckChannels(
                    "rsa", proof,
                    {measured("multiply", Channel::L1IFetch, false,
                              bound + options.toleranceBits - 0.01)})
                    .empty());

    // Just past it: the model under-counts the channel.
    const std::vector<Finding> findings = crossCheckChannels(
        "rsa", proof,
        {measured("multiply", Channel::L1IFetch, false,
                  bound + options.toleranceBits + 0.01)});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].checkId, "channel.dynamic-exceeds-static");
    EXPECT_EQ(findings[0].severity, Severity::Error);
    EXPECT_EQ(findings[0].symbol, "multiply");
    EXPECT_EQ(findings[0].pc, proof.sites.front().site.pc);
}

/** The seeded-defect invariant csd-lint's WILL_FAIL ctest relies on:
 *  an inflated defended measurement over an all-closed proof. */
TEST(ChannelCrossCheck, LeakThroughClosedProofFires)
{
    const LeakProof proof = rsaProof(true);
    ASSERT_TRUE(proof.allClosed());

    // Measured 0 (and anything within tolerance) agrees with "closed".
    EXPECT_TRUE(crossCheckChannels(
                    "rsa", proof,
                    {measured("multiply", Channel::L1IFetch, true, 0.05)})
                    .empty());

    const std::vector<Finding> findings = crossCheckChannels(
        "rsa", proof,
        {measured("multiply", Channel::L1IFetch, true, 0.5)});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].checkId, "channel.leak-through-closed");
    EXPECT_NE(findings[0].message.find("proved closed"),
              std::string::npos);
}

TEST(ChannelCrossCheck, UnmodeledChannelFires)
{
    // The RSA proof names only the instruction channel; a leaky
    // data-side measurement has no static site to compare against.
    const LeakProof proof = rsaProof(false);
    const std::vector<Finding> findings = crossCheckChannels(
        "rsa", proof, {measured("t0", Channel::L1DAccess, false, 0.2)});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].checkId, "channel.unmodeled-dynamic-leak");

    // A non-leaky measurement on an unmodeled channel is fine: the
    // attacker pointed a probe somewhere boring and learned nothing.
    EXPECT_TRUE(crossCheckChannels(
                    "rsa", proof,
                    {measured("t0", Channel::L1DAccess, false, 0.01)})
                    .empty());
}

/** A hand-built proof exercising the corners the RSA proof cannot:
 *  narrowed verdicts (residual bound) and set-granular bounds. */
LeakProof
syntheticProof(LeakVerdict verdict, double line_bits, double set_bits,
               double residual)
{
    LeakProof proof;
    SiteProof sp;
    sp.site.pc = 0x400010;
    sp.site.symbol = "table_lookup";
    sp.footprint.channel = Channel::L1DAccess;
    sp.bitsPerObservation = line_bits;
    sp.setBitsPerObservation = set_bits;
    sp.verdict = verdict;
    sp.residualBitsPerObservation = residual;
    proof.sites.push_back(sp);
    proof.totalBits = line_bits;
    switch (verdict) {
      case LeakVerdict::Closed:   proof.closedSites = 1; break;
      case LeakVerdict::Narrowed: proof.narrowedSites = 1; break;
      case LeakVerdict::Open:     proof.openSites = 1; break;
    }
    return proof;
}

TEST(ChannelCrossCheck, NarrowedSitesCompareAgainstResidualBound)
{
    const LeakProof proof =
        syntheticProof(LeakVerdict::Narrowed, 4.0, 2.0, 0.3);

    // Defended measurement within the residual bound: agreement.
    EXPECT_TRUE(crossCheckChannels(
                    "aes", proof,
                    {measured("t0", Channel::L1DAccess, true, 0.3)})
                    .empty());

    // Past residual + tolerance: the narrowing claim is wrong.
    const std::vector<Finding> findings = crossCheckChannels(
        "aes", proof, {measured("t0", Channel::L1DAccess, true, 0.4)});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].checkId, "channel.dynamic-exceeds-static");
    EXPECT_NE(findings[0].message.find("residual"), std::string::npos);
}

TEST(ChannelCrossCheck, SetGranularMeasurementUsesSetBound)
{
    // 16 candidate lines (4 bits) folding into 4 sets (2 bits): a
    // PRIME+PROBE measurement must be held to the 2-bit set bound.
    const LeakProof proof =
        syntheticProof(LeakVerdict::Open, 4.0, 2.0, 0.0);

    const std::vector<Finding> findings = crossCheckChannels(
        "aes", proof,
        {measured("t0", Channel::L1DAccess, false, 3.0,
                  /*set_granular=*/true)});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].checkId, "channel.dynamic-exceeds-static");

    // The same 3.0 bits line-granular is within the 4-bit line bound.
    EXPECT_TRUE(crossCheckChannels(
                    "aes", proof,
                    {measured("t0", Channel::L1DAccess, false, 3.0)})
                    .empty());
}

TEST(ChannelCrossCheck, MultipleMeasurementsYieldOneFindingEach)
{
    const LeakProof proof = rsaProof(true);
    const std::vector<Finding> findings = crossCheckChannels(
        "rsa", proof,
        {measured("multiply", Channel::L1IFetch, true, 0.5),
         measured("multiply", Channel::L1IFetch, true, 0.0),
         measured("ghost", Channel::L1DAccess, false, 0.2)});
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].checkId, "channel.leak-through-closed");
    EXPECT_EQ(findings[1].checkId, "channel.unmodeled-dynamic-leak");
}

} // namespace
} // namespace csd
