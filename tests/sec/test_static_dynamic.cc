/**
 * Cross-validation: the static side-channel prover and the dynamic
 * attack harnesses must name the same hardware coordinates.
 *
 * Soundness direction: every cache set the dynamic attacker observes
 * secret-dependent activity in must be among the sets the static
 * model names (static says-leaks ⊇ dynamic observes-leaks).
 * Completeness direction: when the static model proves every site
 * `closed` under a defense configuration, the dynamic attacker running
 * against that same configuration recovers nothing. Each setup holds
 * one DefenseConfig that both the prover and the Victim take.
 */

#include <gtest/gtest.h>

#include <set>

#include "sec/aes_attack.hh"
#include "sec/rsa_attack.hh"
#include "verify/leak_prover.hh"

namespace csd
{
namespace
{

const std::array<std::uint8_t, 16> aesKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

// ---------------------------------------------------------------------
// RSA: instruction-side channel (paper Fig. 7b).
// ---------------------------------------------------------------------

struct RsaSetup
{
    RsaWorkload workload;
    VerifyOptions options;
    DefenseConfig defense;
    ProveOptions prove;
};

RsaSetup
rsaSetup(std::uint64_t exponent, unsigned bits, bool defended)
{
    RsaSetup s{RsaWorkload::build({0x90abcdefu, 0x12345678u},
                                  {0xc0000001u, 0xd0000001u}, exponent,
                                  bits),
               {}, {}, {}};
    s.options.taintSources = {s.workload.exponentRange};
    s.options.expectLeak = true;
    s.defense = s.workload.defense();
    s.defense.enabled = defended;
    s.defense.watchdogPeriod = 300;
    s.prove.keyLoopIterations = bits;
    return s;
}

TEST(StaticDynamic, RsaStaticSetsCoverTheMonitoredInstructionLine)
{
    const RsaSetup s = rsaSetup(0xb72d, 16, /*defended=*/false);
    const LeakProof proof =
        proveLeaks(s.workload.program, s.options, s.defense, s.prove);
    ASSERT_EQ(proof.sites.size(), 1u);
    const ChannelFootprint &fp = proof.sites.front().footprint;
    ASSERT_EQ(fp.channel, Channel::L1IFetch);

    // The dynamic FLUSH+RELOAD attack monitors the first line of
    // rsa_multiply; the static footprint must contain it...
    const ChannelGeometry &g = s.prove.geometry;
    const unsigned monitored =
        g.setIndexOf(Channel::L1IFetch, s.workload.multiplyRange.start);
    EXPECT_NE(std::find(fp.sets.begin(), fp.sets.end(), monitored),
              fp.sets.end());
    // ...and the attack actually succeeds through that line, so the
    // static claim is about a channel that demonstrably carries bits.
    Victim victim(s.workload.program, s.defense);
    const RsaAttackResult result = runRsaAttack(victim, s.workload);
    EXPECT_EQ(result.accuracy, 1.0);

    // Negative control: the square function runs regardless of the key
    // bit, so its sets must NOT be claimed as secret-distinguishing.
    const unsigned square =
        g.setIndexOf(Channel::L1IFetch, s.workload.squareRange.start);
    EXPECT_EQ(std::find(fp.sets.begin(), fp.sets.end(), square),
              fp.sets.end());
}

TEST(StaticDynamic, RsaStaticClosedImpliesDynamicDefeat)
{
    const RsaSetup s = rsaSetup(0xb72d, 16, /*defended=*/true);
    const LeakProof proof =
        proveLeaks(s.workload.program, s.options, s.defense, s.prove);
    ASSERT_TRUE(proof.allClosed()) << proof.text();

    Victim victim(s.workload.program, s.defense);
    const RsaAttackResult result = runRsaAttack(victim, s.workload);
    EXPECT_LT(result.accuracy, 0.75)
        << "static model said closed but the attacker recovered "
        << result.bitsCorrect << "/" << result.totalBits << " bits";
}

// ---------------------------------------------------------------------
// AES: data-side channel (paper Fig. 7a).
// ---------------------------------------------------------------------

struct AesSetup
{
    AesWorkload workload;
    VerifyOptions options;
    DefenseConfig defense;
};

AesSetup
aesSetup(bool defended)
{
    AesSetup s{AesWorkload::build(aesKey), {}, {}};
    s.options.taintSources = {s.workload.keyRange};
    s.options.expectLeak = true;
    s.defense = s.workload.defense();
    s.defense.enabled = defended;
    return s;
}

TEST(StaticDynamic, AesStaticSetsCoverEveryMonitoredTableLine)
{
    const AesSetup s = aesSetup(/*defended=*/false);
    const LeakProof proof =
        proveLeaks(s.workload.program, s.options, s.defense, {});
    ASSERT_EQ(proof.sites.size(), 160u);

    std::set<unsigned> static_sets;
    for (const SiteProof &sp : proof.sites) {
        EXPECT_EQ(sp.footprint.channel, Channel::L1DAccess);
        static_sets.insert(sp.footprint.sets.begin(),
                           sp.footprint.sets.end());
    }

    // The dynamic attack monitors line `monitoredLine` of T_(b mod 4)
    // for every byte position b; each such set must be statically
    // claimed (says-leaks ⊇ observes-leaks).
    const ChannelGeometry g = ChannelGeometry::fromSimulator();
    const AesAttackConfig config;
    for (unsigned table = 0; table < 4; ++table) {
        const Addr monitored = s.workload.tTableRange.start +
                               table * 1024 +
                               config.monitoredLine * cacheBlockSize;
        EXPECT_TRUE(static_sets.count(
            g.setIndexOf(Channel::L1DAccess, monitored)))
            << "table " << table;
    }

    // And the attack through those lines really recovers the key.
    Victim victim(s.workload.program, s.defense);
    const AesAttackResult result =
        runAesAttack(victim, s.workload, aesKey, config);
    EXPECT_EQ(result.keyBitsRecovered, 64u);
}

TEST(StaticDynamic, AesStaticClosedImpliesDynamicDefeat)
{
    const AesSetup s = aesSetup(/*defended=*/true);
    const LeakProof proof =
        proveLeaks(s.workload.program, s.options, s.defense, {});
    ASSERT_TRUE(proof.allClosed()) << proof.text();

    Victim victim(s.workload.program, s.defense);
    AesAttackConfig config;
    config.maxSamplesPerCandidate = 40;
    const AesAttackResult result =
        runAesAttack(victim, s.workload, aesKey, config);
    EXPECT_EQ(result.keyBitsRecovered, 0u)
        << "static model said closed but the attacker recovered bits";
}

// A defense with a coverage hole must be caught statically BEFORE the
// dynamic harness has to demonstrate the exploit: the old aes-dec
// configuration (decoys over Td0..Td3 but not Td4) is exactly such a
// hole, reconstructed here explicitly.
TEST(StaticDynamic, StaticProverFlagsDecoyCoverageHole)
{
    const AesWorkload w = AesWorkload::build(aesKey, /*decrypt=*/true);
    VerifyOptions options;
    options.taintSources = {w.keyRange};
    // Td4 is the trailing 1 KiB of the (fixed) tTableRange.
    DefenseConfig holed = w.defense();
    holed.decoyDRange = AddrRange(w.tTableRange.start,
                                  w.tTableRange.end - 1024);

    const LeakProof proof = proveLeaks(w.program, options, holed, {});
    EXPECT_EQ(proof.sites.size(), 160u);
    EXPECT_EQ(proof.openSites, 16u);  // the 16 last-round Td4 lookups
    EXPECT_EQ(proof.closedSites, 144u);

    // The shipped defense closes them all.
    EXPECT_TRUE(proveLeaks(w.program, options, w.defense(), {}).allClosed());
}

} // namespace
} // namespace csd
