#include <gtest/gtest.h>

#include "sec/aes_attack.hh"
#include "sec/rsa_attack.hh"

namespace csd
{
namespace
{

const std::array<std::uint8_t, 16> aesKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

DefenseConfig
aesDefense(const AesWorkload &workload, bool enabled)
{
    DefenseConfig defense = workload.defense();
    defense.enabled = enabled;
    return defense;
}

TEST(AesAttack, PrimeProbeRecoversKeyWithoutDefense)
{
    const AesWorkload workload = AesWorkload::build(aesKey);
    Victim victim(workload.program, aesDefense(workload, false));
    AesAttackConfig config;
    const auto result = runAesAttack(victim, workload, aesKey, config);
    // The paper's headline: 64 of 128 key bits leak.
    EXPECT_EQ(result.keyBitsRecovered, 64u);
    EXPECT_EQ(result.nibblesCorrect, 16u);
}

TEST(AesAttack, PrimeProbeDefeatedByStealthMode)
{
    const AesWorkload workload = AesWorkload::build(aesKey);
    Victim victim(workload.program, aesDefense(workload, true));
    AesAttackConfig config;
    config.maxSamplesPerCandidate = 40;
    const auto result = runAesAttack(victim, workload, aesKey, config);
    EXPECT_EQ(result.keyBitsRecovered, 0u);
    // Complete obfuscation: every candidate touches on every probe.
    for (unsigned guess = 0; guess < 16; ++guess)
        EXPECT_DOUBLE_EQ(result.touchRate[0][guess], 1.0);
}

TEST(AesAttack, FlushReloadRecoversKeyWithoutDefense)
{
    const AesWorkload workload = AesWorkload::build(aesKey);
    Victim victim(workload.program, aesDefense(workload, false));
    AesAttackConfig config;
    config.flushReload = true;
    const auto result = runAesAttack(victim, workload, aesKey, config);
    EXPECT_EQ(result.keyBitsRecovered, 64u);
}

TEST(AesAttack, FlushReloadDefeatedByStealthMode)
{
    const AesWorkload workload = AesWorkload::build(aesKey);
    Victim victim(workload.program, aesDefense(workload, true));
    AesAttackConfig config;
    config.maxSamplesPerCandidate = 40;
    config.flushReload = true;
    const auto result = runAesAttack(victim, workload, aesKey, config);
    EXPECT_EQ(result.keyBitsRecovered, 0u);
}

RsaWorkload
rsaVictim(std::uint64_t exponent, unsigned bits)
{
    return RsaWorkload::build({0x90abcdefu, 0x12345678u},
                              {0xc0000001u, 0xd0000001u}, exponent, bits);
}

DefenseConfig
rsaDefense(const RsaWorkload &workload, bool enabled)
{
    DefenseConfig defense = workload.defense();
    defense.enabled = enabled;
    defense.watchdogPeriod = 300;
    return defense;
}

TEST(RsaAttack, FlushReloadRecoversExponentWithoutDefense)
{
    const RsaWorkload workload = rsaVictim(0xb72d, 16);
    Victim victim(workload.program, rsaDefense(workload, false));
    const auto result = runRsaAttack(victim, workload);
    EXPECT_EQ(result.accuracy, 1.0)
        << "recovered " << result.bitsCorrect << "/" << result.totalBits;
    EXPECT_EQ(result.recoveredBits.size(), 16u);
}

TEST(RsaAttack, FlushReloadDefeatedByStealthMode)
{
    const RsaWorkload workload = rsaVictim(0xb72d, 16);
    Victim victim(workload.program, rsaDefense(workload, true));
    const auto result = runRsaAttack(victim, workload);
    // The watchdog re-injects decoys faster than the probe interval:
    // the attacker perceives an I-cache hit on `multiply` at the end
    // of (almost) every probe interval (paper Fig. 7b, defended).
    std::size_t multiply_hot = 0;
    for (const auto &[sq, mul] : result.timeline)
        if (mul)
            ++multiply_hot;
    EXPECT_GT(static_cast<double>(multiply_hot) / result.timeline.size(),
              0.9);
    EXPECT_LT(result.accuracy, 0.75);
}

TEST(RsaAttack, PrimeProbeRecoversExponentWithoutDefense)
{
    const RsaWorkload workload = rsaVictim(0x9a5, 12);
    Victim victim(workload.program, rsaDefense(workload, false));
    RsaAttackConfig config;
    config.flushReload = false;
    const auto result = runRsaAttack(victim, workload, config);
    EXPECT_EQ(result.accuracy, 1.0);
}

TEST(RsaAttack, PrimeProbeDefeatedByStealthMode)
{
    const RsaWorkload workload = rsaVictim(0x9a5, 12);
    Victim victim(workload.program, rsaDefense(workload, true));
    RsaAttackConfig config;
    config.flushReload = false;
    const auto result = runRsaAttack(victim, workload, config);
    EXPECT_LT(result.accuracy, 0.75);
    // The probe sees victim-set activity in essentially every interval.
    std::size_t multiply_hot = 0;
    for (const auto &[sq, mul] : result.timeline)
        if (mul)
            ++multiply_hot;
    EXPECT_GT(static_cast<double>(multiply_hot) / result.timeline.size(),
              0.9);
}

TEST(RsaAttack, DifferentExponentsYieldDifferentTraces)
{
    const RsaWorkload a = rsaVictim(0xfff, 12);
    const RsaWorkload b = rsaVictim(0x001, 12);
    Victim va(a.program, rsaDefense(a, false));
    Victim vb(b.program, rsaDefense(b, false));
    const auto ra = runRsaAttack(va, a);
    const auto rb = runRsaAttack(vb, b);
    EXPECT_EQ(ra.accuracy, 1.0);
    EXPECT_EQ(rb.accuracy, 1.0);
    EXPECT_NE(ra.recoveredBits, rb.recoveredBits);
}

} // namespace
} // namespace csd
