#include <gtest/gtest.h>

#include "common/random.hh"
#include "sec/attacker.hh"
#include "sec/victim.hh"
#include "workloads/blowfish.hh"

namespace csd
{
namespace
{

/*
 * First-round distinguisher on Blowfish: the round-1 S0 lookup index
 * is the high byte of (L ^ P[0]), so inputs chosen to hit / avoid a
 * monitored S0 line are attacker-distinguishable through the D-cache
 * unless stealth mode is on. (The MiBench datapoints of Fig. 8 are
 * vulnerable through exactly this surface, paper SVI-A.)
 */

std::uint32_t
inputForIndex(std::uint32_t p0, unsigned idx, Random &rng)
{
    // (L ^ p0) >> 24 == idx  =>  L's top byte = idx ^ (p0 >> 24).
    const std::uint32_t top =
        (static_cast<std::uint32_t>(idx) ^ (p0 >> 24)) & 0xff;
    return (top << 24) | (rng.next32() & 0xffffff);
}

double
touchRate(Victim &victim, const BlowfishWorkload &workload,
          Addr monitored, std::uint32_t p0, unsigned target_index,
          unsigned samples)
{
    FlushReloadAttacker attacker(victim.mem(), {monitored}, false);
    Random rng(31 + target_index);
    unsigned touched = 0;
    for (unsigned s = 0; s < samples; ++s) {
        const std::uint32_t left = inputForIndex(p0, target_index, rng);
        workload.setInput(victim.sim().state().mem, left, rng.next32());
        attacker.flush();
        victim.invoke();
        if (attacker.reload()[0].hit)
            ++touched;
    }
    return static_cast<double>(touched) / samples;
}

TEST(BlowfishAttack, FirstRoundIndexDistinguishableWithoutDefense)
{
    const std::vector<std::uint8_t> key = {0xca, 0xfe, 0xba, 0xbe};
    const BlowfishWorkload workload = BlowfishWorkload::build(key);
    const auto sched = BlowfishReference::expandKey(key);
    const Addr monitored = workload.sboxRange.start + 8 * cacheBlockSize;

    DefenseConfig defense;  // off
    Victim victim(workload.program, defense);

    // Inputs steering the round-1 index INTO line 8: always touched.
    const double hit_rate = touchRate(victim, workload, monitored,
                                      sched.p[0], 8 * 16 + 3, 24);
    EXPECT_DOUBLE_EQ(hit_rate, 1.0);

    // Inputs steering it elsewhere: the line is only touched by the
    // other 31 S0 accesses -> clearly below 100%.
    const double miss_rate = touchRate(victim, workload, monitored,
                                       sched.p[0], 3 * 16 + 3, 24);
    EXPECT_LT(miss_rate, 1.0);
}

TEST(BlowfishAttack, StealthModeRemovesTheDistinguisher)
{
    const std::vector<std::uint8_t> key = {0xca, 0xfe, 0xba, 0xbe};
    const BlowfishWorkload workload = BlowfishWorkload::build(key);
    const auto sched = BlowfishReference::expandKey(key);
    const Addr monitored = workload.sboxRange.start + 8 * cacheBlockSize;

    DefenseConfig defense = workload.defense();
    defense.watchdogPeriod = 500;
    Victim victim(workload.program, defense);

    const double rate_in = touchRate(victim, workload, monitored,
                                     sched.p[0], 8 * 16 + 3, 16);
    const double rate_out = touchRate(victim, workload, monitored,
                                      sched.p[0], 3 * 16 + 3, 16);
    EXPECT_DOUBLE_EQ(rate_in, 1.0);
    EXPECT_DOUBLE_EQ(rate_out, 1.0);  // obfuscated: identical views
}

} // namespace
} // namespace csd
