#include <gtest/gtest.h>

#include "sec/victim.hh"
#include "workloads/aes.hh"
#include "workloads/blowfish.hh"
#include "workloads/rijndael.hh"
#include "workloads/rsa.hh"

namespace csd
{
namespace
{

const std::array<std::uint8_t, 16> key = {1, 2,  3,  4,  5,  6,  7, 8,
                                          9, 10, 11, 12, 13, 14, 15, 16};

TEST(Victim, UndefendedHasNoCsdAndNoDiftPenalty)
{
    const AesWorkload workload = AesWorkload::build(key);
    DefenseConfig defense;  // disabled
    Victim victim(workload.program, defense);
    EXPECT_EQ(victim.csd(), nullptr);
    EXPECT_EQ(victim.mem().params().extraL2Latency, 0u);
    EXPECT_FALSE(victim.defended());
}

TEST(Victim, DefendedWiresDiftPenaltyAndDecoder)
{
    const AesWorkload workload = AesWorkload::build(key);
    Victim victim(workload.program, workload.defense());
    EXPECT_NE(victim.csd(), nullptr);
    EXPECT_EQ(victim.mem().params().extraL2Latency, 4u);
    EXPECT_TRUE(victim.csd()->stealthArmed());
}

TEST(Victim, InvokeRunsOneFullOperation)
{
    const AesWorkload workload = AesWorkload::build(key);
    DefenseConfig defense;
    Victim victim(workload.program, defense);
    const auto rk = AesReference::expandKey(key);
    AesReference::Block pt{};
    for (unsigned i = 0; i < 16; ++i)
        pt[i] = static_cast<std::uint8_t>(3 * i + 1);
    workload.setInput(victim.sim().state().mem, pt);
    victim.invoke();
    EXPECT_EQ(workload.output(victim.sim().state().mem),
              AesReference::encrypt(rk, pt));

    // Invoking again (new input) reuses all machine state.
    const auto instrs_after_first = victim.sim().instructions();
    workload.setInput(victim.sim().state().mem, pt);
    victim.invoke();
    EXPECT_GT(victim.sim().instructions(), instrs_after_first);
}

TEST(Victim, InvokeSliceResumesAndRestarts)
{
    const AesWorkload workload = AesWorkload::build(key);
    DefenseConfig defense;
    Victim victim(workload.program, defense);
    AesReference::Block pt{};
    workload.setInput(victim.sim().state().mem, pt);

    // Slice through one encryption.
    unsigned slices = 0;
    while (victim.invokeSlice(100)) {
        ++slices;
        ASSERT_LT(slices, 100u);
    }
    EXPECT_GT(slices, 2u);
    // Next slice starts a fresh invocation automatically.
    EXPECT_TRUE(victim.invokeSlice(10));
}

TEST(Victim, DefendedRunInjectsDecoys)
{
    const AesWorkload workload = AesWorkload::build(key);
    Victim victim(workload.program, workload.defense());
    AesReference::Block pt{};
    workload.setInput(victim.sim().state().mem, pt);
    victim.invoke();
    EXPECT_GT(victim.sim().stats().counterValue("decoy_uops_executed"),
              0u);
    // The whole T-table region is resident afterwards.
    for (Addr addr = workload.tTableRange.start;
         addr < workload.tTableRange.end; addr += cacheBlockSize) {
        EXPECT_TRUE(victim.mem().l1d().contains(addr) ||
                    victim.mem().l2().contains(addr));
    }
}

/** A crypto workload's program and canonical defense. */
struct CanonicalDefense
{
    const char *name;
    Program program;
    DefenseConfig defense;
};

std::vector<CanonicalDefense>
canonicalDefenses()
{
    const AesWorkload aes = AesWorkload::build(key);
    const RsaWorkload rsa = RsaWorkload::build(
        {0x90abcdefu, 0x12345678u}, {0xc0000001u, 0xd0000001u}, 0xb72d, 16);
    const BlowfishWorkload blowfish = BlowfishWorkload::build(
        {0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67});
    const RijndaelWorkload rijndael = RijndaelWorkload::build(key);
    return {{"aes", aes.program, aes.defense()},
            {"rsa", rsa.program, rsa.defense()},
            {"blowfish", blowfish.program, blowfish.defense()},
            {"rijndael", rijndael.program, rijndael.defense()}};
}

/** The arming sequence Victim wired by hand before
 *  ContextSensitiveDecoder::arm existed. */
void
armByHand(MsrFile &msrs, TaintTracker &taint, const DefenseConfig &defense)
{
    for (const AddrRange &source : defense.taintSources)
        if (source.valid())
            taint.addTaintSource(source);
    msrs.setWatchdogPeriod(defense.watchdogPeriod);
    if (defense.decoyDRange.valid())
        msrs.setDecoyDRange(0, defense.decoyDRange);
    if (defense.decoyIRange.valid())
        msrs.setDecoyIRange(0, defense.decoyIRange);
    msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
}

/** Every MSR the decoder reads, as raw rdmsr values. */
std::vector<std::uint64_t>
msrValues(const MsrFile &msrs)
{
    std::vector<std::uint64_t> values = {
        msrs.read(MsrAddr::CsdControl),
        msrs.read(MsrAddr::WatchdogPeriod)};
    for (const MsrAddr base : {MsrAddr::DecoyIRangeBase,
                               MsrAddr::DecoyDRangeBase}) {
        for (unsigned i = 0; i < 2 * numDecoyRanges; ++i)
            values.push_back(msrs.read(static_cast<MsrAddr>(
                static_cast<std::uint32_t>(base) + i)));
    }
    for (unsigned i = 0; i < numTaintedPcRegs; ++i)
        values.push_back(msrs.read(static_cast<MsrAddr>(
            static_cast<std::uint32_t>(MsrAddr::TaintedPcBase) + i)));
    return values;
}

TEST(Defense, ArmMatchesTheHandWiredSequence)
{
    for (const CanonicalDefense &c : canonicalDefenses()) {
        DefenseConfig defense = c.defense;
        defense.watchdogPeriod = 300;

        MsrFile armed_msrs;
        TaintTracker armed_taint;
        ContextSensitiveDecoder armed(armed_msrs, &armed_taint);
        armed.arm(defense);

        MsrFile hand_msrs;
        TaintTracker hand_taint;
        ContextSensitiveDecoder hand(hand_msrs, &hand_taint);
        armByHand(hand_msrs, hand_taint, defense);

        EXPECT_EQ(msrValues(armed_msrs), msrValues(hand_msrs)) << c.name;
        EXPECT_EQ(armed.reportedEpoch(), hand.reportedEpoch()) << c.name;
        EXPECT_EQ(armed.translationEpoch(), hand.translationEpoch())
            << c.name;
        EXPECT_EQ(armed.pendingRanges(), hand.pendingRanges()) << c.name;
        // Same shadow-memory taint over every source and its margins.
        for (const AddrRange &source : defense.taintSources) {
            EXPECT_TRUE(armed_taint.memTainted(
                source.start, static_cast<unsigned>(source.size())))
                << c.name;
            for (Addr a = source.start - 64; a < source.end + 64; ++a)
                ASSERT_EQ(armed_taint.memTainted(a, 1),
                          hand_taint.memTainted(a, 1))
                    << c.name << " byte 0x" << std::hex << a;
        }

        // The Victim arms through the same routine.
        Victim victim(c.program, defense);
        ASSERT_NE(victim.csd(), nullptr);
        EXPECT_EQ(victim.csd()->reportedEpoch(), hand.reportedEpoch())
            << c.name;
    }
}

TEST(Defense, DisabledDefenseLeavesTheDecoderUntouched)
{
    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    DefenseConfig defense = canonicalDefenses().front().defense;
    defense.enabled = false;
    csd.arm(defense);
    EXPECT_EQ(msrs.control(), 0u);
    EXPECT_EQ(csd.reportedEpoch(), 0u);
    EXPECT_FALSE(taint.memTainted(defense.taintSources.front().start, 8));
}

} // namespace
} // namespace csd
