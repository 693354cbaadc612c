/**
 * @file
 * End-to-end side-channel demo (paper Case Study I).
 *
 * Runs a FLUSH+RELOAD attack against the T-table AES victim twice —
 * once on a bare machine, once with stealth-mode translation — and
 * shows the attacker's view in both cases.
 *
 *   ./examples/side_channel_demo
 */

#include <cstdio>

#include "sec/aes_attack.hh"

using namespace csd;

namespace
{

void
showByteZeroCurve(const AesAttackResult &result)
{
    // The per-guess touch-rate "curve" for key byte 0 (cf. Fig. 7a).
    std::printf("  pt[0] high nibble: ");
    for (unsigned g = 0; g < 16; ++g)
        std::printf("%4x", g);
    std::printf("\n  touch rate:        ");
    for (unsigned g = 0; g < 16; ++g)
        std::printf("%4.0f", 100 * result.touchRate[0][g]);
    std::printf("   (%%)\n");
}

} // namespace

int
main()
{
    const std::array<std::uint8_t, 16> key = {
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
        0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

    const AesWorkload workload = AesWorkload::build(key);
    std::printf("victim: T-table AES-128, tables at [0x%llx, 0x%llx)\n",
                static_cast<unsigned long long>(
                    workload.tTableRange.start),
                static_cast<unsigned long long>(workload.tTableRange.end));
    std::printf("true key high nibbles: ");
    for (unsigned i = 0; i < 16; ++i)
        std::printf("%x", key[i] >> 4);
    std::printf("\n\n");

    AesAttackConfig config;
    config.flushReload = true;

    // --- undefended machine ---------------------------------------------
    {
        Victim victim(workload.program, DefenseConfig{});
        const auto result = runAesAttack(victim, workload, key, config);
        std::printf("[undefended] %llu encryptions observed\n",
                    static_cast<unsigned long long>(result.encryptions));
        showByteZeroCurve(result);
        std::printf("  recovered nibbles:  ");
        for (int nibble : result.recoveredHighNibble)
            std::printf(nibble < 0 ? "?" : "%x", nibble);
        std::printf("\n  key bits leaked: %u / 128\n\n",
                    result.keyBitsRecovered);
    }

    // --- stealth mode on ---------------------------------------------------
    {
        Victim victim(workload.program, workload.defense());
        AesAttackConfig defended_cfg = config;
        defended_cfg.maxSamplesPerCandidate = 40;
        const auto result =
            runAesAttack(victim, workload, key, defended_cfg);
        std::printf("[stealth-mode] %llu encryptions observed\n",
                    static_cast<unsigned long long>(result.encryptions));
        showByteZeroCurve(result);
        std::printf("  recovered nibbles:  ");
        for (int nibble : result.recoveredHighNibble)
            std::printf(nibble < 0 ? "?" : "%x", nibble);
        std::printf("\n  key bits leaked: %u / 128\n",
                    result.keyBitsRecovered);
        std::printf("\nEvery guess now touches the monitored line on "
                    "every probe: the decoy micro-ops load all 64\n"
                    "T-table blocks behind the attacker's back, so the "
                    "cache carries no key-dependent signal.\n");
    }
    return 0;
}
