#include "bench/common/crypto_cases.hh"

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

CryptoRunStats
runCryptoCase(const CryptoCase &c, bool stealth,
              const FrontEndParams &frontend, Cycles watchdog_period)
{
    SimParams params;
    params.mode = SimMode::Detailed;
    params.frontend = frontend;
    DefenseConfig defense = c.defense;
    defense.enabled = stealth;
    defense.watchdogPeriod = watchdog_period;
    Victim victim(c.program, defense, params);
    Simulation &sim = victim.sim();
    sim.enableCpiStack();

    Random rng(0xbe7c4 + stealth);
    c.run(victim, rng);

    CryptoRunStats stats;
    stats.cycles = sim.cycles();
    stats.instructions = sim.instructions();
    stats.uopsExecuted = sim.uopsExecuted();
    stats.slotsDelivered = sim.slotsDelivered();
    stats.decoyUops =
        sim.stats().counterValue("decoy_uops_executed");
    stats.l1dMpki =
        1000.0 * static_cast<double>(sim.mem().l1d().misses()) /
        static_cast<double>(sim.instructions());
    stats.uopCacheHitRate = sim.frontend().uopCache().hitRate();
    stats.cpiCycles = sim.cpiStack()->buckets();
    return stats;
}

} // namespace csd::bench
