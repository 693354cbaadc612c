/**
 * @file
 * End-to-end co-located attack (paper §IV-A's threat model, fully
 * simulated): the spy is itself a program in the simulated ISA, running
 * as a second hardware context over the shared cache hierarchy. It
 * flushes the first line of the RSA victim's `multiply` function with
 * `clflush`, times reloads with `rdtsc`, and logs latencies to its own
 * memory. Run twice: bare machine, then with stealth-mode translation.
 *
 *   ./examples/colocated_spy
 */

#include <cstdio>

#include "csd/csd.hh"
#include "sec/spy.hh"
#include "sim/duo.hh"
#include "workloads/rsa.hh"

using namespace csd;

namespace
{

void
runScenario(bool defended)
{
    const RsaWorkload victim = RsaWorkload::build(
        {0x90abcdefu, 0x12345678u}, {0xc0000001u, 0xd0000001u}, 0xb72d,
        16);
    const Addr multiply_line = blockAlign(victim.multiplyRange.start);
    SpyWorkload spy =
        SpyWorkload::buildFlushReload(multiply_line, 220, 256);

    // Cache-level fidelity (the Fig. 7 setting): our scaled victim is
    // small enough to stream from the micro-op cache, which on this
    // model (as on real hardware) hides I-fetches; real GnuPG bignum
    // code is far larger than the 1536-uop cache.
    SimParams params;
    params.mode = SimMode::CacheOnly;
    DuoSimulation duo(victim.program, spy.program, params);

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    if (defended) {
        DefenseConfig defense = victim.defense();
        defense.watchdogPeriod = 500;
        csd.arm(defense);
        duo.first().setTaintTracker(&taint);
        duo.first().setCsd(&csd);
    }

    duo.run(300, 30000000);

    const auto &spy_mem = duo.second().state().mem;
    const auto latencies = spy.latencies(spy_mem);
    const auto threshold = spy.calibrateThreshold(spy_mem);
    const auto hits = spy.hits(spy_mem, threshold);

    std::printf("--- %s ---\n", defended ? "stealth-mode ON"
                                         : "stealth-mode OFF");
    std::printf("spy: %u probes of multiply@0x%llx, threshold %u "
                "cycles\n",
                spy.probes,
                static_cast<unsigned long long>(multiply_line),
                threshold);
    std::printf("reload trace ('#' fast = multiply resident):\n  ");
    unsigned fast = 0;
    for (std::size_t i = 0; i < hits.size(); ++i) {
        std::printf("%c", hits[i] ? '#' : '.');
        fast += hits[i];
        if ((i + 1) % 80 == 0)
            std::printf("\n  ");
    }
    std::printf("\nfast reloads: %u/%zu (%.0f%%)\n", fast, hits.size(),
                100.0 * fast / hits.size());
    if (defended) {
        std::printf("decoy uops executed by the victim: %llu\n",
                    static_cast<unsigned long long>(
                        duo.first().stats().counterValue(
                            "decoy_uops_executed")));
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("Fully simulated co-located FLUSH+RELOAD: the spy is a "
                "mini-ISA program using clflush/rdtsc,\nsharing the "
                "cache hierarchy with the RSA victim "
                "(exponent 0xb72d).\n\n");
    runScenario(false);
    runScenario(true);
    std::printf("Without CSD the fast reloads trace the key-dependent "
                "multiply calls;\nwith stealth mode the decoys keep the "
                "line apparently resident at every probe.\n");
    return 0;
}
