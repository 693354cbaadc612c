/**
 * @file
 * Trace the RSA victim's pipeline behaviour at instruction grain: run
 * the square-and-multiply modexp under stealth-mode translation with
 * the lifecycle tracer armed, then export the per-uop timeline in both
 * supported formats and print the CPI-stack attribution.
 *
 *   ./examples/rsa_pipeview [o3pipeview-out] [kanata-out]
 *
 * Defaults: rsa_pipeview.o3log / rsa_pipeview.kanata in the working
 * directory. Load the Kanata file in Konata
 * (https://github.com/shioyadan/Konata) to scrub through the decoy
 * flows the stealth translation injects around the key-dependent
 * multiply calls; feed the O3PipeView file to gem5's
 * util/o3-pipeview.py for a terminal rendering.
 */

#include <cstdio>
#include <iostream>

#include "csd/csd.hh"
#include "sim/simulation.hh"
#include "workloads/rsa.hh"

using namespace csd;

int
main(int argc, char **argv)
{
    const std::string o3_path =
        argc > 1 ? argv[1] : "rsa_pipeview.o3log";
    const std::string kanata_path =
        argc > 2 ? argv[2] : "rsa_pipeview.kanata";

    // The scaled-down GnuPG-style victim: r = base^e mod n, multiply
    // called only on 1-bits of the private exponent.
    const RsaWorkload workload = RsaWorkload::build(
        {0x90abcdefu, 0x12345678u}, {0xc0000001u, 0xd0000001u},
        /*exponent=*/0xb72d9, /*exp_bits=*/20);

    Simulation sim(workload.program);

    // Stealth-mode wiring, as in the Fig. 7b/8 experiments: taint the
    // exponent and running result, mark rsa_multiply as the protected
    // I-range, and let the DIFT trigger switch translation contexts.
    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    csd.arm(workload.defense());
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    LifecycleTracer &tracer = sim.enableLifecycle(1 << 18);
    CpiStack &cpi = sim.enableCpiStack();

    sim.runToHalt();

    std::printf("rsa victim: %llu instructions, %llu uops, %llu cycles\n",
                static_cast<unsigned long long>(sim.instructions()),
                static_cast<unsigned long long>(sim.uopsExecuted()),
                static_cast<unsigned long long>(sim.cycles()));
    std::printf("lifecycle records: %zu (%llu dropped)\n", tracer.size(),
                static_cast<unsigned long long>(tracer.dropped()));

    if (!tracer.exportFile(o3_path) || !tracer.exportFile(kanata_path)) {
        std::fprintf(stderr, "trace export failed\n");
        return 1;
    }
    std::printf("wrote %s (gem5 O3PipeView) and %s (Konata)\n",
                o3_path.c_str(), kanata_path.c_str());

    std::printf("\nCPI stack (buckets sum to total cycles):\n");
    for (unsigned i = 0; i < numCpiBuckets; ++i) {
        const auto bucket = static_cast<CpiBucket>(i);
        const Cycles cycles = cpi.bucketCycles(bucket);
        if (cycles == 0)
            continue;
        std::printf("  %-16s %10llu  (%5.1f%%)\n", cpiBucketName(bucket),
                    static_cast<unsigned long long>(cycles),
                    100.0 * static_cast<double>(cycles) /
                        static_cast<double>(sim.cycles()));
    }

    std::printf("\nhottest PCs (taint-annotated profile):\n");
    cpi.dumpCsv(std::cout, 10);
    return 0;
}
