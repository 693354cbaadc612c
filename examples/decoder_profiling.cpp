/**
 * @file
 * Decoder-level profiling demo (paper §III-E, "Performance Counters" /
 * "Profiling").
 *
 * Profiles the AES workload with unlimited decoder counters and a
 * decode-level hotness profile — with *zero* change to code or data
 * layout (no instrumentation heisenbugs).
 *
 *   ./examples/decoder_profiling
 */

#include <cstdio>

#include "common/env.hh"
#include "csd/csd.hh"
#include "csd/profiler.hh"
#include "sim/simulation.hh"
#include "workloads/aes.hh"

using namespace csd;

int
main()
{
    // A bad CSD_* knob exits 2 with one message, not an abort.
    Knobs::processOrExit();

    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    const AesWorkload workload = AesWorkload::build(key);

    NativeTranslator native;
    DecoderProfiler profiler(native);

    Simulation sim(workload.program);
    sim.setTranslator(&profiler);
    for (int block = 0; block < 10; ++block) {
        sim.restart();
        sim.runToHalt();
    }

    std::printf("decoder counters over 10 AES blocks "
                "(no code/data layout change):\n");
    const struct
    {
        const char *name;
        ProfileEvent event;
    } rows[] = {
        {"instructions", ProfileEvent::Instructions},
        {"uops", ProfileEvent::Uops},
        {"loads", ProfileEvent::Loads},
        {"stores", ProfileEvent::Stores},
        {"branches", ProfileEvent::Branches},
        {"vector ops", ProfileEvent::VectorOps},
        {"flag writers", ProfileEvent::FlagWriters},
        {"microsequenced", ProfileEvent::MicrosequencedFlows},
    };
    for (const auto &row : rows)
        std::printf("  %-16s %10llu\n", row.name,
                    static_cast<unsigned long long>(
                        profiler.count(row.event)));

    std::printf("\nhottest decode PCs:\n");
    for (const auto &[pc, count] : profiler.hottest(5))
        std::printf("  0x%llx  x%llu   %s\n",
                    static_cast<unsigned long long>(pc),
                    static_cast<unsigned long long>(count),
                    disassemble(*workload.program.at(pc)).c_str());

    // Cross-check against the pipeline's own statistics.
    std::printf("\npipeline cross-check: %llu instructions committed\n",
                static_cast<unsigned long long>(sim.instructions()));
    return 0;
}
