/**
 * @file
 * Fig. 15 — fraction of execution time the VPU stays power-gated
 * under CSD devectorization.
 *
 * Paper result: on average the VPU is gated more than 70% of the time;
 * for the low-vector-activity benchmarks (astar, gcc, gobmk, sjeng)
 * it stays off essentially all the time — occasional outliers execute
 * as scalar flows instead of forcing a wake.
 */

#include <cstdio>

#include "bench/common/bench_util.hh"
#include "bench/common/spec_runner.hh"

using namespace csd;
using namespace csd::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Figure 15", "VPU power-gated time (CSD policy)", "");

    Table table({"benchmark", "gated", "waking", "on", "gate events"});
    std::vector<double> gated;

    const std::vector<SpecPreset> &presets = specPresets();
    const std::vector<SpecRunResult> results =
        runSpecCells(presetCells({GatingPolicy::CsdDevect}));

    for (std::size_t i = 0; i < presets.size(); ++i) {
        const SpecPreset &preset = presets[i];
        const auto &result = results[i];
        gated.push_back(result.gatedFraction);
        table.addRow({preset.name, pct(result.gatedFraction),
                      pct(result.wakingFraction),
                      pct(1.0 - result.gatedFraction -
                          result.wakingFraction),
                      std::to_string(result.gateEvents)});
    }
    table.addRow({"average", pct(mean(gated)), "", "", ""});
    table.print();

    std::printf("\nPaper: gated >70%% of execution time on average; "
                "astar/gcc/gobmk/sjeng gated essentially always.\n");
    std::printf("Measured average gated fraction: %s\n",
                pct(mean(gated)).c_str());
    return 0;
}
