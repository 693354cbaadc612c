/**
 * @file
 * Fig. 12 — energy breakdown: conventional power gating vs
 * CSD-based selective devectorization.
 *
 * Paper result: dynamic devectorization improves total energy by 12.9%
 * on average over conventional power gating, despite several SPEC
 * benchmarks barely using vectors. Energy is shown normalized to the
 * conventional-power-gating total, broken into dynamic / static /
 * VPU / gating-overhead components.
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
    benchHeader("Figure 12", "Energy breakdown, normalized to "
                             "conventional power gating",
                "Components: core dynamic / core static / VPU dynamic /"
                " VPU static+header / gating overhead / front end.");

    Table table({"benchmark", "conv total", "csd core-dyn",
                 "csd core-sta", "csd vpu-dyn", "csd vpu-sta",
                 "csd gate-ovh", "csd total", "savings"});
    std::vector<double> savings;

    const std::vector<SpecPreset> &presets = specPresets();
    const std::vector<SpecRunResult> runs =
        runSpecCells(presetCells(
            {GatingPolicy::ConventionalPG, GatingPolicy::CsdDevect}));

    for (std::size_t i = 0; i < presets.size(); ++i) {
        const SpecPreset &preset = presets[i];
        const auto &conv = runs[2 * i];
        const auto &devect = runs[2 * i + 1];

        const double conv_total = conv.energy.total();
        const EnergyBreakdown &e = devect.energy;
        const double csd_total = e.total();
        const double saved = 1.0 - csd_total / conv_total;
        savings.push_back(saved);

        table.addRow({preset.name, fmt(1.0, 3),
                      fmt((e.coreDynamic + e.frontendDynamic) /
                          conv_total),
                      fmt(e.coreStatic / conv_total),
                      fmt(e.vpuDynamic / conv_total),
                      fmt((e.vpuStatic + e.headerStatic) / conv_total),
                      fmt(e.gatingOverhead / conv_total),
                      fmt(csd_total / conv_total), pct(saved)});
    }
    table.addRow({"average", "", "", "", "", "", "", "",
                  pct(mean(savings))});
    table.print();

    std::printf("\nPaper: 12.9%% average total-energy improvement over "
                "conventional power gating.\n");
    std::printf("Measured average savings: %s\n",
                pct(mean(savings)).c_str());
    return 0;
}
