/**
 * @file
 * Fig. 14 — dynamic micro-op counts under the three VPU policies.
 *
 * Paper result: devectorization's scalar flows expand the micro-op
 * stream (performance scales with this expansion — it is the primary
 * cost of CSD devectorization); Always-On and conventional PG execute
 * the same, smaller stream.
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
    benchHeader("Figure 14",
                "Dynamic micro-ops (normalized to Always-On)", "");

    Table table({"benchmark", "always-on", "csd", "conv PG",
                 "csd expansion", "devect uop frac"});
    std::vector<double> expansions;
    double csd_uops_total = 0, devect_uops_total = 0;
    double devect_cycles_total = 0, csd_cycles_total = 0;

    const std::vector<SpecPreset> &presets = specPresets();
    const std::vector<SpecRunResult> runs =
        runSpecCells(presetCells({GatingPolicy::AlwaysOn,
                                  GatingPolicy::CsdDevect,
                                  GatingPolicy::ConventionalPG}));

    for (std::size_t i = 0; i < presets.size(); ++i) {
        const SpecPreset &preset = presets[i];
        const auto &always = runs[3 * i];
        const auto &devect = runs[3 * i + 1];
        const auto &conv = runs[3 * i + 2];

        const double base = static_cast<double>(always.uops);
        const double csd_r = static_cast<double>(devect.uops) / base;
        const double conv_r = static_cast<double>(conv.uops) / base;
        expansions.push_back(csd_r);

        // Provenance: how many of the CSD run's uops came from
        // devectorized flows, and what the expansion costs in cycles
        // (the csd_devect CPI bucket).
        const double devect_frac =
            static_cast<double>(devect.devectUops) /
            static_cast<double>(devect.uops);
        table.addRow({preset.name, "1.000", fmt(csd_r), fmt(conv_r),
                      pct(csd_r - 1.0), pct(devect_frac)});
        csd_uops_total += static_cast<double>(devect.uops);
        devect_uops_total += static_cast<double>(devect.devectUops);
        devect_cycles_total += static_cast<double>(
            devect.cpiCycles[static_cast<unsigned>(
                CpiBucket::CsdDevect)]);
        csd_cycles_total += static_cast<double>(devect.cycles);
    }
    table.addRow({"average", "1.000", fmt(mean(expansions)), "1.000",
                  pct(mean(expansions) - 1.0),
                  pct(devect_uops_total / csd_uops_total)});
    table.print();

    benchStat("uop_expansion_avg", mean(expansions));
    benchStat("devect_uop_frac",
              devect_uops_total / csd_uops_total);
    benchStat("cpi_devect_cycle_frac",
              devect_cycles_total / csd_cycles_total);

    std::printf("\nPaper shape: uop expansion tracks the devectorized "
                "share; conventional PG/Always-On stay at 1.0.\n");
    return 0;
}
