/**
 * @file
 * Fig. 13 — execution time of the three VPU power-gating policies.
 *
 * Paper result: CSD devectorization runs within a few percent of the
 * Always-On baseline and is on average 3.4% faster than conventional
 * power gating, whose demand wakes stall the pipeline for the 30-cycle
 * power-on latency.
 */

#include <array>
#include <cstdio>

#include "bench/common/bench_util.hh"
#include "bench/common/spec_runner.hh"

using namespace csd;
using namespace csd::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Figure 13",
                "Execution time (normalized to Always-On)",
                "Policies: Always-On / CSD devectorization / "
                "conventional power gating.");

    Table table({"benchmark", "always-on", "csd", "conv PG",
                 "csd vs conv"});
    std::vector<double> csd_norm, conv_norm;

    // Per-bucket cycle totals under each policy, aggregated across the
    // presets, so each policy's overhead over Always-On can be
    // attributed (devectorized expansion vs demand-wake stalls).
    std::array<double, numCpiBuckets> always_b{}, csd_b{}, conv_b{};
    double always_total = 0, csd_total = 0, conv_total = 0;

    const std::vector<SpecPreset> &presets = specPresets();
    const std::vector<SpecRunResult> runs =
        runSpecCells(presetCells({GatingPolicy::AlwaysOn,
                                  GatingPolicy::CsdDevect,
                                  GatingPolicy::ConventionalPG}));

    for (std::size_t i2 = 0; i2 < presets.size(); ++i2) {
        const SpecPreset &preset = presets[i2];
        const auto &always = runs[3 * i2];
        const auto &devect = runs[3 * i2 + 1];
        const auto &conv = runs[3 * i2 + 2];

        const double base = static_cast<double>(always.cycles);
        const double csd_r = static_cast<double>(devect.cycles) / base;
        const double conv_r = static_cast<double>(conv.cycles) / base;
        csd_norm.push_back(csd_r);
        conv_norm.push_back(conv_r);
        table.addRow({preset.name, "1.000", fmt(csd_r), fmt(conv_r),
                      pct(conv_r / csd_r - 1.0)});

        for (unsigned i = 0; i < numCpiBuckets; ++i) {
            always_b[i] += static_cast<double>(always.cpiCycles[i]);
            csd_b[i] += static_cast<double>(devect.cpiCycles[i]);
            conv_b[i] += static_cast<double>(conv.cpiCycles[i]);
        }
        always_total += static_cast<double>(always.cycles);
        csd_total += static_cast<double>(devect.cycles);
        conv_total += static_cast<double>(conv.cycles);
    }
    table.addRow({"average", "1.000", fmt(mean(csd_norm)),
                  fmt(mean(conv_norm)),
                  pct(mean(conv_norm) / mean(csd_norm) - 1.0)});
    table.print();

    // Attribute each policy's overhead over Always-On to CPI buckets;
    // the paper's claim is that conventional PG pays in pipeline wake
    // stalls (vpu_wake) while CSD pays in expansion uops (csd_devect).
    Table attribution({"CPI bucket", "always-on", "csd delta",
                       "conv PG delta"});
    for (unsigned i = 0; i < numCpiBuckets; ++i) {
        const auto bucket = static_cast<CpiBucket>(i);
        const double csd_delta = csd_b[i] - always_b[i];
        const double conv_delta = conv_b[i] - always_b[i];
        attribution.addRow({cpiBucketName(bucket), fmt(always_b[i], 0),
                            fmt(csd_delta, 0), fmt(conv_delta, 0)});
        benchStat(std::string("cpi_overhead.csd.") +
                      cpiBucketName(bucket),
                  csd_delta);
        benchStat(std::string("cpi_overhead.conv_pg.") +
                      cpiBucketName(bucket),
                  conv_delta);
    }
    std::printf("\n");
    attribution.print();
    benchStat("cpi_overhead.csd.total", csd_total - always_total);
    benchStat("cpi_overhead.conv_pg.total", conv_total - always_total);

    std::printf("\nPaper: CSD achieves a 3.4%% speedup over "
                "conventional power gating while staying close to "
                "Always-On.\n");
    return 0;
}
