/**
 * @file
 * Fig. 16 — breakdown of SSE instructions by VPU state when they
 * executed (CSD devectorization policy).
 *
 * Paper observations reproduced here: bwaves and milc frequently run
 * scalarized while waiting for the unit to power on (short bursts);
 * namd executes a noticeable share in gated mode (the static threshold
 * over-gates it); gamess gates nearly half the time while only ~20% of
 * its vector instructions are affected. A threshold sweep (the
 * DESIGN.md ablation) shows namd recovering with a laxer low
 * watermark.
 */

#include <cstdio>
#include <iterator>

#include "bench/common/bench_util.hh"
#include "bench/common/spec_runner.hh"

using namespace csd;
using namespace csd::bench;

namespace
{

void
addBreakdownRow(Table &table, const SpecRunResult &result)
{
    const double total = static_cast<double>(
        result.sseOn + result.sseWaking + result.sseGated);
    if (total == 0) {
        table.addRow({result.name, "-", "-", "-", "0"});
        return;
    }
    table.addRow({result.name, pct(result.sseOn / total),
                  pct(result.sseWaking / total),
                  pct(result.sseGated / total),
                  std::to_string(static_cast<std::uint64_t>(total))});
}

} // namespace

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Figure 16",
                "SSE instructions by VPU state (CSD policy)",
                "PoweredOn = ran on the VPU; PoweringOn = scalarized "
                "during wake; PowerGated = scalarized while gated.");

    // One cell list: every preset under the default configuration,
    // then the threshold ablation (DESIGN.md #4) -- namd with a longer
    // activity window (a laxer criticality threshold) keeps the unit
    // on through its inter-burst gaps, the paper's "more dynamic
    // threshold or usage predictor would work better".
    const std::vector<SpecPreset> &presets = specPresets();
    const unsigned windows[] = {128u, 256u, 512u, 1024u, 2048u};
    std::vector<SpecCell> cells = presetCells({GatingPolicy::CsdDevect});
    for (const unsigned window : windows) {
        SpecRunConfig config;
        config.gating.windowInstrs = window;
        cells.push_back({"namd", GatingPolicy::CsdDevect, config});
    }
    const std::vector<SpecRunResult> results = runSpecCells(cells);

    Table table({"benchmark", "powered-on", "powering-on",
                 "power-gated", "SSE instrs"});
    for (std::size_t i = 0; i < presets.size(); ++i)
        addBreakdownRow(table, results[i]);
    table.print();

    std::printf("\nAblation: namd activity-window sweep "
                "(paper: the static threshold over-gates namd)\n");
    Table ablation({"window (instrs)", "gated time", "SSE power-gated"});
    for (std::size_t i = 0; i < std::size(windows); ++i) {
        const auto &result = results[presets.size() + i];
        const double total = static_cast<double>(
            result.sseOn + result.sseWaking + result.sseGated);
        ablation.addRow({std::to_string(windows[i]),
                         pct(result.gatedFraction),
                         total == 0 ? "-"
                                    : pct(result.sseGated / total)});
    }
    ablation.print();
    return 0;
}
