/**
 * @file
 * §VII-A (in-text) — micro-op cache hit rate under CSD.
 *
 * Paper result: without micro-op fusion the hit rate drops 44% -> 39%
 * when CSD stealth mode is enabled; with fusion (which shortens the
 * expanded sequences) it is far more stable, 43% -> 42%. This harness
 * reports per-datapoint rates and also ablates the paper's key
 * integration choice: context-tagged micro-op cache ways vs flushing
 * the whole cache on every mode switch.
 *
 * Absolute rates here are higher than the paper's (our victims are
 * small kernels, not full SPEC-sized applications); the signal is the
 * per-benchmark stealth-induced delta. rijndael is an interesting
 * outlier: its unrolled code thrashes the 3-way/window limit, and
 * making tainted windows uncacheable actually relieves pressure.
 */

#include <array>
#include <cstdio>

#include "bench/common/bench_util.hh"
#include "bench/common/crypto_cases.hh"

using namespace csd;
using namespace csd::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("uop-cache hit rate (paper §VII-A text)",
                "Micro-op cache effectiveness under stealth mode",
                "Context tag bits vs flush-on-switch ablation included.");

    FrontEndParams fused;  // defaults: fusion on
    FrontEndParams unfused;
    unfused.microFusion = false;
    unfused.macroFusion = false;
    FrontEndParams flush = fused;
    flush.uopCacheContextBits = false;

    Table table({"benchmark", "base (no fusion)", "stealth (no fusion)",
                 "base (fusion)", "stealth (fusion)",
                 "stealth (fusion, FLUSH ablation)"});

    // Per case: base/stealth without fusion, base/stealth with it,
    // then stealth under the FLUSH ablation.
    const std::vector<CryptoCase> suite = cryptoSuite();
    std::vector<CryptoCell> cells;
    for (const CryptoCase &c : suite) {
        for (const FrontEndParams &frontend : {unfused, fused})
            for (const bool stealth : {false, true})
                cells.push_back(figureCell(c.name, frontend, stealth));
        cells.push_back(figureCell(c.name, flush, true));
    }
    const std::vector<CryptoRunStats> runs = runCryptoCells(suite, cells);

    // One column of rates per cell of a case, in cell order.
    constexpr std::size_t columns = 5;
    std::array<std::vector<double>, columns> rates;
    std::vector<std::string> average = {"average"};
    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row = {suite[i].name};
        for (std::size_t k = 0; k < columns; ++k) {
            rates[k].push_back(runs[columns * i + k].uopCacheHitRate);
            row.push_back(pct(rates[k].back()));
        }
        table.addRow(row);
    }
    for (const std::vector<double> &column : rates)
        average.push_back(pct(mean(column)));
    table.addRow(average);
    table.print();

    benchStat("avg_base_hit_rate_no_fusion", mean(rates[0]));
    benchStat("avg_stealth_hit_rate_no_fusion", mean(rates[1]));
    benchStat("avg_base_hit_rate_fusion", mean(rates[2]));
    benchStat("avg_stealth_hit_rate_fusion", mean(rates[3]));
    benchStat("avg_stealth_hit_rate_flush_ablation", mean(rates[4]));

    std::printf("\nPaper: 44%%->39%% (no fusion), 43%%->42%% (fusion); "
                "the fusion configuration is far more stable under "
                "CSD.\nThe FLUSH ablation shows why the paper extends "
                "the tags with context bits instead of flushing.\n");
    return 0;
}
