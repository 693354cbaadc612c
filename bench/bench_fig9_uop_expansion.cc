/**
 * @file
 * Fig. 9 — micro-op expansion caused by stealth-mode translation.
 *
 * Paper result: context-sensitive decoding expands the dynamic
 * micro-op stream by 8.0% on average across the 8 security datapoints,
 * and this expansion — not cache pollution — is the primary cost.
 */

#include <cstdio>

#include "bench/common/bench_util.hh"
#include "bench/common/crypto_cases.hh"

using namespace csd;
using namespace csd::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Figure 9", "Dynamic micro-op expansion (normalized)",
                "Executed uops with stealth mode, relative to the "
                "unaltered execution.");

    const FrontEndParams frontend;
    Table table({"benchmark", "base uops", "stealth uops",
                 "decoy uops", "expansion"});
    std::vector<double> ratios;

    const std::vector<CryptoCase> suite = cryptoSuite();
    const std::vector<CryptoRunStats> runs =
        runCryptoCells(suite, stealthPairs(suite, {frontend}));

    for (std::size_t i = 0; i < suite.size(); ++i) {
        const CryptoCase &c = suite[i];
        const auto &base = runs[2 * i];
        const auto &stealth = runs[2 * i + 1];
        const double ratio = static_cast<double>(stealth.uopsExecuted) /
                             static_cast<double>(base.uopsExecuted);
        ratios.push_back(ratio);
        table.addRow({c.name, std::to_string(base.uopsExecuted),
                      std::to_string(stealth.uopsExecuted),
                      std::to_string(stealth.decoyUops),
                      pct(ratio - 1.0)});
    }
    table.addRow({"average", "", "", "", pct(mean(ratios) - 1.0)});
    table.print();

    benchStat("avg_expansion", mean(ratios) - 1.0);
    benchStat("paper_avg_expansion", 0.08);

    std::printf("\nPaper: 8.0%% average micro-op expansion.\n");
    std::printf("Measured average: %s\n", pct(mean(ratios) - 1.0).c_str());
    return 0;
}
