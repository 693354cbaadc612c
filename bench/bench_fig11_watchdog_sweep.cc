/**
 * @file
 * Fig. 11 — execution time vs watchdog timeout period.
 *
 * Paper result: sweeping the stealth-mode watchdog from 1000 to 10000
 * cycles monotonically lowers the (normalized) execution time, since
 * decoy micro-ops are injected less often and cause fewer micro-op
 * cache conflicts.
 */

#include <cstdio>
#include <iterator>

#include "bench/common/bench_util.hh"
#include "bench/common/crypto_cases.hh"

using namespace csd;
using namespace csd::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Figure 11",
                "Normalized execution time vs watchdog period",
                "Stealth mode; period swept 1000..10000 cycles.");

    const FrontEndParams frontend;
    const Cycles periods[] = {1000, 2000, 4000, 6000, 8000, 10000};

    // The sweep uses the 4 most decoy-sensitive datapoints to keep the
    // runtime modest; the remaining datapoints track the same shape.
    const std::vector<std::string> cases = {"aes.enc", "rsa.dec",
                                            "blowfish.enc", "rijndael.enc"};

    std::vector<std::string> headers = {"watchdog (cycles)"};
    headers.insert(headers.end(), cases.begin(), cases.end());
    headers.push_back("average");
    Table table(headers);

    // The per-case baselines, then the (period x case) stealth runs.
    const std::size_t num_periods = std::size(periods);
    const std::size_t num_cases = cases.size();
    std::vector<CryptoCell> cells;
    for (const std::string &name : cases)
        cells.push_back(figureCell(name, frontend, false));
    for (const Cycles period : periods)
        for (const std::string &name : cases)
            cells.push_back(figureCell(name, frontend, true, period));
    const std::vector<CryptoRunStats> runs =
        runCryptoCells(cryptoSuite(), cells);

    double prev_avg = 0;
    bool monotone = true;
    for (std::size_t p = 0; p < num_periods; ++p) {
        const Cycles period = periods[p];
        std::vector<std::string> row = {std::to_string(period)};
        std::vector<double> ratios;
        for (std::size_t i = 0; i < num_cases; ++i) {
            const double ratio =
                static_cast<double>(runs[(p + 1) * num_cases + i].cycles) /
                static_cast<double>(runs[i].cycles);
            ratios.push_back(ratio);
            row.push_back(fmt(ratio));
        }
        const double avg = mean(ratios);
        row.push_back(fmt(avg));
        table.addRow(row);
        if (prev_avg != 0 && avg > prev_avg + 0.002)
            monotone = false;
        prev_avg = avg;
    }
    table.print();

    std::printf("\nPaper shape: overhead decreases as the watchdog "
                "period grows (fewer decoys, fewer uop-cache "
                "conflicts). Monotone (within noise): %s\n",
                monotone ? "yes" : "no");
    return 0;
}
