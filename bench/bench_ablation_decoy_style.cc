/**
 * @file
 * Ablation (DESIGN.md #2) — decoy micro-loop vs unrolled decoys.
 *
 * The paper's Fig. 4 injects the decoys as a compact micro-loop. The
 * obvious alternative — unrolling one load per cache block — executes
 * marginally fewer uops (no loop-counter updates), but a 64-load
 * unrolled translation cannot be held by a table-driven decoder at all
 * (it must be microsequenced), and on code that pressures the micro-op
 * cache the oversized flows measurably hurt its hit rate (see the
 * rijndael rows). Security is identical: both touch every block.
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
    benchHeader("Ablation", "Decoy micro-loop vs unrolled decoys",
                "Same obfuscation coverage; different front-end cost.");

    Table table({"benchmark", "loop cycles", "unrolled cycles",
                 "unrolled penalty", "loop uopc-hit", "unrolled uopc-hit"});
    std::vector<double> penalties;
    // Per case: the paper's micro-loop, then unrolled decoys; both
    // stealth, Opt front end, one input stream.
    const std::vector<CryptoCase> suite = cryptoSuite();
    std::vector<CryptoCell> cells;
    for (const CryptoCase &c : suite) {
        for (const DecoyStyle style :
             {DecoyStyle::MicroLoop, DecoyStyle::Unrolled}) {
            CryptoCell cell = figureCell(c.name, FrontEndParams{}, true);
            cell.decoyStyle = style;
            cell.inputSeed = 0xdeca1;
            cells.push_back(cell);
        }
    }
    const std::vector<CryptoRunStats> runs = runCryptoCells(suite, cells);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const CryptoCase &c = suite[i];
        const auto &loop = runs[2 * i];
        const auto &unrolled = runs[2 * i + 1];
        const double penalty = static_cast<double>(unrolled.cycles) /
                                   static_cast<double>(loop.cycles) -
                               1.0;
        penalties.push_back(penalty);
        table.addRow({c.name, std::to_string(loop.cycles),
                      std::to_string(unrolled.cycles), pct(penalty),
                      pct(loop.uopCacheHitRate),
                      pct(unrolled.uopCacheHitRate)});
    }
    table.print();
    std::printf("\naverage unrolled cycle delta vs the paper's "
                "micro-loop: %s\n", pct(mean(penalties)).c_str());
    std::printf("Micro-loops trade a few serialized counter uops for a "
                "translation the decoder can actually store;\n"
                "unrolled flows degrade the uop cache wherever the "
                "3-way window check already binds (rijndael).\n");
    return 0;
}
