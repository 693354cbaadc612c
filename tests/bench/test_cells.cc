/**
 * The figure cells and their runners: a cell is a value (two equal
 * cells describe one simulation), and a runner returns one result per
 * requested cell, in request order, at any job count.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "bench/common/crypto_cases.hh"
#include "bench/common/parallel.hh"
#include "bench/common/spec_runner.hh"

namespace csd::bench
{
namespace
{

struct JobsGuard
{
    ~JobsGuard() { benchSetJobs(1); }
};

TEST(CryptoCell, EqualityCoversEveryField)
{
    const FrontEndParams opt;
    FrontEndParams noopt;
    noopt.uopCacheEnabled = false;

    const CryptoCell cell = figureCell("rsa.enc", opt, true);
    EXPECT_EQ(cell, figureCell("rsa.enc", opt, true));
    EXPECT_NE(cell, figureCell("rsa.dec", opt, true));
    EXPECT_NE(cell, figureCell("rsa.enc", noopt, true));
    EXPECT_NE(cell, figureCell("rsa.enc", opt, true, 2000));

    // Figure cells seed their inputs per stealth setting.
    EXPECT_NE(cell.inputSeed, figureCell("rsa.enc", opt, false).inputSeed);

    CryptoCell unrolled = cell;
    unrolled.decoyStyle = DecoyStyle::Unrolled;
    EXPECT_NE(cell, unrolled);
}

TEST(CryptoCell, StealthPairsArePerCasePerFrontEnd)
{
    const std::vector<CryptoCase> suite = cryptoSuite();
    FrontEndParams noopt;
    noopt.lsdEnabled = false;
    const std::vector<CryptoCell> cells =
        stealthPairs(suite, {noopt, FrontEndParams{}});
    ASSERT_EQ(cells.size(), suite.size() * 4);
    EXPECT_EQ(cells[0], figureCell(suite[0].name, noopt, false));
    EXPECT_EQ(cells[1], figureCell(suite[0].name, noopt, true));
    EXPECT_EQ(cells[2], figureCell(suite[0].name, FrontEndParams{}, false));
    EXPECT_EQ(cells[4], figureCell(suite[1].name, noopt, false));
}

TEST(CryptoCell, RunnerKeepsRequestOrderAtAnyJobCount)
{
    JobsGuard guard;
    const std::vector<CryptoCase> suite = cryptoSuite();
    const FrontEndParams frontend;
    const std::vector<CryptoCell> cells = {
        figureCell("rsa.enc", frontend, false),
        figureCell("rsa.enc", frontend, true),
        figureCell("rsa.enc", frontend, false)};

    benchSetJobs(1);
    const std::vector<CryptoRunStats> serial = runCryptoCells(suite, cells);
    benchSetJobs(3);
    const std::vector<CryptoRunStats> parallel =
        runCryptoCells(suite, cells);

    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << i;
        EXPECT_EQ(serial[i].uopsExecuted, parallel[i].uopsExecuted) << i;
    }
    // Equal cells simulate the same thing; stealth adds decoys.
    EXPECT_EQ(serial[0].cycles, serial[2].cycles);
    EXPECT_EQ(serial[0].decoyUops, 0u);
    EXPECT_GT(serial[1].decoyUops, 0u);
}

TEST(CryptoCell, UnknownCaseIsFatal)
{
    JobsGuard guard;
    benchSetJobs(1);
    EXPECT_THROW(runCryptoCells(cryptoSuite(),
                                {figureCell("des.enc", {}, false)}),
                 std::runtime_error);
}

TEST(SpecCell, PresetCellsArePresetMajor)
{
    const std::vector<SpecPreset> &presets = specPresets();
    const std::vector<SpecCell> cells =
        presetCells({GatingPolicy::AlwaysOn, GatingPolicy::CsdDevect});
    ASSERT_EQ(cells.size(), presets.size() * 2);
    for (std::size_t i = 0; i < presets.size(); ++i) {
        EXPECT_EQ(cells[2 * i].preset, presets[i].name);
        EXPECT_EQ(cells[2 * i].policy, GatingPolicy::AlwaysOn);
        EXPECT_EQ(cells[2 * i + 1].preset, presets[i].name);
        EXPECT_EQ(cells[2 * i + 1].policy, GatingPolicy::CsdDevect);
    }
}

} // namespace
} // namespace csd::bench
