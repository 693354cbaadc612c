#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common/bench_util.hh"
#include "common/json.hh"

namespace csd::bench
{
namespace
{

TEST(BenchTable, PrintRightAlignsNumericColumns)
{
    Table t({"name", "count"});
    t.addRow({"aes", "7"});
    t.addRow({"blowfish", "1234"});
    ::testing::internal::CaptureStdout();
    t.print();
    const std::string out = ::testing::internal::GetCapturedStdout();
    // The name column is left-aligned, the numeric column right-aligned
    // to the header width ("count" = 5 chars).
    EXPECT_NE(out.find("aes           7"), std::string::npos) << out;
    EXPECT_NE(out.find("blowfish   1234"), std::string::npos) << out;
}

TEST(BenchTable, PercentCellsCountAsNumeric)
{
    Table t({"bench", "rate"});
    t.addRow({"x", "44.0%"});
    t.addRow({"y", "9.5%"});
    ::testing::internal::CaptureStdout();
    t.print();
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find(" 9.5%"), std::string::npos) << out;
}

/**
 * The whole sidecar path: arm via --json, print a table, record
 * stats, write, and parse the result. Uses the process-wide sidecar
 * singleton, so this is the only test that arms it.
 */
TEST(BenchSidecar, JsonSidecarCarriesTablesAndStats)
{
    const std::string path =
        ::testing::TempDir() + "/csd_bench_sidecar_test.json";
    std::string arg0 = "test";
    std::string arg1 = "--json=" + path;
    std::vector<char *> argv = {arg0.data(), arg1.data()};
    benchInit(static_cast<int>(argv.size()), argv.data());

    ::testing::internal::CaptureStdout();
    benchHeader("Test artifact", "sidecar round-trip");
    Table t({"benchmark", "expansion"});
    t.addRow({"aes", "8.0%"});
    t.print();
    ::testing::internal::GetCapturedStdout();
    benchStat("avg_expansion", 0.08);
    benchStat("note", "unit-test");
    benchWriteJson();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = minijson::parseJson(buf.str());

    EXPECT_EQ(doc->at("artifact").str, "Test artifact");
    EXPECT_DOUBLE_EQ(doc->at("stats").at("avg_expansion").number, 0.08);
    EXPECT_EQ(doc->at("stats").at("note").str, "unit-test");
    const auto &tables = doc->at("tables");
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables.at(0).at("headers").at(1).str, "expansion");
    EXPECT_EQ(tables.at(0).at("rows").at(0).at(0).str, "aes");
    EXPECT_EQ(tables.at(0).at("rows").at(0).at(1).str, "8.0%");
}

} // namespace
} // namespace csd::bench
