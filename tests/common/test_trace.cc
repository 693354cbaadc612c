#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/context.hh"
#include "common/json.hh"
#include "common/trace.hh"

namespace csd
{
namespace
{

/**
 * Every test traces into a fresh context bound to the test thread;
 * destroying it rebinds the process-default context.
 */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ctx_.bindToThread();
        ctx_.tracer().disableAll();
        ctx_.tracer().setCapacity(1024);
    }

    ObservabilityContext ctx_;
};

TEST_F(TraceTest, DisabledByDefault)
{
    EXPECT_FALSE(traceAnyEnabled());
    for (unsigned f = 0; f < static_cast<unsigned>(TraceFlag::NumFlags); ++f)
        EXPECT_FALSE(traceEnabled(static_cast<TraceFlag>(f)));
    // A macro trace point on a disabled flag records nothing.
    CSD_TRACE(UopCache, "ignored", 1);
    EXPECT_EQ(ctx_.tracer().size(), 0u);
}

TEST_F(TraceTest, EnableDisable)
{
    auto &tm = ctx_.tracer();
    tm.enable(TraceFlag::Gating);
    EXPECT_TRUE(traceEnabled(TraceFlag::Gating));
    EXPECT_FALSE(traceEnabled(TraceFlag::UopCache));
    EXPECT_TRUE(traceAnyEnabled());
    tm.disable(TraceFlag::Gating);
    EXPECT_FALSE(traceAnyEnabled());
}

TEST_F(TraceTest, ConfigureParsesCsv)
{
    auto &tm = ctx_.tracer();
    EXPECT_EQ(tm.configure("UopCache,Gating"), 2u);
    EXPECT_TRUE(traceEnabled(TraceFlag::UopCache));
    EXPECT_TRUE(traceEnabled(TraceFlag::Gating));
    EXPECT_FALSE(traceEnabled(TraceFlag::Decoy));

    tm.disableAll();
    // Case-insensitive, tolerates spaces.
    EXPECT_EQ(tm.configure(" uopcache , dift "), 2u);
    EXPECT_TRUE(traceEnabled(TraceFlag::UopCache));
    EXPECT_TRUE(traceEnabled(TraceFlag::Dift));

    // An unknown name is fatal, names the flag and the known ones, and
    // enables nothing.
    tm.disableAll();
    try {
        tm.configure(" uopcache , NOSUCH , dift ");
        ADD_FAILURE() << "an unknown trace flag was accepted";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("NOSUCH"), std::string::npos) << msg;
        EXPECT_NE(msg.find("UopCache"), std::string::npos) << msg;
        EXPECT_NE(msg.find("all"), std::string::npos) << msg;
    }
    EXPECT_FALSE(traceAnyEnabled());
}

TEST_F(TraceTest, FlagNamesRoundTrip)
{
    for (unsigned f = 0; f < static_cast<unsigned>(TraceFlag::NumFlags);
         ++f) {
        const auto flag = static_cast<TraceFlag>(f);
        const auto parsed = TraceManager::parseFlag(
            TraceManager::flagName(flag));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, flag);
    }
    EXPECT_FALSE(TraceManager::parseFlag("NumFlags").has_value());
    EXPECT_FALSE(TraceManager::parseFlag("").has_value());
}

TEST_F(TraceTest, RecordsEventsInOrder)
{
    auto &tm = ctx_.tracer();
    tm.enable(TraceFlag::Csd);
    tm.record(TraceFlag::Csd, "first", 10);
    tm.record(TraceFlag::Csd, "second", 20, 'B', "arg", 3.5);
    const auto events = tm.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "first");
    EXPECT_EQ(events[0].tick, 10u);
    EXPECT_EQ(events[0].phase, 'i');
    EXPECT_STREQ(events[1].name, "second");
    EXPECT_EQ(events[1].phase, 'B');
    EXPECT_STREQ(events[1].argName, "arg");
    EXPECT_DOUBLE_EQ(events[1].arg, 3.5);
}

TEST_F(TraceTest, MacroRecordsWhenEnabled)
{
    auto &tm = ctx_.tracer();
    tm.enable(TraceFlag::Decoy);
    CSD_TRACE(Decoy, "inject", 5, 'i', "uops", 4.0);
    CSD_TRACE(UopCache, "not_enabled", 6);
    tm.setTimeHint(77);
    CSD_TRACE_NOW(Decoy, "hinted");
    const auto events = tm.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "inject");
    EXPECT_EQ(events[1].tick, 77u);
}

TEST_F(TraceTest, RingBoundAndDropCount)
{
    auto &tm = ctx_.tracer();
    tm.setCapacity(4);
    tm.enable(TraceFlag::Frontend);
    for (Tick t = 0; t < 10; ++t)
        tm.record(TraceFlag::Frontend, "ev", t);
    EXPECT_EQ(tm.size(), 4u);
    EXPECT_EQ(tm.dropped(), 6u);
    const auto events = tm.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest events were overwritten; the last four survive in order.
    EXPECT_EQ(events[0].tick, 6u);
    EXPECT_EQ(events[3].tick, 9u);
    tm.clear();
    EXPECT_EQ(tm.size(), 0u);
    EXPECT_EQ(tm.dropped(), 0u);
}

TEST_F(TraceTest, ChromeExportIsValidJson)
{
    auto &tm = ctx_.tracer();
    tm.enable(TraceFlag::UopCache);
    tm.enable(TraceFlag::Gating);
    tm.record(TraceFlag::UopCache, "window_hit", 100, 'i', "pc", 4096.0);
    tm.record(TraceFlag::Gating, "vpu_gated", 150, 'B');
    tm.record(TraceFlag::Gating, "vpu_gated", 250, 'E');

    std::ostringstream os;
    tm.exportChromeTrace(os);
    const auto doc = minijson::parseJson(os.str());
    const auto &events = doc->at("traceEvents");
    ASSERT_TRUE(events.isArray());

    unsigned meta = 0, uop = 0, gating = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &e = events.at(i);
        if (e.at("ph").str == "M") {
            ++meta;
            continue;
        }
        EXPECT_TRUE(e.has("ts"));
        EXPECT_TRUE(e.has("pid"));
        EXPECT_TRUE(e.has("tid"));
        if (e.at("cat").str == "UopCache")
            ++uop;
        if (e.at("cat").str == "Gating")
            ++gating;
        if (e.at("name").str == "window_hit") {
            EXPECT_DOUBLE_EQ(e.at("args").at("pc").number, 4096.0);
        }
    }
    // One thread_name metadata record per flag, plus the real events.
    EXPECT_EQ(meta, static_cast<unsigned>(TraceFlag::NumFlags));
    EXPECT_EQ(uop, 1u);
    EXPECT_EQ(gating, 2u);
}

TEST_F(TraceTest, ExportToFile)
{
    auto &tm = ctx_.tracer();
    tm.enable(TraceFlag::Cache);
    tm.record(TraceFlag::Cache, "dram_access", 7);
    const std::string path =
        ::testing::TempDir() + "/csd_trace_test.json";
    ASSERT_TRUE(tm.exportChromeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = minijson::parseJson(buf.str());
    EXPECT_GE(doc->at("traceEvents").size(), 1u);
    EXPECT_FALSE(tm.exportChromeTrace("/nonexistent-dir/x/y.json"));
}

} // namespace
} // namespace csd
