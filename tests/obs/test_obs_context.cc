/**
 * @file
 * ObservabilityContext unit tests: configuration inheritance, thread
 * binding, per-context trace isolation (including two contexts tracing
 * concurrently on two threads — the TSan acceptance case), flush
 * hooks, %c export-path expansion, and strict setting parses.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "common/context.hh"

namespace csd
{
namespace
{

/** Restores the process context binding and mask around each test. */
class ObsContextTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ObservabilityContext::process().bindToThread();
        ObservabilityContext::process().tracer().disableAll();
        ObservabilityContext::process().tracer().clear();
    }

    void TearDown() override { SetUp(); }
};

TEST_F(ObsContextTest, ProcessContextIsSingletonWithIdZero)
{
    ObservabilityContext &p = ObservabilityContext::process();
    EXPECT_EQ(&p, &ObservabilityContext::process());
    EXPECT_EQ(p.id(), 0u);
    EXPECT_EQ(p.name(), "process");
    // It owns its tracer like any context; the thread binding reaches it.
    p.tracer().enable(TraceFlag::Csd);
    CSD_TRACE(Csd, "ev", 1);
    EXPECT_EQ(p.tracer().size(), 1u);
    // It is configured from the process knob table.
    EXPECT_EQ(p.traceExportPath(), Knobs::process().text(Knob::TraceFile));
    EXPECT_EQ(p.cpiStack(), Knobs::process().flag(Knob::CpiStack));
}

/** A knob lookup over a fixed name -> value map. */
KnobLookup
lookupIn(std::map<std::string, std::string> values)
{
    return [values = std::move(values)](const char *name) -> const char * {
        const auto it = values.find(name);
        return it == values.end() ? nullptr : it->second.c_str();
    };
}

TEST_F(ObsContextTest, RootAndChildFromOneTableAgree)
{
    const Knobs knobs(lookupIn({
        {"CSD_TRACE", "Csd,Gating"},
        {"CSD_TRACE_FILE", "unused_%c.json"},
        {"CSD_TRACE_CAPACITY", "123"},
        {"CSD_STATS_DETAIL", "1"},
        {"CSD_CPI_STACK", "1"},
        {"CSD_HOST_PROFILE", "1"},
        {"CSD_LIFECYCLE_FILE", "unused.kanata"},
        {"CSD_LIFECYCLE_CAPACITY", "77"},
        {"CSD_CHANNEL_MONITOR_INTERVAL", "64"},
        {"CSD_CHANNEL_HEATMAP", "unused_%c"},
    }));
    ObservabilityContext root(knobs);
    EXPECT_EQ(root.tracer().mask(),
              (1u << static_cast<unsigned>(TraceFlag::Csd)) |
                  (1u << static_cast<unsigned>(TraceFlag::Gating)));
    EXPECT_EQ(root.tracer().capacity(), 123u);
    EXPECT_EQ(root.traceExportPath(), "unused_%c.json");
    EXPECT_TRUE(root.statsDetail());
    EXPECT_TRUE(root.cpiStack());
    EXPECT_TRUE(root.profiler().enabled());
    EXPECT_EQ(root.lifecycleConfig().capacity, 77u);
    EXPECT_EQ(root.lifecycleConfig().exportPath, "unused.kanata");
    EXPECT_EQ(root.channelMonitorConfig().heatmapInterval, 64u);
    EXPECT_EQ(root.channelMonitorConfig().exportPath, "unused_%c");

    root.bindToThread();
    EXPECT_TRUE(statsDetailEnabled());
    EXPECT_TRUE(traceEnabled(TraceFlag::Gating));
    ObservabilityContext child;
    EXPECT_EQ(child.tracer().mask(), root.tracer().mask());
    EXPECT_EQ(child.tracer().capacity(), root.tracer().capacity());
    EXPECT_EQ(child.traceExportPath(), root.traceExportPath());
    EXPECT_EQ(child.statsDetail(), root.statsDetail());
    EXPECT_EQ(child.cpiStack(), root.cpiStack());
    EXPECT_EQ(child.profiler().enabled(), root.profiler().enabled());
    EXPECT_EQ(child.lifecycleConfig().capacity,
              root.lifecycleConfig().capacity);
    EXPECT_EQ(child.lifecycleConfig().exportPath,
              root.lifecycleConfig().exportPath);
    EXPECT_EQ(child.channelMonitorConfig().heatmapInterval,
              root.channelMonitorConfig().heatmapInterval);
    EXPECT_EQ(child.channelMonitorConfig().exportPath,
              root.channelMonitorConfig().exportPath);
}

/**
 * CSD_TRACE_FILE arms a root context's export, and the registry flush
 * (std::atexit, SIGINT/SIGTERM) writes it while the context is alive —
 * the path the process-default context's trace takes at exit.
 */
TEST_F(ObsContextTest, RegistryFlushExportsTableArmedTrace)
{
    const std::string path =
        ::testing::TempDir() + "/obs_ctx_registry_%c.json";
    ObservabilityContext root(
        Knobs(lookupIn({{"CSD_TRACE", "Gating"}, {"CSD_TRACE_FILE", path}})));
    const std::string resolved = root.resolvedTraceExportPath();
    std::remove(resolved.c_str());
    root.bindToThread();
    CSD_TRACE(Gating, "gate", 7);
    ObservabilityContext::process().bindToThread();

    ObservabilityContext::flushAllContexts();
    std::ifstream in(resolved);
    ASSERT_TRUE(in.good()) << resolved;
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = minijson::parseJson(buf.str());
    EXPECT_EQ(doc->at("traceEvents").size(),
              static_cast<std::size_t>(TraceFlag::NumFlags) + 1);
    root.setTraceExportPath("");
    std::remove(resolved.c_str());
}

TEST_F(ObsContextTest, CurrentBindsProcessWhenUnbound)
{
    // SetUp bound process(); current() must agree and stay stable.
    EXPECT_EQ(&ObservabilityContext::current(),
              &ObservabilityContext::process());
    EXPECT_TRUE(ObservabilityContext::process().boundToThisThread());
}

TEST_F(ObsContextTest, InheritsConfigurationFromBoundContext)
{
    ObservabilityContext &p = ObservabilityContext::process();
    p.tracer().enable(TraceFlag::Decoy);
    p.tracer().setCapacity(512);
    p.setStatsDetail(true);
    ObservabilityContext::LifecycleConfig lc;
    lc.capacity = 99;
    lc.exportPath = "unused.kanata";
    p.setLifecycleConfig(lc);

    ObservabilityContext child("victim");
    EXPECT_NE(child.id(), p.id());
    EXPECT_EQ(child.name(), "victim");
    EXPECT_NE(&child.tracer(), &p.tracer());
    EXPECT_EQ(child.tracer().mask(), p.tracer().mask());
    EXPECT_EQ(child.tracer().capacity(), 512u);
    EXPECT_TRUE(child.statsDetail());
    EXPECT_EQ(child.lifecycleConfig().capacity, 99u);
    EXPECT_EQ(child.lifecycleConfig().exportPath, "unused.kanata");
    EXPECT_EQ(child.logSink().label, "victim");

    // Anonymous contexts keep unprefixed log output.
    ObservabilityContext anon;
    EXPECT_TRUE(anon.logSink().label.empty());
    EXPECT_EQ(anon.name(), "ctx" + std::to_string(anon.id()));

    p.setStatsDetail(false);
    p.setLifecycleConfig({});
    p.tracer().setCapacity(TraceManager::defaultCapacity);
}

TEST_F(ObsContextTest, BoundContextReceivesTraceMacros)
{
    ObservabilityContext a;
    ObservabilityContext b;
    a.tracer().enable(TraceFlag::Csd);
    b.tracer().enable(TraceFlag::Csd);

    a.bindToThread();
    CSD_TRACE(Csd, "ev_a", 1);
    CSD_TRACE(Csd, "ev_a", 2);
    b.bindToThread();
    CSD_TRACE(Csd, "ev_b", 3);

    EXPECT_EQ(a.tracer().size(), 2u);
    EXPECT_EQ(b.tracer().size(), 1u);
    EXPECT_EQ(ObservabilityContext::process().tracer().size(), 0u);
    EXPECT_EQ(std::string(b.tracer().events()[0].name), "ev_b");
}

TEST_F(ObsContextTest, SettingStatsDetailWritesThroughBoundContext)
{
    ObservabilityContext ctx;
    ctx.bindToThread();
    setStatsDetail(true);
    EXPECT_TRUE(ctx.statsDetail());
    EXPECT_TRUE(statsDetailEnabled());
    // The process-wide flag is untouched.
    EXPECT_FALSE(ObservabilityContext::process().statsDetail());
    setStatsDetail(false);
}

TEST_F(ObsContextTest, DestructionRebindsProcessContext)
{
    {
        ObservabilityContext ctx;
        ctx.bindToThread();
        EXPECT_TRUE(ctx.boundToThisThread());
    }
    EXPECT_EQ(ObservabilityContext::currentOrNull(),
              &ObservabilityContext::process());
}

TEST_F(ObsContextTest, ResolvedTraceExportPathExpandsContextId)
{
    ObservabilityContext ctx;
    ctx.setTraceExportPath("trace_%c.json");
    EXPECT_EQ(ctx.resolvedTraceExportPath(),
              "trace_" + std::to_string(ctx.id()) + ".json");
    ctx.setTraceExportPath("plain.json");
    EXPECT_EQ(ctx.resolvedTraceExportPath(), "plain.json");
}

TEST_F(ObsContextTest, ExpandContextPathReplacesEveryOccurrence)
{
    // The shared helper behind ALL per-context export paths (traces,
    // lifecycle rings, channel heatmaps) must expand every "%c", not
    // just the first — a path like "run_%c/heatmap_%c" is legitimate.
    EXPECT_EQ(expandContextPath("trace_%c.json", 7), "trace_7.json");
    EXPECT_EQ(expandContextPath("run_%c/mon_%c.csv", 12),
              "run_12/mon_12.csv");
    EXPECT_EQ(expandContextPath("%c%c", 3), "33");
    EXPECT_EQ(expandContextPath("no_placeholder.json", 9),
              "no_placeholder.json");
    EXPECT_EQ(expandContextPath("", 1), "");
    // A lone '%' without 'c' is literal text, not a placeholder.
    EXPECT_EQ(expandContextPath("100%_%c", 2), "100%_2");
}

TEST_F(ObsContextTest, ChannelMonitorConfigInheritsFromBoundContext)
{
    ObservabilityContext parent;
    ObservabilityContext::ChannelMonitorConfig config;
    config.heatmapInterval = 128;
    config.exportPath = "mon_%c";
    parent.setChannelMonitorConfig(config);
    parent.bindToThread();

    // A child constructed while the parent is bound copies the
    // channel-monitor arming — the mechanism CSD_CHANNEL_HEATMAP uses
    // to reach every Simulation a process creates.
    ObservabilityContext child;
    EXPECT_EQ(child.channelMonitorConfig().heatmapInterval, 128u);
    EXPECT_EQ(child.channelMonitorConfig().exportPath, "mon_%c");

    ObservabilityContext::process().bindToThread();
}

TEST_F(ObsContextTest, FlushWritesArmedTraceFile)
{
    const std::string path =
        ::testing::TempDir() + "/obs_ctx_flush_%c.json";
    std::string resolved;
    {
        ObservabilityContext ctx;
        ctx.tracer().enable(TraceFlag::Gating);
        ctx.setTraceExportPath(path);
        resolved = ctx.resolvedTraceExportPath();
        ctx.bindToThread();
        CSD_TRACE(Gating, "gate", 7);
        // Destruction flushes: the armed file must exist afterwards.
    }
    std::ifstream in(resolved);
    ASSERT_TRUE(in.good()) << resolved;
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = minijson::parseJson(buf.str());
    EXPECT_TRUE(doc->at("traceEvents").isArray());
    std::remove(resolved.c_str());
}

TEST_F(ObsContextTest, FlushHooksRunOnceAndAreRemovable)
{
    int runs = 0;
    {
        ObservabilityContext ctx;
        const auto token = ctx.addFlushHook([&] { ++runs; });
        const auto removed = ctx.addFlushHook([&] { runs += 100; });
        ctx.removeFlushHook(removed);
        ctx.flushNow();
        EXPECT_EQ(runs, 1);
        ctx.removeFlushHook(token);
    }
    EXPECT_EQ(runs, 1);  // destruction flush found no hooks left
}

TEST_F(ObsContextTest, FlushAllContextsReachesEveryLiveContext)
{
    int flushed = 0;
    ObservabilityContext a;
    ObservabilityContext b;
    a.addFlushHook([&] { ++flushed; });
    b.addFlushHook([&] { ++flushed; });
    ObservabilityContext::flushAllContexts();
    EXPECT_EQ(flushed, 2);
}

/**
 * The TSan acceptance case: two contexts on two threads tracing
 * simultaneously into private rings. Any shared mutable state in the
 * record path would be flagged as a data race; the counts prove no
 * events leaked between contexts.
 */
TEST_F(ObsContextTest, TwoContextsTraceConcurrently)
{
    constexpr int kEvents = 20000;
    std::size_t sizes[2] = {0, 0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
        workers.emplace_back([t, &sizes] {
            ObservabilityContext ctx("worker" + std::to_string(t));
            ctx.tracer().enable(TraceFlag::UopCache);
            ctx.tracer().setCapacity(2 * kEvents);
            ctx.bindToThread();
            for (int i = 0; i < kEvents; ++i)
                CSD_TRACE(UopCache, "hit", static_cast<Tick>(i));
            sizes[t] = ctx.tracer().size();
            // Unbind before the context dies with the thread.
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(sizes[0], static_cast<std::size_t>(kEvents));
    EXPECT_EQ(sizes[1], static_cast<std::size_t>(kEvents));
    EXPECT_EQ(ObservabilityContext::process().tracer().size(), 0u);
}

/**
 * Parallel workers tear their contexts down concurrently; each folds
 * its host profile into the process context under a lock (the TSan
 * case), and none is lost.
 */
TEST_F(ObsContextTest, ConcurrentTeardownFoldsEveryProfile)
{
    const HostProfiler &process = ObservabilityContext::process().profiler();
    const double before = process.seconds(HostPhase::Other);
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([] {
            ObservabilityContext ctx;
            ctx.profiler().setEnabled(true);
            ctx.profiler().add(HostPhase::Other, 1.0);
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_DOUBLE_EQ(process.seconds(HostPhase::Other), before + 4.0);
}

TEST_F(ObsContextTest, MalformedSettingsAreFatalNotSilent)
{
    // The exact parses behind CSD_TRACE_CAPACITY, CSD_LIFECYCLE_CAPACITY
    // (positive) and --jobs (non-negative).
    EXPECT_THROW(parsePositiveSetting("CSD_TRACE_CAPACITY", "abc"),
                 std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("CSD_TRACE_CAPACITY", "12abc"),
                 std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("CSD_TRACE_CAPACITY", ""),
                 std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("CSD_LIFECYCLE_CAPACITY", "0"),
                 std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("CSD_LIFECYCLE_CAPACITY", "-4"),
                 std::runtime_error);
    EXPECT_EQ(parsePositiveSetting("CSD_TRACE_CAPACITY", "4096"), 4096u);

    EXPECT_THROW(parseNonNegativeSetting("--jobs", "-1"),
                 std::runtime_error);
    EXPECT_THROW(parseNonNegativeSetting("--jobs", "two"),
                 std::runtime_error);
    EXPECT_THROW(parseNonNegativeSetting("--jobs", "8x"),
                 std::runtime_error);
    EXPECT_EQ(parseNonNegativeSetting("--jobs", "0"), 0u);
    EXPECT_EQ(parseNonNegativeSetting("--jobs", "8"), 8u);
}

} // namespace
} // namespace csd
