/**
 * @file
 * End-to-end tests of the observability layer: trace export from a
 * real detailed simulation, interval sampling, stat preservation
 * across restart(), and the JSON stats dump round-trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "csd/csd.hh"
#include "common/context.hh"
#include "sim/simulation.hh"

namespace csd
{
namespace
{

using minijson::JsonValue;
using minijson::parseJson;

Program
loopProgram(unsigned iterations)
{
    ProgramBuilder b;
    auto top = b.newLabel();
    b.movri(Gpr::Rax, 0);
    b.movri(Gpr::Rcx, iterations);
    b.bind(top);
    b.add(Gpr::Rax, Gpr::Rcx);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    return b.build();
}

/** A loop with vector ops so the gating controller has work to do. */
Program
vectorLoopProgram(unsigned iterations)
{
    ProgramBuilder b;
    std::vector<std::uint8_t> ones(16, 1);
    const Addr vdata = b.defineData("v", ones, 16);
    auto top = b.newLabel();
    b.movri(Gpr::Rsi, static_cast<std::int64_t>(vdata));
    b.movdqaLoad(Xmm::Xmm0, memAt(Gpr::Rsi));
    b.movdqaLoad(Xmm::Xmm1, memAt(Gpr::Rsi));
    b.movri(Gpr::Rcx, iterations);
    b.bind(top);
    b.add(Gpr::Rax, Gpr::Rcx);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, top);
    b.vecOp(MacroOpcode::Paddb, Xmm::Xmm0, Xmm::Xmm1);
    b.halt();
    return b.build();
}

class ObservabilityTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        auto &tm = ObservabilityContext::current().tracer();
        tm.disableAll();
        tm.clear();
        tm.setCapacity(1 << 16);
        // Hot-path histograms (flow_len, read_latency, ...) only
        // record when detail stats are on.
        setStatsDetail(true);
    }

    void TearDown() override
    {
        auto &tm = ObservabilityContext::current().tracer();
        tm.disableAll();
        tm.clear();
        setStatsDetail(false);
    }
};

/**
 * Acceptance: a detailed simulation with CSD_TRACE-style configuration
 * ("UopCache,Gating") exports a parseable Chrome trace containing at
 * least one event per enabled category. The simulation records into
 * its own ObservabilityContext's tracer (inheriting the flag mask from
 * the context bound when it was constructed), not the process tracer.
 */
TEST_F(ObservabilityTest, DetailedRunProducesChromeTrace)
{
    auto &tm = ObservabilityContext::current().tracer();
    ASSERT_EQ(tm.configure("UopCache,Gating"), 2u);

    Program prog = vectorLoopProgram(3000);
    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    EnergyModel energy;
    GatingParams gp;
    gp.policy = GatingPolicy::CsdDevect;
    gp.windowInstrs = 100;
    gp.lowWatermark = 0;
    gp.highWatermark = 50;
    PowerGateController power(gp, energy);

    Simulation sim(prog);
    sim.setCsd(&csd);
    sim.setPowerController(&power);
    sim.runToHalt();
    power.finalize(sim.cycles());

    // The process tracer saw nothing; the simulation's context did.
    TraceManager &sim_tm = sim.obs().tracer();
    EXPECT_EQ(tm.size(), 0u);
    EXPECT_GT(sim_tm.size(), 0u);

    const std::string path =
        ::testing::TempDir() + "/csd_observability_trace.json";
    ASSERT_TRUE(sim_tm.exportChromeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = parseJson(buf.str());
    const auto &events = doc->at("traceEvents");
    ASSERT_TRUE(events.isArray());

    std::set<std::string> cats;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &e = events.at(i);
        if (e.at("ph").str == "M")
            continue;
        cats.insert(e.at("cat").str);
        // Timestamps are cycle numbers: monotone-bounded by the run.
        EXPECT_LE(e.at("ts").number,
                  static_cast<double>(sim.cycles()));
    }
    EXPECT_TRUE(cats.count("UopCache")) << "no UopCache events";
    EXPECT_TRUE(cats.count("Gating")) << "no Gating events";
    // Only the enabled categories may record.
    for (const std::string &cat : cats)
        EXPECT_TRUE(cat == "UopCache" || cat == "Gating") << cat;
}

TEST_F(ObservabilityTest, IntervalSamplerRecordsTimeSeries)
{
    Program prog = loopProgram(2000);
    Simulation sim(prog);
    sim.sampleEvery(500, {"instructions", "ipc", "mem.l1d.misses"});
    sim.runToHalt();

    const auto &samples = sim.samples();
    ASSERT_GE(samples.size(), 3u);
    ASSERT_EQ(sim.sampledStats().size(), 3u);

    // Cycles strictly increase; the cumulative instruction count is
    // non-decreasing and ends near the final total.
    for (std::size_t i = 1; i < samples.size(); ++i) {
        EXPECT_GT(samples[i].cycle, samples[i - 1].cycle);
        EXPECT_GE(samples[i].values[0], samples[i - 1].values[0]);
    }
    EXPECT_LE(samples.back().values[0],
              static_cast<double>(sim.instructions()));
    EXPECT_GT(samples.back().values[0], 0.0);

    // CSV export: header + one line per sample.
    std::ostringstream os;
    sim.writeSamplesCsv(os);
    const std::string csv = os.str();
    EXPECT_EQ(csv.find("cycle,instructions,ipc,mem.l1d.misses"), 0u);
    std::size_t lines = 0;
    for (char c : csv)
        if (c == '\n')
            ++lines;
    EXPECT_EQ(lines, samples.size() + 1);
}

TEST_F(ObservabilityTest, SamplerRejectsBadPaths)
{
    Program prog = loopProgram(10);
    Simulation sim(prog);
    EXPECT_THROW(sim.sampleEvery(100, {"not.a.stat"}), std::runtime_error);
    EXPECT_THROW(sim.sampleEvery(0), std::runtime_error);
}

/**
 * restart() re-arms the program but must keep observability state:
 * counters, distributions, and the sampler series accumulate across
 * invocations (attack harnesses rely on one continuous timeline).
 */
TEST_F(ObservabilityTest, RestartPreservesStatsAndSamples)
{
    Program prog = loopProgram(400);
    Simulation sim(prog);
    sim.sampleEvery(200);
    sim.runToHalt();
    ASSERT_TRUE(sim.halted());

    const std::uint64_t instrs_once = sim.instructions();
    const Tick cycles_once = sim.cycles();
    const std::size_t samples_once = sim.samples().size();
    const std::uint64_t flows_once =
        sim.stats().distribution("flow_len").count();
    ASSERT_GT(instrs_once, 0u);
    ASSERT_GT(samples_once, 0u);
    ASSERT_GT(flows_once, 0u);

    sim.restart();
    EXPECT_FALSE(sim.halted());
    // Counters and samples survive the restart...
    EXPECT_EQ(sim.instructions(), instrs_once);
    EXPECT_EQ(sim.samples().size(), samples_once);
    EXPECT_EQ(sim.stats().distribution("flow_len").count(), flows_once);

    sim.runToHalt();
    // ...and the second run accumulates on top.
    EXPECT_EQ(sim.instructions(), 2 * instrs_once);
    EXPECT_GT(sim.cycles(), cycles_once);
    EXPECT_GT(sim.samples().size(), samples_once);
    EXPECT_GT(sim.stats().distribution("flow_len").count(), flows_once);
}

/**
 * Walk the live StatGroup tree and the parsed JSON dump side by side:
 * every registered counter, scalar, formula, and distribution must
 * appear with matching value and description.
 */
void
compareGroupToJson(const StatGroup &group, const JsonValue &json)
{
    EXPECT_EQ(json.at("name").str, group.name());

    for (const std::string &name : group.counterNames()) {
        const auto &entry = json.at("counters").at(name);
        EXPECT_DOUBLE_EQ(entry.at("value").number,
                         static_cast<double>(group.counterValue(name)))
            << group.name() << "." << name;
        EXPECT_TRUE(entry.has("desc"));
    }
    for (const std::string &name : group.scalarNames()) {
        EXPECT_DOUBLE_EQ(json.at("scalars").at(name).at("value").number,
                         group.scalarValue(name))
            << group.name() << "." << name;
    }
    for (const std::string &name : group.formulaNames()) {
        // Formulas pass through decimal text; allow rounding slack.
        const double live = group.formulaValue(name);
        EXPECT_NEAR(json.at("formulas").at(name).at("value").number, live,
                    1e-6 * std::max(1.0, std::abs(live)))
            << group.name() << "." << name;
    }
    for (const std::string &name : group.distributionNames()) {
        const Distribution &dist = group.distribution(name);
        const auto &entry = json.at("distributions").at(name);
        EXPECT_DOUBLE_EQ(entry.at("count").number,
                         static_cast<double>(dist.count()))
            << group.name() << "." << name;
        EXPECT_DOUBLE_EQ(entry.at("mean").number, dist.mean());
        EXPECT_EQ(entry.at("buckets").size(), dist.numBuckets());
    }

    const auto &child_json = json.at("groups");
    ASSERT_EQ(child_json.size(), group.children().size());
    for (std::size_t i = 0; i < group.children().size(); ++i)
        compareGroupToJson(*group.children()[i], child_json.at(i));
}

TEST_F(ObservabilityTest, StatsJsonDumpRoundTrips)
{
    Program prog = loopProgram(500);
    Simulation sim(prog);
    sim.runToHalt();

    std::ostringstream os;
    sim.dumpStatsJson(os);
    const auto doc = parseJson(os.str());

    compareGroupToJson(sim.stats(), *doc);

    // Spot-check key derived stats made it through with real values.
    EXPECT_GT(doc->at("formulas").at("ipc").at("value").number, 0.0);
    EXPECT_GT(doc->at("counters").at("instructions").at("value").number,
              1000.0);
}

/**
 * Two simulations under a channel-monitor-armed context, exporting
 * heatmaps through a "%c" path: each simulation's own context id must
 * expand into a distinct file set, and each JSON export must describe
 * that simulation's caches (the per-context isolation contract for the
 * channel-observability subsystem).
 */
TEST_F(ObservabilityTest, TwoContextChannelMonitorExportsArePerContext)
{
    const std::string base =
        ::testing::TempDir() + "/csd_two_ctx_mon_%c";

    ObservabilityContext parent;
    ObservabilityContext::ChannelMonitorConfig config;
    config.exportPath = base;
    parent.setChannelMonitorConfig(config);
    parent.bindToThread();

    std::vector<std::string> json_paths;
    std::vector<std::string> all_paths;
    for (int i = 0; i < 2; ++i) {
        // Each Simulation binds its own context and its destructor
        // rebinds the process default, so re-bind the configured
        // parent before every construction.
        parent.bindToThread();
        Program prog = loopProgram(200 + 100 * i);
        Simulation sim(prog);
        ASSERT_NE(sim.mem().setMonitor(), nullptr)
            << "armed context did not arm the simulation's monitor";
        sim.runToHalt();
        const std::string resolved =
            expandContextPath(base, sim.obs().id());
        json_paths.push_back(resolved + ".json");
        for (const char *suffix : {".l1i.csv", ".l1d.csv", ".json"})
            all_paths.push_back(resolved + suffix);
        // Teardown (the Simulation destructor) writes the exports.
    }
    ObservabilityContext::process().bindToThread();

    // Distinct context ids -> distinct files; both sets exist.
    ASSERT_NE(json_paths[0], json_paths[1]);
    for (const std::string &path : all_paths) {
        std::ifstream in(path);
        EXPECT_TRUE(in.good()) << "missing export " << path;
    }

    for (const std::string &path : json_paths) {
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        const auto doc = parseJson(buf.str());
        EXPECT_EQ(doc->at("schema_version").number, 1.0);
        // The loop program fetches instructions: the L1I saw traffic.
        EXPECT_GT(doc->at("structures").at("l1i").at("events").number,
                  0.0);
    }
    for (const std::string &path : all_paths)
        std::remove(path.c_str());
}

/** A knob lookup that sets only @p name to @p value. */
KnobLookup
onlyKnob(const char *name, const char *value)
{
    return [name, value](const char *knob) {
        return std::string(knob) == name ? value : nullptr;
    };
}

TEST(Observability, CpiStackKnobIsStrict)
{
    // CSD_CPI_STACK=false used to *arm* the CPI stack (`*v != '0'`).
    const Program prog = loopProgram(10);
    SimParams params;
    params.mode = SimMode::Detailed;
    for (const char *bad : {"false", "yes"}) {
        try {
            const Knobs knobs(onlyKnob("CSD_CPI_STACK", bad));
            ADD_FAILURE() << "CSD_CPI_STACK=" << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("CSD_CPI_STACK"),
                      std::string::npos);
        }
    }
    {
        ObservabilityContext ctx(Knobs(onlyKnob("CSD_CPI_STACK", "0")));
        params.obs = &ctx;
        Simulation sim(prog, params);
        EXPECT_EQ(sim.cpiStack(), nullptr);
    }
    {
        ObservabilityContext ctx(Knobs(onlyKnob("CSD_CPI_STACK", "1")));
        params.obs = &ctx;
        Simulation sim(prog, params);
        EXPECT_NE(sim.cpiStack(), nullptr);
    }
}

/** The contents of @p path ("" if it cannot be read). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * The two export paths alone arm their recorders: a detailed run under
 * a context holding only CSD_LIFECYCLE_FILE and CSD_CHANNEL_HEATMAP
 * writes the pipeline trace and the heatmap CSV/JSON at teardown, and
 * with neither path set neither recorder exists.
 */
TEST(Observability, ExportPathsAloneArmRecorders)
{
    const std::string lc_file = ::testing::TempDir() + "/arm_%c.kanata";
    const std::string heatmap = ::testing::TempDir() + "/arm_heat_%c";
    const Program prog = loopProgram(300);
    SimParams params;
    params.mode = SimMode::Detailed;

    std::string lc_path;
    std::string heat_base;
    {
        ObservabilityContext ctx(Knobs([&](const char *knob) {
            const std::string name(knob);
            return name == "CSD_LIFECYCLE_FILE" ? lc_file.c_str()
                   : name == "CSD_CHANNEL_HEATMAP" ? heatmap.c_str()
                                                   : nullptr;
        }));
        params.obs = &ctx;
        lc_path = expandContextPath(lc_file, ctx.id());
        heat_base = expandContextPath(heatmap, ctx.id());
        for (const std::string &path :
             {lc_path, heat_base + ".l1i.csv", heat_base + ".l1d.csv",
              heat_base + ".json"})
            std::remove(path.c_str());
        Simulation sim(prog, params);
        ASSERT_NE(sim.lifecycle(), nullptr);
        ASSERT_NE(sim.mem().setMonitor(), nullptr);
        sim.runToHalt();
        EXPECT_TRUE(slurp(lc_path).empty()) << "exported before teardown";
    }
    EXPECT_EQ(slurp(lc_path).rfind("Kanata", 0), 0u) << lc_path;
    EXPECT_FALSE(slurp(heat_base + ".l1i.csv").empty());
    EXPECT_FALSE(slurp(heat_base + ".l1d.csv").empty());
    const auto doc = parseJson(slurp(heat_base + ".json"));
    EXPECT_GT(doc->at("structures").at("l1i").at("events").number, 0.0);

    ObservabilityContext bare(Knobs([](const char *) { return nullptr; }));
    params.obs = &bare;
    Simulation sim(prog, params);
    EXPECT_EQ(sim.lifecycle(), nullptr);
    EXPECT_EQ(sim.mem().setMonitor(), nullptr);
}

/**
 * Each Simulation profiles into its own context; destroying it folds
 * the phases into the process context, which is what bench sidecars
 * report.
 */
TEST(Observability, HostProfileFoldsIntoProcessContext)
{
    HostProfiler &process = ObservabilityContext::process().profiler();
    const bool was_enabled = process.enabled();
    const double execute = process.seconds(HostPhase::Execute);
    const double pipeline = process.seconds(HostPhase::Pipeline);
    process.setEnabled(true);
    ObservabilityContext::process().bindToThread();
    {
        const Program prog = loopProgram(2000);
        SimParams params;
        params.mode = SimMode::Detailed;
        Simulation sim(prog, params);
        sim.runToHalt();
        EXPECT_GT(sim.obs().profiler().seconds(HostPhase::Execute), 0.0);
    }
    process.setEnabled(was_enabled);
    EXPECT_GT(process.seconds(HostPhase::Execute), execute);
    EXPECT_GT(process.seconds(HostPhase::Pipeline), pipeline);
}

} // namespace
} // namespace csd
