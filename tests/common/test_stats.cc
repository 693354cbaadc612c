#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"
#include "common/stats.hh"

namespace csd
{
namespace
{

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, GroupLookup)
{
    StatGroup group("grp");
    Counter a, b;
    group.addCounter("a", &a, "counter a");
    group.addCounter("b", &b, "counter b");
    a += 3;
    EXPECT_EQ(group.counterValue("a"), 3u);
    EXPECT_EQ(group.counterValue("b"), 0u);
    EXPECT_TRUE(group.hasCounter("a"));
    EXPECT_FALSE(group.hasCounter("c"));
    EXPECT_THROW(group.counterValue("missing"), std::runtime_error);
}

TEST(Stats, ResetCascadesToChildren)
{
    StatGroup parent("p");
    StatGroup child("c");
    Counter pc, cc;
    parent.addCounter("x", &pc, "");
    child.addCounter("y", &cc, "");
    parent.addChild(&child);
    pc += 2;
    cc += 7;
    parent.resetAll();
    EXPECT_EQ(pc.value(), 0u);
    EXPECT_EQ(cc.value(), 0u);
}

TEST(Stats, DumpIncludesChildren)
{
    StatGroup parent("p");
    StatGroup child("c");
    Counter pc, cc;
    parent.addCounter("x", &pc, "the x");
    child.addCounter("y", &cc, "the y");
    parent.addChild(&child);
    pc += 42;
    std::ostringstream os;
    parent.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("p.x"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_NE(text.find("c.y"), std::string::npos);
    EXPECT_NE(text.find("the y"), std::string::npos);
}

TEST(Stats, CounterNamesSorted)
{
    StatGroup group("g");
    Counter a, b;
    group.addCounter("zeta", &a, "");
    group.addCounter("alpha", &b, "");
    const auto names = group.counterNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
}

TEST(Stats, CounterPostfixIncrement)
{
    Counter c;
    Counter old = c++;
    EXPECT_EQ(old.value(), 0u);
    EXPECT_EQ(c.value(), 1u);
    old = c++;
    EXPECT_EQ(old.value(), 1u);
    EXPECT_EQ(c.value(), 2u);
}

TEST(Stats, ScalarBasics)
{
    Scalar s;
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    s += 1.5;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 4.0);
    s.set(-3.0);
    EXPECT_DOUBLE_EQ(s.value(), -3.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, DistributionMoments)
{
    Distribution d(0.0, 10.0, 5);
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);  // empty reads as zero
    d.sample(2.0);
    d.sample(4.0);
    d.sample(6.0, 2);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 6.0);
    EXPECT_DOUBLE_EQ(d.sum(), 18.0);
    EXPECT_DOUBLE_EQ(d.mean(), 4.5);
    // Sample variance of {2,4,6,6} is 11/3 (gem5-style n-1 divisor).
    EXPECT_NEAR(d.stddev(), std::sqrt(11.0 / 3.0), 1e-12);
}

TEST(Stats, DistributionBuckets)
{
    Distribution d(0.0, 10.0, 5);  // buckets of width 2
    d.sample(-1.0);                // underflow
    d.sample(0.0);                 // bucket 0
    d.sample(1.9);                 // bucket 0
    d.sample(5.0);                 // bucket 2
    d.sample(10.0);                // overflow (hi is exclusive)
    d.sample(42.0);                // overflow
    ASSERT_EQ(d.numBuckets(), 5u);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 2u);
    EXPECT_EQ(d.bucketCount(0), 2u);
    EXPECT_EQ(d.bucketCount(1), 0u);
    EXPECT_EQ(d.bucketCount(2), 1u);
    EXPECT_DOUBLE_EQ(d.bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(d.bucketHi(0), 2.0);
    EXPECT_DOUBLE_EQ(d.bucketLo(4), 8.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.bucketCount(2), 0u);
    EXPECT_EQ(d.underflow(), 0u);
}

TEST(Stats, FormulaEvaluatesAtReadTime)
{
    Counter hits, accesses;
    Formula rate([&] {
        return static_cast<double>(hits.value()) /
               static_cast<double>(accesses.value());
    });
    // 0/0 must read as 0, not NaN.
    EXPECT_DOUBLE_EQ(rate.value(), 0.0);
    hits += 3;
    accesses += 4;
    EXPECT_DOUBLE_EQ(rate.value(), 0.75);
    Formula unset;
    EXPECT_DOUBLE_EQ(unset.value(), 0.0);
}

TEST(StatsDeathTest, DuplicateRegistrationPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StatGroup group("dup_grp");
    Counter a, b;
    Scalar s;
    group.addCounter("events", &a, "");
    EXPECT_DEATH(group.addCounter("events", &b, ""), "duplicate");
    // Names are unique across statistic kinds, not per kind.
    EXPECT_DEATH(group.addScalar("events", &s, ""), "duplicate");
}

TEST(Stats, LookupErrorListsRegisteredNames)
{
    StatGroup group("mygroup");
    Counter a, b;
    group.addCounter("alpha", &a, "");
    group.addCounter("beta", &b, "");
    try {
        group.counterValue("gamma");
        FAIL() << "expected csd_fatal to throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("mygroup"), std::string::npos) << what;
        EXPECT_NE(what.find("alpha"), std::string::npos) << what;
        EXPECT_NE(what.find("beta"), std::string::npos) << what;
    }
}

TEST(Stats, ValueOfResolvesDottedPaths)
{
    StatGroup root("sim");
    StatGroup mem("mem");
    StatGroup l1d("l1d");
    Counter instrs, misses;
    Formula ipc([&] { return 2.0; });
    root.addCounter("instructions", &instrs, "");
    root.addFormula("ipc", &ipc, "");
    l1d.addCounter("misses", &misses, "");
    root.addChild(&mem);
    mem.addChild(&l1d);
    instrs += 10;
    misses += 3;

    EXPECT_DOUBLE_EQ(root.valueOf("instructions"), 10.0);
    EXPECT_DOUBLE_EQ(root.valueOf("ipc"), 2.0);
    EXPECT_DOUBLE_EQ(root.valueOf("mem.l1d.misses"), 3.0);

    double out = -1.0;
    EXPECT_TRUE(root.tryValueOf("mem.l1d.misses", out));
    EXPECT_DOUBLE_EQ(out, 3.0);
    EXPECT_FALSE(root.tryValueOf("mem.l1d.bogus", out));
    EXPECT_FALSE(root.tryValueOf("nosuch.path", out));
    EXPECT_THROW(root.valueOf("mem.nope"), std::runtime_error);
}

/**
 * The JSON dump must round-trip: every registered stat appears under
 * its group with name, description, and value(s) intact.
 */
TEST(Stats, JsonDumpRoundTrips)
{
    StatGroup root("sim");
    StatGroup child("frontend");
    Counter instrs;
    Scalar energy;
    Distribution lat(0.0, 8.0, 4);
    Formula ipc([&] { return static_cast<double>(instrs.value()) / 2.0; });
    Counter hits;
    root.addCounter("instructions", &instrs, "retired instructions");
    root.addScalar("energy_nj", &energy, "total energy");
    root.addDistribution("latency", &lat, "load-to-use latency");
    root.addFormula("ipc", &ipc, "instructions per cycle");
    child.addCounter("hits", &hits, "uop cache hits");
    root.addChild(&child);

    instrs += 8;
    energy.set(12.5);
    lat.sample(1.0);
    lat.sample(3.0);
    lat.sample(99.0);
    hits += 5;

    std::ostringstream os;
    root.dumpJson(os);
    const auto doc = minijson::parseJson(os.str());

    EXPECT_EQ(doc->at("name").str, "sim");
    const auto &counters = doc->at("counters");
    EXPECT_DOUBLE_EQ(counters.at("instructions").at("value").number, 8.0);
    EXPECT_EQ(counters.at("instructions").at("desc").str,
              "retired instructions");
    EXPECT_DOUBLE_EQ(doc->at("scalars").at("energy_nj").at("value").number,
                     12.5);
    EXPECT_DOUBLE_EQ(doc->at("formulas").at("ipc").at("value").number, 4.0);

    const auto &dist = doc->at("distributions").at("latency");
    EXPECT_EQ(dist.at("desc").str, "load-to-use latency");
    EXPECT_DOUBLE_EQ(dist.at("count").number, 3.0);
    EXPECT_DOUBLE_EQ(dist.at("min").number, 1.0);
    EXPECT_DOUBLE_EQ(dist.at("max").number, 99.0);
    EXPECT_DOUBLE_EQ(dist.at("overflow").number, 1.0);
    const auto &buckets = dist.at("buckets");
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_DOUBLE_EQ(buckets.at(0).at("lo").number, 0.0);
    EXPECT_DOUBLE_EQ(buckets.at(0).at("hi").number, 2.0);
    EXPECT_DOUBLE_EQ(buckets.at(0).at("count").number, 1.0);
    EXPECT_DOUBLE_EQ(buckets.at(1).at("count").number, 1.0);

    const auto &groups = doc->at("groups");
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups.at(0).at("name").str, "frontend");
    EXPECT_DOUBLE_EQ(groups.at(0).at("counters").at("hits").at("value").number,
                     5.0);
}

TEST(Stats, DetailKnobToggles)
{
    const bool before = statsDetailEnabled();
    setStatsDetail(true);
    EXPECT_TRUE(statsDetailEnabled());
    setStatsDetail(false);
    EXPECT_FALSE(statsDetailEnabled());
    setStatsDetail(before);
}

TEST(Stats, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(jsonEscape("cr\rbell\x07"), "cr\\rbell\\u0007");
}

} // namespace
} // namespace csd
