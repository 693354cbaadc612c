/**
 * @file
 * Knob table tests (common/env.hh): every CSD_* knob and CLI setting
 * must reject malformed values loudly rather than fall back to a
 * default, an unknown CSD_* name must be fatal, and README.md must
 * document the table as it is. Knobs parse from an injected lookup or
 * environment block, so no test touches the process environment.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/trace.hh"

namespace csd
{
namespace
{

TEST(EnvParse, PositiveSettingAcceptsOnlyStrictPositives)
{
    EXPECT_EQ(parsePositiveSetting("K", "1"), 1u);
    EXPECT_EQ(parsePositiveSetting("K", "65536"), 65536u);
    EXPECT_THROW(parsePositiveSetting("K", "0"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "-1"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", ""), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "abc"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "16k"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "1 "), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", nullptr), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "99999999999999999999999999"),
                 std::runtime_error);
}

TEST(EnvParse, NonNegativeSettingAllowsZeroAuto)
{
    EXPECT_EQ(parseNonNegativeSetting("J", "0"), 0u);
    EXPECT_EQ(parseNonNegativeSetting("J", "8"), 8u);
    EXPECT_THROW(parseNonNegativeSetting("J", "-1"), std::runtime_error);
    EXPECT_THROW(parseNonNegativeSetting("J", "8x"), std::runtime_error);
    EXPECT_THROW(parseNonNegativeSetting("J", ""), std::runtime_error);
}

TEST(EnvParse, ErrorMessageNamesTheSetting)
{
    try {
        parsePositiveSetting("CSD_TRACE_CAPACITY", "12abc");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("CSD_TRACE_CAPACITY"), std::string::npos);
        EXPECT_NE(msg.find("12abc"), std::string::npos);
    }
}

TEST(EnvParse, BoolSettingAcceptsOnlyZeroOrOne)
{
    EXPECT_TRUE(parseBoolSetting("B", "1"));
    EXPECT_FALSE(parseBoolSetting("B", "0"));
    for (const char *bad : {"false", "true", "yes", "no", "", "01", "1 "})
        EXPECT_THROW(parseBoolSetting("B", bad), std::runtime_error) << bad;
}

/** A knob lookup that sets only @p name to @p value. */
KnobLookup
onlyKnob(std::string name, const char *value)
{
    return [name = std::move(name), value](const char *knob) {
        return name == knob ? value : nullptr;
    };
}

/** Expect parsing @p name=@p value to fail, naming the knob and value. */
void
expectRejected(const char *name, const char *value)
{
    try {
        const Knobs knobs(onlyKnob(name, value));
        ADD_FAILURE() << name << "='" << value << "' was accepted";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(name), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::string("'") + value + "'"),
                  std::string::npos)
            << msg;
    }
}

/**
 * Every on/off CSD_* knob parses strictly, so "=false" can no longer
 * switch one on (the old `*v != '0'` parse) and "=yes" is not silently
 * ignored: both fail, naming the knob.
 */
TEST(EnvParse, BoolKnobsRejectFalseAndYes)
{
    const Knobs defaults(onlyKnob("", nullptr));
    for (const KnobSpec &spec : knobTable) {
        if (spec.type != KnobType::Bool)
            continue;
        for (const char *bad : {"false", "yes", ""})
            expectRejected(spec.name, bad);
        EXPECT_TRUE(Knobs(onlyKnob(spec.name, "1")).flag(spec.knob))
            << spec.name;
        EXPECT_FALSE(Knobs(onlyKnob(spec.name, "0")).flag(spec.knob))
            << spec.name;
        EXPECT_EQ(defaults.flag(spec.knob),
                  std::string(spec.defaultValue) == "1")
            << spec.name;
    }
}

TEST(EnvParse, CountKnobsRejectZeroAndJunk)
{
    const Knobs defaults(onlyKnob("", nullptr));
    for (const KnobSpec &spec : knobTable) {
        if (spec.type != KnobType::Count)
            continue;
        for (const char *bad : {"0", "-1", "abc", "12abc", ""})
            expectRejected(spec.name, bad);
        EXPECT_EQ(Knobs(onlyKnob(spec.name, "7")).number(spec.knob), 7u)
            << spec.name;
        EXPECT_EQ(std::to_string(defaults.number(spec.knob)),
                  spec.defaultValue)
            << spec.name;
    }
}

/**
 * An environment block may hold only table names among its CSD_*
 * variables: a misspelled knob, or one that no longer exists, fails
 * naming the variable instead of leaving the run on its default.
 */
TEST(EnvParse, UnknownKnobNamesAreFatal)
{
    for (const char *bad : {"CSD_SUPERBLOK=0", "CSD_BENCH_JOBS=2",
                            "CSD_LIFECYCLE=1", "CSD_=1"}) {
        const char *const block[] = {"PATH=/bin", bad, nullptr};
        const std::string name(bad, std::string_view(bad).find('='));
        try {
            const Knobs knobs(block);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
    }

    const char *const block[] = {"HOME=/root", "CSD_SUPERBLOCK=0",
                                 "CSD_TRACE_FILE=t=%c.json",
                                 "XCSD_BOGUS=1", "csd_bogus=1", nullptr};
    const Knobs knobs(block);
    EXPECT_FALSE(knobs.flag(Knob::Superblock));
    EXPECT_TRUE(knobs.flag(Knob::FlowCache));
    EXPECT_EQ(knobs.text(Knob::TraceFile), "t=%c.json");

    const char *const empty[] = {nullptr};
    EXPECT_TRUE(Knobs(empty).flag(Knob::Superblock));
}

TEST(EnvParse, TraceKnobRejectsUnknownFlags)
{
    try {
        const Knobs knobs(onlyKnob("CSD_TRACE", "UopCache,bogus"));
        ADD_FAILURE() << "CSD_TRACE=UopCache,bogus was accepted";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("CSD_TRACE"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
        for (unsigned f = 0; f < static_cast<unsigned>(TraceFlag::NumFlags);
             ++f)
            EXPECT_NE(msg.find(TraceManager::flagName(
                          static_cast<TraceFlag>(f))),
                      std::string::npos)
                << msg;
    }
    EXPECT_EQ(Knobs(onlyKnob("CSD_TRACE", " gating , UOPCACHE "))
                  .number(Knob::Trace),
              (1u << static_cast<unsigned>(TraceFlag::Gating)) |
                  (1u << static_cast<unsigned>(TraceFlag::UopCache)));
    EXPECT_EQ(Knobs(onlyKnob("CSD_TRACE", "all")).number(Knob::Trace),
              (1u << static_cast<unsigned>(TraceFlag::NumFlags)) - 1);
    EXPECT_EQ(Knobs(onlyKnob("", nullptr)).number(Knob::Trace), 0u);
}

/**
 * The config hash covers rendered values, so an unset knob and its
 * default spelled out must render the same.
 */
TEST(EnvParse, UnsetKnobRendersAsItsDefault)
{
    const Knobs unset(onlyKnob("", nullptr));
    for (const KnobSpec &spec : knobTable) {
        const Knobs spelled(onlyKnob(spec.name, spec.defaultValue));
        EXPECT_EQ(unset.rendered(spec.knob), spelled.rendered(spec.knob))
            << spec.name;
    }
    EXPECT_EQ(Knobs(onlyKnob("CSD_TRACE_FILE", "t_%c.json"))
                  .text(Knob::TraceFile),
              "t_%c.json");
}

/** README.md's knob table lists exactly the table's knobs and defaults. */
TEST(KnobTable, ReadmeTableMatches)
{
    std::ifstream readme(std::string(CSD_SOURCE_DIR) + "/README.md");
    ASSERT_TRUE(readme.good());
    std::map<std::string, std::pair<std::string, std::string>> documented;
    std::string line;
    while (std::getline(readme, line)) {
        if (line.rfind("| `CSD_", 0) != 0)
            continue;
        std::vector<std::string> cells;
        std::stringstream row(line.substr(1));
        std::string cell;
        while (std::getline(row, cell, '|')) {
            const auto first = cell.find_first_not_of(" `");
            const auto last = cell.find_last_not_of(" `");
            cells.push_back(first == std::string::npos
                                ? ""
                                : cell.substr(first, last - first + 1));
        }
        ASSERT_GE(cells.size(), 4u) << line;
        EXPECT_TRUE(documented
                        .emplace(cells[0], std::make_pair(cells[1], cells[2]))
                        .second)
            << "listed twice: " << cells[0];
    }
    EXPECT_EQ(documented.size(), knobTable.size());
    for (const KnobSpec &spec : knobTable) {
        const auto it = documented.find(spec.name);
        if (it == documented.end()) {
            ADD_FAILURE() << spec.name << " is missing from README.md";
            continue;
        }
        const std::string want_default =
            *spec.defaultValue ? spec.defaultValue : "unset";
        EXPECT_EQ(it->second.first, want_default) << spec.name;
        EXPECT_EQ(it->second.second,
                  spec.cls == KnobClass::OutputShaping ? "hashed"
                                                       : "host-only")
            << spec.name;
    }
}

} // namespace
} // namespace csd
