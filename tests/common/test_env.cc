/**
 * @file
 * Strict setting parser tests (common/env.hh): every numeric and
 * boolean env/CLI knob must reject malformed values loudly rather than
 * fall back to a default.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/env.hh"

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

/** Set an environment variable for one scope, restoring it after. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(EnvParse, BoolSettingAcceptsOnlyZeroOrOne)
{
    EXPECT_TRUE(parseBoolSetting("B", "1"));
    EXPECT_FALSE(parseBoolSetting("B", "0"));
    for (const char *bad : {"false", "true", "yes", "no", "", "01", "1 "})
        EXPECT_THROW(parseBoolSetting("B", bad), std::runtime_error) << bad;
}

/**
 * Every on/off CSD_* switch reads through envBoolSetting, so
 * "=false" can no longer switch one on (the old `*v != '0'` parse)
 * and "=yes" is not silently ignored: both fail, naming the knob.
 */
TEST(EnvParse, BoolKnobsRejectFalseAndYes)
{
    for (const char *knob :
         {"CSD_CPI_STACK", "CSD_LIFECYCLE", "CSD_HOST_PROFILE",
          "CSD_CHANNEL_MONITOR", "CSD_STATS_DETAIL", "CSD_VERIFY"}) {
        for (const char *bad : {"false", "yes"}) {
            const ScopedEnv env(knob, bad);
            try {
                envBoolSetting(knob, false);
                ADD_FAILURE() << knob << "=" << bad << " was accepted";
            } catch (const std::runtime_error &e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find(knob), std::string::npos) << msg;
                EXPECT_NE(msg.find(bad), std::string::npos) << msg;
            }
        }
        {
            const ScopedEnv env(knob, "1");
            EXPECT_TRUE(envBoolSetting(knob, false)) << knob;
        }
        {
            const ScopedEnv env(knob, "0");
            EXPECT_FALSE(envBoolSetting(knob, true)) << knob;
        }
        const ScopedEnv unset(knob, nullptr);
        EXPECT_TRUE(envBoolSetting(knob, true)) << knob;
        EXPECT_FALSE(envBoolSetting(knob, false)) << knob;
    }
}

} // namespace
} // namespace csd
