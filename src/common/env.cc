#include "common/env.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace csd
{

namespace
{

/** strtoll with the full strictness checklist; false on any defect. */
bool
parseLongLong(const char *value, long long &out)
{
    if (!value || !*value)
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoll(value, &end, 10);
    return errno != ERANGE && end && !*end;
}

} // namespace

std::size_t
parsePositiveSetting(std::string_view name, const char *value)
{
    long long n = 0;
    if (!parseLongLong(value, n) || n <= 0)
        csd_fatal(name, "='", value ? value : "",
                  "' is not a positive integer");
    return static_cast<std::size_t>(n);
}

unsigned
parseNonNegativeSetting(std::string_view name, const char *value)
{
    long long n = 0;
    if (!parseLongLong(value, n) || n < 0)
        csd_fatal(name, "='", value ? value : "",
                  "' is not a non-negative integer (0 = auto)");
    return static_cast<unsigned>(n);
}

bool
parseBoolSetting(std::string_view name, const char *value)
{
    if (value && value[0] && !value[1] &&
        (value[0] == '0' || value[0] == '1'))
        return value[0] == '1';
    csd_fatal(name, "='", value ? value : "", "' is not 0 or 1");
    return false;  // unreachable; csd_fatal throws
}

bool
envBoolSetting(const char *name, bool fallback)
{
    const char *value = std::getenv(name);
    return value ? parseBoolSetting(name, value) : fallback;
}

} // namespace csd
