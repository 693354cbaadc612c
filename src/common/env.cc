#include "common/env.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include <unistd.h>

#include "common/logging.hh"
#include "common/trace.hh"

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

using enum KnobType;

/**
 * A lookup over a "NAME=VALUE" block, after checking that every
 * CSD_-prefixed name in it is a table row.
 */
KnobLookup
checkedBlockLookup(const char *const *environment)
{
    for (const char *const *entry = environment; *entry; ++entry) {
        const std::string_view var(*entry);
        const std::string_view name = var.substr(0, var.find('='));
        if (!name.starts_with("CSD_"))
            continue;
        if (std::ranges::none_of(knobTable, [name](const KnobSpec &spec) {
                return name == spec.name;
            }))
            csd_fatal("unknown knob ", name,
                      " in the environment (README.md lists every CSD_* "
                      "knob)");
    }
    return [environment](const char *name) -> const char * {
        const std::string_view want(name);
        for (const char *const *entry = environment; *entry; ++entry) {
            const std::string_view var(*entry);
            if (var.size() > want.size() && var[want.size()] == '=' &&
                var.starts_with(want))
                return *entry + want.size() + 1;
        }
        return nullptr;
    };
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

Knobs::Knobs(const KnobLookup &lookup)
{
    for (const KnobSpec &spec : knobTable) {
        const auto i = static_cast<std::size_t>(spec.knob);
        const char *set = lookup(spec.name);
        const char *value = set ? set : spec.defaultValue;
        switch (spec.type) {
          case Bool:
            numbers_[i] = parseBoolSetting(spec.name, value);
            break;
          case Count:
            numbers_[i] = parsePositiveSetting(spec.name, value);
            break;
          case Text:
            texts_[i] = value;
            break;
          case TraceFlags:
            numbers_[i] = parseTraceFlags(spec.name, value);
            break;
        }
    }
}

Knobs::Knobs(const char *const *environment)
    : Knobs(checkedBlockLookup(environment))
{
}

const Knobs &
Knobs::process()
{
    static const Knobs knobs(environ);
    return knobs;
}

const Knobs &
Knobs::processOrExit()
{
    try {
        return process();
    } catch (const std::runtime_error &) {
        std::exit(2);
    }
}

std::string
Knobs::rendered(Knob knob) const
{
    return knobTable[static_cast<std::size_t>(knob)].type == Text
               ? text(knob)
               : std::to_string(number(knob));
}

} // namespace csd
