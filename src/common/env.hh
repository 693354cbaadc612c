/**
 * @file
 * Strict parsing for integer and boolean environment/CLI settings.
 *
 * Every numeric knob (CSD_TRACE_CAPACITY, CSD_LIFECYCLE_CAPACITY,
 * CSD_BENCH_JOBS, --jobs) goes through these helpers so a typo'd
 * value fails loudly — csd_fatal, which throws std::runtime_error —
 * instead of silently falling back to a default and producing a run
 * that looks configured but isn't.
 */

#ifndef CSD_COMMON_ENV_HH
#define CSD_COMMON_ENV_HH

#include <cstddef>
#include <string_view>

namespace csd
{

/**
 * Parse @p value as a strictly positive integer. @p name labels the
 * setting in the error ("CSD_TRACE_CAPACITY='x' is not a positive
 * integer"). Fatal (throws) on empty, trailing junk, zero, negative,
 * or overflow.
 */
std::size_t parsePositiveSetting(std::string_view name, const char *value);

/**
 * Parse @p value as a non-negative integer (settings where 0 means
 * "auto", e.g. jobs counts). Fatal (throws) on malformed input.
 */
unsigned parseNonNegativeSetting(std::string_view name, const char *value);

/**
 * Parse @p value as a boolean toggle: exactly "0" or "1". Fatal
 * (throws) on anything else ("true", "yes", "01", trailing junk),
 * so a typo'd CSD_SUPERBLOCK=ture fails loudly instead of silently
 * enabling the default.
 */
bool parseBoolSetting(std::string_view name, const char *value);

/**
 * The boolean environment knob @p name: @p fallback when unset, else
 * its value through parseBoolSetting (exactly "0" or "1"; anything
 * else — "false", "yes", an empty string — is fatal and names the
 * knob). Every CSD_* on/off switch reads through this.
 */
bool envBoolSetting(const char *name, bool fallback);

} // namespace csd

#endif // CSD_COMMON_ENV_HH
