/**
 * @file
 * gem5-style status/error reporting helpers.
 *
 * panic()  - an internal simulator bug; aborts.
 * fatal()  - a user error (bad configuration, bad input); exits cleanly.
 * warn()   - functionality that might not be modeled perfectly.
 * inform() - normal operating messages.
 */

#ifndef CSD_COMMON_LOGGING_HH
#define CSD_COMMON_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

namespace csd
{

namespace logging_detail
{

/**
 * A per-context log sink. Every ObservabilityContext (common/context.hh)
 * owns one, and warn()/inform() write through the sink of the context
 * bound to the calling thread (the process-default context if none is
 * bound), prefixing messages with its label so interleaved
 * multi-simulation output stays attributable.
 */
struct LogSink
{
    std::string label;  //!< prefix, e.g. "victim" (empty = none)
};

/** Build a message from streamable parts. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

#if defined(__GNUC__) || defined(__clang__)
#define CSD_LOGGING_COLD __attribute__((cold, noinline))
#else
#define CSD_LOGGING_COLD
#endif

/**
 * Out-of-line formatting shims for the panic/fatal macros. Keeping the
 * ostringstream formatting in a cold, noinline function matters for
 * performance, not just code size: tiny hot accessors (register file
 * reads, sparse-memory loads) carry a panic on their invariant branch,
 * and if the formatting expands inline it makes them too big for the
 * inliner to absorb into the simulation loops.
 */
template <typename... Args>
[[noreturn]] CSD_LOGGING_COLD void
panicFmt(const char *file, int line, Args &&...args)
{
    panicImpl(file, line, format(std::forward<Args>(args)...));
}

template <typename... Args>
[[noreturn]] CSD_LOGGING_COLD void
fatalFmt(const char *file, int line, Args &&...args)
{
    fatalImpl(file, line, format(std::forward<Args>(args)...));
}

/** Print "@p kind: msg" through the bound context's log sink. */
void logImpl(const char *kind, const std::string &msg);

} // namespace logging_detail

/** Abort on an internal invariant violation (simulator bug). */
#define csd_panic(...)                                                       \
    ::csd::logging_detail::panicFmt(__FILE__, __LINE__, __VA_ARGS__)

/** Exit on a user-caused unrecoverable condition. */
#define csd_fatal(...)                                                       \
    ::csd::logging_detail::fatalFmt(__FILE__, __LINE__, __VA_ARGS__)

/** Report a modeling caveat. */
template <typename... Args>
void
warn(Args &&...args)
{
    logging_detail::logImpl(
        "warn", logging_detail::format(std::forward<Args>(args)...));
}

/** Report a normal status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    logging_detail::logImpl(
        "info", logging_detail::format(std::forward<Args>(args)...));
}

} // namespace csd

#endif // CSD_COMMON_LOGGING_HH
