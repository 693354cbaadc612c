#include "common/logging.hh"

#include <cstdio>
#include <stdexcept>

#include "common/context.hh"

namespace csd
{
namespace logging_detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Throw rather than exit(1) so that library users (and death tests)
    // can recover from user-level configuration errors.
    throw std::runtime_error("fatal: " + msg);
}

void
logImpl(const char *kind, const std::string &msg)
{
    const LogSink &sink = ObservabilityContext::current().logSink();
    if (sink.label.empty())
        std::fprintf(stderr, "%s: %s\n", kind, msg.c_str());
    else
        std::fprintf(stderr, "%s: [%s] %s\n", kind, sink.label.c_str(),
                     msg.c_str());
}

} // namespace logging_detail
} // namespace csd
