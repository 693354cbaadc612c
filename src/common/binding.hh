/**
 * @file
 * The calling thread's binding to its one ObservabilityContext
 * (common/context.hh), written only by bindToThread(). Tracing, stats
 * detail and logging reach their state through it; the trace mask and
 * stats-detail flag are cached so their fast paths stay one
 * thread-local load and a branch.
 */

#ifndef CSD_COMMON_BINDING_HH
#define CSD_COMMON_BINDING_HH

#include <cstdint>

namespace csd
{

class ObservabilityContext;
class TraceManager;

namespace binding_detail
{

struct ThreadBinding
{
    std::uint32_t traceMask = 0;  //!< the bound tracer's flag mask
    bool statsDetail = false;     //!< the bound context's detail flag
    TraceManager *tracer = nullptr;
    ObservabilityContext *context = nullptr;  //!< null = none bound yet
};

// constinit: without it every cross-TU read goes through the TLS
// dynamic-init guard (__tls_init via PLT), which is measurable on the
// per-uop simulation paths that poll statsDetailEnabled().
extern constinit thread_local ThreadBinding binding;

} // namespace binding_detail
} // namespace csd

#endif // CSD_COMMON_BINDING_HH
