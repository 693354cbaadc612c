#include "common/context.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <mutex>

namespace csd
{

namespace binding_detail
{
constinit thread_local ThreadBinding binding;
} // namespace binding_detail

namespace
{

std::atomic<unsigned> nextContextId{0};

/**
 * Live contexts, for the atexit/signal flush sweep. Leaked on purpose
 * (like the process context): the atexit flush runs during static
 * destruction, after function-local statics constructed later would
 * already be gone.
 */
std::mutex &
registryMutex()
{
    static std::mutex *m = new std::mutex;
    return *m;
}

std::vector<ObservabilityContext *> &
registry()
{
    static auto *contexts = new std::vector<ObservabilityContext *>;
    return *contexts;
}

void
signalFlush(int sig)
{
    ObservabilityContext::flushAllContexts(/*from_signal=*/true);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void
atexitFlush()
{
    ObservabilityContext::flushAllContexts();
}

void
installFlushHandlers()
{
    static std::once_flag once;
    std::call_once(once, [] {
        std::atexit(atexitFlush);
        for (int sig : {SIGINT, SIGTERM}) {
            // Only claim signals nobody else handles: keep SIG_IGN
            // (e.g. nohup) and user-installed handlers intact.
            auto prev = std::signal(sig, &signalFlush);
            if (prev != SIG_DFL && prev != SIG_ERR)
                std::signal(sig, prev);
        }
    });
}

} // namespace

std::string
expandContextPath(std::string path, unsigned context_id)
{
    const std::string id = std::to_string(context_id);
    std::size_t pos = 0;
    while ((pos = path.find("%c", pos)) != std::string::npos) {
        path.replace(pos, 2, id);
        pos += id.size();
    }
    return path;
}

ObservabilityContext::ObservabilityContext(const Knobs &knobs)
    : tracer_(knobs.number(Knob::TraceCapacity)),
      statsDetail_(knobs.flag(Knob::StatsDetail)),
      cpiStack_(knobs.flag(Knob::CpiStack)),
      traceExportPath_(knobs.text(Knob::TraceFile))
{
    tracer_.setMask(static_cast<std::uint32_t>(knobs.number(Knob::Trace)));
    profiler_.setEnabled(knobs.flag(Knob::HostProfile));

    lifecycle_ = {knobs.number(Knob::LifecycleCapacity),
                  knobs.text(Knob::LifecycleFile)};
    channelMonitor_ = {knobs.number(Knob::ChannelMonitorInterval),
                       knobs.text(Knob::ChannelHeatmap)};

    registerSelf("process");
}

ObservabilityContext::ObservabilityContext(std::string name)
{
    const ObservabilityContext &parent = current();
    tracer_.setCapacity(parent.tracer_.capacity());
    tracer_.setMask(parent.tracer_.mask());
    statsDetail_ = parent.statsDetail_;
    profiler_.setEnabled(parent.profiler_.enabled());
    cpiStack_ = parent.cpiStack_;
    lifecycle_ = parent.lifecycle_;
    channelMonitor_ = parent.channelMonitor_;
    traceExportPath_ = parent.traceExportPath_;

    // Named contexts label their log output; anonymous ones keep the
    // unprefixed format (single-simulation runs stay stable).
    if (!name.empty())
        sink_.label = name;
    registerSelf(std::move(name));
}

ObservabilityContext::~ObservabilityContext()
{
    // Resolved before locking: building the process context registers it.
    HostProfiler *fold_into =
        profiler_.enabled() ? &process().profiler_ : nullptr;
    {
        // The registry lock also serializes the profile fold: parallel
        // workers tear their contexts down concurrently.
        std::lock_guard<std::mutex> lock(registryMutex());
        std::erase(registry(), this);
        constexpr auto phases = static_cast<unsigned>(HostPhase::NumPhases);
        for (unsigned i = 0; fold_into && i < phases; ++i) {
            const auto phase = static_cast<HostPhase>(i);
            fold_into->add(phase, profiler_.seconds(phase));
        }
    }
    flushNow();
    if (currentOrNull() == this)
        process().bindToThread();
}

void
ObservabilityContext::registerSelf(std::string name)
{
    id_ = nextContextId++;
    name_ = name.empty() ? "ctx" + std::to_string(id_) : std::move(name);
    installFlushHandlers();
    std::lock_guard<std::mutex> lock(registryMutex());
    registry().push_back(this);
}

ObservabilityContext &
ObservabilityContext::process()
{
    // Leaked on purpose: must outlive the atexit flush sweep and any
    // static-destruction-order dependency.
    static ObservabilityContext *ctx =
        new ObservabilityContext(Knobs::process());
    return *ctx;
}

ObservabilityContext &
ObservabilityContext::current()
{
    if (!binding_detail::binding.context)
        process().bindToThread();
    return *binding_detail::binding.context;
}

void
ObservabilityContext::bindToThread()
{
    binding_detail::binding = {tracer_.mask(), statsDetail_, &tracer_, this};
}

void
ObservabilityContext::setStatsDetail(bool on)
{
    statsDetail_ = on;
    if (boundToThisThread())
        binding_detail::binding.statsDetail = on;
}

std::string
ObservabilityContext::resolvedTraceExportPath() const
{
    return expandContextPath(traceExportPath_, id_);
}

std::uint64_t
ObservabilityContext::addFlushHook(std::function<void()> hook)
{
    const std::uint64_t token = nextHookToken_++;
    hooks_.emplace_back(token, std::move(hook));
    return token;
}

std::function<void()>
ObservabilityContext::removeFlushHook(std::uint64_t token)
{
    const auto it = std::ranges::find_if(
        hooks_, [token](const auto &h) { return h.first == token; });
    if (it == hooks_.end())
        return {};
    std::function<void()> hook = std::move(it->second);
    hooks_.erase(it);
    return hook;
}

void
ObservabilityContext::writeArmed()
{
    if (!traceExportPath_.empty() && tracer_.size() > 0)
        tracer_.exportChromeTrace(resolvedTraceExportPath());
    for (auto &[token, hook] : hooks_)
        hook();
}

void
ObservabilityContext::flushNow()
{
    std::lock_guard<std::mutex> lock(exportLock());
    writeArmed();
}

std::mutex &
ObservabilityContext::exportLock()
{
    // Leaked: flushed-at-exit contexts lock this after static
    // destruction has begun.
    static std::mutex *m = new std::mutex;
    return *m;
}

void
ObservabilityContext::flushAllContexts(bool from_signal)
{
    if (from_signal) {
        // Best effort from a signal handler: skip anything another
        // thread holds rather than deadlocking mid-flush.
        if (!registryMutex().try_lock())
            return;
        std::lock_guard<std::mutex> lock(registryMutex(), std::adopt_lock);
        for (ObservabilityContext *ctx : registry()) {
            if (!exportLock().try_lock())
                continue;
            std::lock_guard<std::mutex> exp(exportLock(), std::adopt_lock);
            ctx->writeArmed();
        }
        return;
    }
    std::lock_guard<std::mutex> lock(registryMutex());
    for (ObservabilityContext *ctx : registry())
        ctx->flushNow();
}

} // namespace csd
