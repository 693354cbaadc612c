#include "common/trace.hh"

#include <bit>
#include <cctype>
#include <fstream>

#include "common/logging.hh"
#include "common/stats.hh"

namespace csd
{

namespace
{

const char *const flagNames[static_cast<unsigned>(TraceFlag::NumFlags)] = {
    "Frontend", "UopCache", "Csd", "Decoy", "Gating", "Cache", "Dift",
};

std::string
lower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

} // namespace

std::uint32_t
parseTraceFlags(std::string_view setting, std::string_view csv)
{
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string_view::npos)
            comma = csv.size();
        std::string_view token = csv.substr(pos, comma - pos);
        pos = comma + 1;
        while (!token.empty() &&
               std::isspace(static_cast<unsigned char>(token.front())))
            token.remove_prefix(1);
        while (!token.empty() &&
               std::isspace(static_cast<unsigned char>(token.back())))
            token.remove_suffix(1);
        if (token.empty())
            continue;
        if (lower(token) == "all") {
            mask |= (1u << static_cast<unsigned>(TraceFlag::NumFlags)) - 1;
        } else if (auto flag = TraceManager::parseFlag(std::string(token))) {
            mask |= 1u << static_cast<unsigned>(*flag);
        } else {
            std::string known;
            for (const char *name : flagNames)
                known += std::string(name) + ", ";
            csd_fatal(setting, ": unknown trace flag '", token,
                      "' (known: ", known, "all)");
        }
    }
    return mask;
}

const char *
TraceManager::flagName(TraceFlag flag)
{
    const auto idx = static_cast<unsigned>(flag);
    if (idx >= static_cast<unsigned>(TraceFlag::NumFlags))
        return "?";
    return flagNames[idx];
}

std::optional<TraceFlag>
TraceManager::parseFlag(const std::string &name)
{
    const std::string want = lower(name);
    for (unsigned i = 0; i < static_cast<unsigned>(TraceFlag::NumFlags); ++i)
        if (lower(flagNames[i]) == want)
            return static_cast<TraceFlag>(i);
    return std::nullopt;
}

TraceManager::TraceManager(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        csd_panic("TraceManager: capacity must be positive");
}

unsigned
TraceManager::configure(const std::string &csv)
{
    const std::uint32_t named = parseTraceFlags("trace flags", csv);
    setMask(mask_ | named);
    return static_cast<unsigned>(std::popcount(named));
}

void
TraceManager::syncThreadMask()
{
    if (binding_detail::binding.tracer == this)
        binding_detail::binding.traceMask = mask_;
}

void
TraceManager::enable(TraceFlag flag)
{
    mask_ |= 1u << static_cast<unsigned>(flag);
    syncThreadMask();
}

void
TraceManager::disable(TraceFlag flag)
{
    mask_ &= ~(1u << static_cast<unsigned>(flag));
    syncThreadMask();
}

void
TraceManager::disableAll()
{
    mask_ = 0;
    syncThreadMask();
}

void
TraceManager::setMask(std::uint32_t mask)
{
    mask_ = mask;
    syncThreadMask();
}

void
TraceManager::setCapacity(std::size_t capacity)
{
    if (capacity == 0)
        csd_panic("TraceManager: capacity must be positive");
    capacity_ = capacity;
    ring_.clear();
    ring_.shrink_to_fit();
    start_ = 0;
    count_ = 0;
    dropped_ = 0;
}

void
TraceManager::clear()
{
    start_ = 0;
    count_ = 0;
    dropped_ = 0;
}

void
TraceManager::record(TraceFlag flag, const char *name, Tick tick, char phase,
                     const char *arg_name, double arg)
{
    // Lazy allocation: per-simulation tracers exist whether or not
    // tracing is on, so don't pay for the ring until an event lands.
    if (ring_.empty())
        ring_.resize(capacity_);
    TraceEvent &slot = ring_[(start_ + count_) % ring_.size()];
    if (count_ == ring_.size()) {
        // Full: overwrite the oldest event.
        start_ = (start_ + 1) % ring_.size();
        ++dropped_;
    } else {
        ++count_;
    }
    slot = TraceEvent{tick, flag, name, phase, arg_name, arg};
}

std::vector<TraceEvent>
TraceManager::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(start_ + i) % ring_.size()]);
    return out;
}

void
TraceManager::exportChromeTrace(std::ostream &os) const
{
    os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";

    // Metadata: name one track (tid) per flag so Perfetto labels rows.
    bool first = true;
    for (unsigned i = 0; i < static_cast<unsigned>(TraceFlag::NumFlags);
         ++i) {
        os << (first ? "" : ",\n")
           << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
           << "\"tid\": " << i << ", \"args\": {\"name\": \""
           << flagNames[i] << "\"}}";
        first = false;
    }

    for (std::size_t i = 0; i < count_; ++i) {
        const TraceEvent &ev = ring_[(start_ + i) % ring_.size()];
        os << (first ? "" : ",\n") << "    {\"name\": \""
           << jsonEscape(ev.name ? ev.name : "?") << "\", \"cat\": \""
           << flagName(ev.flag) << "\", \"ph\": \"" << ev.phase
           << "\", \"ts\": " << ev.tick << ", \"pid\": 0, \"tid\": "
           << static_cast<unsigned>(ev.flag);
        if (ev.phase == 'i')
            os << ", \"s\": \"t\"";
        if (ev.argName) {
            os << ", \"args\": {\"" << jsonEscape(ev.argName) << "\": ";
            if (std::isfinite(ev.arg))
                os << ev.arg;
            else
                os << "null";
            os << "}";
        }
        os << "}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

bool
TraceManager::exportChromeTrace(const std::string &path) const
{
    std::ofstream file(path);
    if (!file) {
        warn("TraceManager: cannot open trace file '", path, "'");
        return false;
    }
    exportChromeTrace(file);
    inform("trace: wrote ", count_, " events to ", path,
           dropped_ ? " (ring overflowed; oldest events dropped)" : "");
    return static_cast<bool>(file);
}

} // namespace csd
