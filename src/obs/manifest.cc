#include "obs/manifest.hh"

#include <cstdio>
#include <sstream>
#include <thread>

#ifdef __unix__
#include <sys/utsname.h>
#include <unistd.h>
#endif

#include "common/stats.hh"
#include "obs/build_info.hh"
#include "common/host_profiler.hh"

namespace csd
{
namespace obs
{

ConfigHasher &
ConfigHasher::add(std::string_view key, std::string_view value)
{
    // Hash key and value with separators so ("ab","c") != ("a","bc").
    h_ = fnv1a64(key, h_);
    h_ = fnv1a64("=", h_);
    h_ = fnv1a64(value, h_);
    h_ = fnv1a64(";", h_);
    return *this;
}

ConfigHasher &
ConfigHasher::add(std::string_view key, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return add(key, std::string_view(buf));
}

std::string
ConfigHasher::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
Manifest::note(std::string key, std::string_view string_value)
{
    extras.emplace_back(std::move(key),
                        "\"" + jsonEscape(std::string(string_value)) + "\"");
}

void
Manifest::noteRaw(std::string key, std::string json_value)
{
    extras.emplace_back(std::move(key), std::move(json_value));
}

void
Manifest::note(std::string key, std::uint64_t value)
{
    noteRaw(std::move(key), std::to_string(value));
}

void
Manifest::note(std::string key, double value)
{
    std::ostringstream os;
    os << value;
    noteRaw(std::move(key), os.str());
}

void
Manifest::write(std::ostream &os, const std::string &indent,
                const HostProfiler *profiler) const
{
    const std::string in2 = indent + "  ";
    os << indent << "\"manifest\": {\n";
    os << in2 << "\"schema_version\": " << schemaVersion << ",\n";
    os << in2 << "\"config_hash\": \"" << jsonEscape(configHash) << "\",\n";
    os << in2 << "\"git_describe\": \"" << jsonEscape(gitDescribe())
       << "\",\n";
    os << in2 << "\"build_type\": \"" << jsonEscape(buildType()) << "\",\n";
    os << in2 << "\"compiler\": \"" << jsonEscape(compiler()) << "\",\n";
    os << in2 << "\"build_flags\": \"" << jsonEscape(buildFlags())
       << "\",\n";
    os << in2 << "\"host\": \"" << jsonEscape(hostDescription()) << "\",\n";
    for (const auto &[key, value] : extras)
        os << in2 << "\"" << jsonEscape(key) << "\": " << value << ",\n";
    os << in2 << "\"phases\": ";
    if (profiler) {
        profiler->writePhasesJson(os);
    } else {
        os << "{}";
    }
    os << "\n" << indent << "}";
}

const char *
gitDescribe()
{
    return CSD_BUILD_GIT_DESCRIBE;
}

const char *
buildType()
{
    return CSD_BUILD_TYPE;
}

const char *
compiler()
{
    return CSD_BUILD_COMPILER;
}

const char *
buildFlags()
{
    return CSD_BUILD_FLAGS;
}

const std::string &
hostDescription()
{
    static const std::string desc = [] {
        std::ostringstream os;
#ifdef __unix__
        char host[256] = "unknown";
        if (gethostname(host, sizeof(host)) == 0)
            host[sizeof(host) - 1] = '\0';
        os << host;
#else
        os << "unknown";
#endif
        os << ", " << std::thread::hardware_concurrency()
           << " hardware threads";
#ifdef __unix__
        struct utsname uts;
        if (uname(&uts) == 0)
            os << ", " << uts.sysname << " " << uts.release << " "
               << uts.machine;
#endif
        return os.str();
    }();
    return desc;
}

} // namespace obs
} // namespace csd
