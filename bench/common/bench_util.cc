#include "bench/common/bench_util.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "bench/common/parallel.hh"
#include "common/context.hh"
#include "common/env.hh"
#include "common/stats.hh"
#include "obs/manifest.hh"

namespace csd::bench
{

namespace
{

// --- sidecar state ---------------------------------------------------------

struct SidecarTable
{
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

struct SidecarStat
{
    std::string key;
    bool numeric = false;
    double number = 0.0;
    std::string text;
};

struct Sidecar
{
    std::string path;
    std::string artifact;
    std::string title;
    std::vector<SidecarTable> tables;
    std::vector<SidecarStat> stats;
    obs::Manifest manifest;
    bool atexitArmed = false;
    bool written = false;
};

Sidecar &
sidecar()
{
    static Sidecar s;
    return s;
}

/**
 * Guards all sidecar mutation. Harnesses are asked to record results
 * from the main thread in case order (for deterministic sidecars),
 * but a stray benchStat() from a worker must corrupt nothing.
 */
std::mutex &
sidecarMutex()
{
    static std::mutex m;
    return m;
}

/** Does the whole cell parse as a number (allowing a trailing '%')? */
bool
numericCell(const std::string &cell)
{
    if (cell.empty())
        return false;
    std::string body = cell;
    if (body.back() == '%')
        body.pop_back();
    if (body.empty())
        return false;
    char *end = nullptr;
    std::strtod(body.c_str(), &end);
    return end && *end == '\0';
}

void
jsonCell(std::ostream &os, const std::string &cell)
{
    os << "\"" << jsonEscape(cell) << "\"";
}

} // namespace

void
benchInit(int argc, char **argv)
{
    const char *prog = argc > 0 ? argv[0] : "bench";
    const auto usage = [prog](const std::string &problem) {
        std::fprintf(stderr,
                     "%s: %s\nusage: %s [--json <path>] [--jobs N]\n",
                     prog, problem.c_str(), prog);
        std::exit(2);
    };

    // Parse before locking: a usage error exits, and exit runs the
    // sidecar writer an earlier benchInit() may have armed. The knobs
    // parse first, so a bad CSD_* variable fails before any output,
    // with the exit status of a bad flag: csd_fatal has printed its
    // one message already.
    Knobs::processOrExit();
    std::string path;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        const auto eq = flag.find('=');
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        }
        if (flag != "--json" && flag != "--jobs")
            usage("unknown argument '" + std::string(argv[i]) + "'");
        if (eq == std::string::npos && i + 1 < argc)
            value = argv[++i];
        if (value.empty())
            usage(flag + " needs a value");
        if (flag == "--json")
            path = value;
        else
            benchSetJobs(parseNonNegativeSetting("--jobs", value.c_str()));
    }

    std::lock_guard<std::mutex> lock(sidecarMutex());
    Sidecar &s = sidecar();
    s.path = std::move(path);
    if (!s.path.empty() && !s.atexitArmed) {
        std::atexit(benchWriteJson);
        s.atexitArmed = true;
    }
}

void
benchHeader(const std::string &artifact, const std::string &title,
            const std::string &notes)
{
    {
        std::lock_guard<std::mutex> lock(sidecarMutex());
        Sidecar &s = sidecar();
        s.artifact = artifact;
        s.title = title;
    }

    std::printf("================================================================\n");
    std::printf("%s — %s\n", artifact.c_str(), title.c_str());
    if (!notes.empty())
        std::printf("%s\n", notes.c_str());
    std::printf("================================================================\n");
}

void
benchStat(const std::string &key, double value)
{
    SidecarStat stat;
    stat.key = key;
    stat.numeric = true;
    stat.number = value;
    std::lock_guard<std::mutex> lock(sidecarMutex());
    sidecar().stats.push_back(std::move(stat));
}

void
benchStat(const std::string &key, const std::string &value)
{
    SidecarStat stat;
    stat.key = key;
    stat.text = value;
    std::lock_guard<std::mutex> lock(sidecarMutex());
    sidecar().stats.push_back(std::move(stat));
}

void
benchManifestNote(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(sidecarMutex());
    sidecar().manifest.note(key, value);
}

void
benchWriteJson()
{
    std::lock_guard<std::mutex> lock(sidecarMutex());
    Sidecar &s = sidecar();
    if (s.path.empty() || s.written)
        return;
    s.written = true;

    std::ofstream os(s.path);
    if (!os) {
        std::fprintf(stderr, "bench: cannot write JSON sidecar '%s'\n",
                     s.path.c_str());
        return;
    }

    // Hash the run's *inputs*: what was benchmarked and the effective
    // values of the output-shaping knobs — never host-only knobs,
    // --jobs, output paths, or wall time — so a parallel run's sidecar
    // hashes (and serializes) identically to a serial run's.
    obs::ConfigHasher hasher;
    hasher.add("artifact", s.artifact);
    hasher.add("title", s.title);
    for (const KnobSpec &spec : knobTable)
        if (spec.cls == KnobClass::OutputShaping)
            hasher.add(spec.name, Knobs::process().rendered(spec.knob));
    for (const auto &[key, rendered] : s.manifest.extras)
        hasher.add(key, rendered);
    s.manifest.configHash = hasher.hex();

    os << "{\n  \"artifact\": \"" << jsonEscape(s.artifact)
       << "\",\n  \"title\": \"" << jsonEscape(s.title) << "\",\n";
    s.manifest.write(os, "  ", &ObservabilityContext::process().profiler());
    os << ",\n  \"stats\": {";
    for (std::size_t i = 0; i < s.stats.size(); ++i) {
        const SidecarStat &stat = s.stats[i];
        os << (i ? ",\n    " : "\n    ") << "\"" << jsonEscape(stat.key)
           << "\": ";
        if (stat.numeric && std::isfinite(stat.number))
            os << stat.number;
        else if (stat.numeric)
            os << "null";
        else
            jsonCell(os, stat.text);
    }
    os << (s.stats.empty() ? "" : "\n  ") << "},\n  \"tables\": [";
    for (std::size_t t = 0; t < s.tables.size(); ++t) {
        const SidecarTable &table = s.tables[t];
        os << (t ? ",\n    " : "\n    ") << "{\"name\": \""
           << jsonEscape(table.name) << "\", \"headers\": [";
        for (std::size_t c = 0; c < table.headers.size(); ++c) {
            if (c)
                os << ", ";
            jsonCell(os, table.headers[c]);
        }
        os << "], \"rows\": [";
        for (std::size_t r = 0; r < table.rows.size(); ++r) {
            os << (r ? ", " : "") << "[";
            for (std::size_t c = 0; c < table.rows[r].size(); ++c) {
                if (c)
                    os << ", ";
                jsonCell(os, table.rows[r][c]);
            }
            os << "]";
        }
        os << "]}";
    }
    os << (s.tables.empty() ? "" : "\n  ") << "]\n}\n";
}

// --- Table -----------------------------------------------------------------

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
Table::print() const
{
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    // A column is right-aligned iff every non-empty data cell in it is
    // numeric (counts, percentages).
    std::vector<bool> numeric(headers_.size(), !rows_.empty());
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            if (!row[c].empty() && !numericCell(row[c]))
                numeric[c] = false;

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            std::printf(numeric[c] ? "%*s  " : "%-*s  ",
                        static_cast<int>(widths[c]), row[c].c_str());
        std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows_)
        print_row(row);

    // Every printed table lands in the sidecar, named by print order.
    std::lock_guard<std::mutex> lock(sidecarMutex());
    Sidecar &s = sidecar();
    if (!s.path.empty()) {
        SidecarTable copy;
        copy.name = "table" + std::to_string(s.tables.size() + 1);
        copy.headers = headers_;
        copy.rows = rows_;
        s.tables.push_back(std::move(copy));
    }
}

// --- numeric helpers -------------------------------------------------------

std::string
fmt(double value, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << value;
    return os.str();
}

std::string
pct(double fraction, int precision)
{
    return fmt(fraction * 100.0, precision) + "%";
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace csd::bench
