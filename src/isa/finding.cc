#include "isa/finding.hh"

#include <algorithm>
#include <sstream>

#include "common/stats.hh"

namespace csd
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Error:   return "error";
      case Severity::Warning: return "warning";
      case Severity::Note:    return "note";
    }
    return "unknown";
}

std::string
hexPc(Addr pc)
{
    std::ostringstream os;
    os << "0x" << std::hex << pc;
    return os.str();
}

std::string
Finding::location() const
{
    if (pc == invalidAddr)
        return "<program>";
    return symbol.empty() ? hexPc(pc) : hexPc(pc) + " <" + symbol + ">";
}

std::string
Finding::toString() const
{
    std::ostringstream os;
    os << location() << ": " << severityName(severity) << " " << checkId
       << ": " << message;
    return os.str();
}

void
VerifyReport::add(Finding finding)
{
    if (suppressed_.count(finding.checkId))
        return;
    if (finding.severity == Severity::Error)
        ++errors_;
    else if (finding.severity == Severity::Warning)
        ++warnings_;
    findings_.push_back(std::move(finding));
}

void
VerifyReport::add(const std::string &check_id, Severity severity, Addr pc,
                  const std::string &symbol, const std::string &message)
{
    Finding finding;
    finding.checkId = check_id;
    finding.severity = severity;
    finding.pc = pc;
    finding.symbol = symbol;
    finding.message = message;
    add(std::move(finding));
}

bool
VerifyReport::hasCheck(const std::string &prefix) const
{
    for (const Finding &finding : findings_)
        if (finding.checkId.compare(0, prefix.size(), prefix) == 0)
            return true;
    return false;
}

void
VerifyReport::merge(VerifyReport other)
{
    for (Finding &finding : other.findings_)
        add(std::move(finding));
}

std::size_t
VerifyReport::consume(const std::string &prefix)
{
    std::size_t removed = 0;
    std::vector<Finding> kept;
    kept.reserve(findings_.size());
    for (Finding &finding : findings_) {
        if (finding.checkId.compare(0, prefix.size(), prefix) == 0) {
            if (finding.severity == Severity::Error)
                --errors_;
            else if (finding.severity == Severity::Warning)
                --warnings_;
            ++removed;
        } else {
            kept.push_back(std::move(finding));
        }
    }
    findings_ = std::move(kept);
    return removed;
}

std::string
VerifyReport::text() const
{
    std::ostringstream os;
    for (const Finding &finding : findings_)
        os << finding.toString() << "\n";
    os << errors_ << " error(s), " << warnings_ << " warning(s)\n";
    return os.str();
}

std::string
VerifyReport::json(const std::string &extra_members) const
{
    // Sort a view by (pc, check id, message) so the report is
    // byte-stable regardless of the order the passes discovered the
    // findings in (pc-less findings sort last via invalidAddr).
    std::vector<const Finding *> ordered;
    ordered.reserve(findings_.size());
    for (const Finding &finding : findings_)
        ordered.push_back(&finding);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Finding *a, const Finding *b) {
                         if (a->pc != b->pc)
                             return a->pc < b->pc;
                         if (a->checkId != b->checkId)
                             return a->checkId < b->checkId;
                         return a->message < b->message;
                     });

    std::ostringstream os;
    os << "{\n  \"schema_version\": " << findingsSchemaVersion
       << ",\n  \"errors\": " << errors_
       << ",\n  \"warnings\": " << warnings_;
    if (!extra_members.empty())
        os << ",\n  " << extra_members;
    os << ",\n  \"findings\": [";
    bool first = true;
    for (const Finding *finding : ordered) {
        os << (first ? "\n" : ",\n") << "    {\"check\": \""
           << jsonEscape(finding->checkId) << "\", \"severity\": \""
           << severityName(finding->severity) << "\", \"pc\": ";
        if (finding->pc == invalidAddr)
            os << "null";
        else
            os << finding->pc;
        os << ", \"symbol\": \"" << jsonEscape(finding->symbol)
           << "\", \"location\": \"" << jsonEscape(finding->location())
           << "\", \"message\": \"" << jsonEscape(finding->message)
           << "\"}";
        first = false;
    }
    os << (first ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

} // namespace csd
