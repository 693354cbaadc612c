/**
 * @file
 * Findings produced by the static-analysis passes (verify/) and the
 * ProgramBuilder build-time structural checks.
 *
 * Every check emits Finding records tagged with a stable check id
 * (e.g. "df.use-before-def"), a severity, and Program provenance: the
 * PC of the offending instruction plus the enclosing symbol, printed
 * in a file:line-like "0x400010 <rsa_multiply+0x10>" form so findings
 * are actionable against the ProgramBuilder source.
 *
 * The type lives in the isa layer (below verify/) so that both
 * producers — ProgramBuilder::build()'s structural verify and the full
 * csd-verify passes — report through the same symbol-attributed
 * diagnostic path.
 */

#ifndef CSD_ISA_FINDING_HH
#define CSD_ISA_FINDING_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/types.hh"

namespace csd
{

/** How bad a finding is. */
enum class Severity : std::uint8_t
{
    Error,    //!< the program/table is wrong; gates fail
    Warning,  //!< suspicious but not certainly wrong
    Note,     //!< informational (e.g. confirmed expected leak sites)
};

/** Printable severity name ("error"/"warning"/"note"). */
const char *severityName(Severity severity);

/** @p pc as findings print it: "0x400010". */
std::string hexPc(Addr pc);

/** One diagnostic from a verification pass. */
struct Finding
{
    std::string checkId;        //!< stable id, e.g. "cfg.dangling-target"
    Severity severity = Severity::Error;
    Addr pc = invalidAddr;      //!< offending PC; invalidAddr = global
    std::string symbol;         //!< enclosing symbol name, may be empty
    std::string message;

    /** "0x400010 <rsa_multiply+0x10>" (or "<program>" if pc-less). */
    std::string location() const;

    /** Full one-line rendering: location, severity, id, message. */
    std::string toString() const;
};

/**
 * Schema version of VerifyReport::json() (and the csd-lint report
 * built around it). Bump when the JSON shape changes so baseline
 * tooling can refuse to diff incompatible reports.
 */
constexpr unsigned findingsSchemaVersion = 2;

/** Collected findings of one or more passes. */
class VerifyReport
{
  public:
    /** Drop findings with these check ids (lint suppressions). */
    void suppress(const std::set<std::string> &ids) { suppressed_ = ids; }

    /** Record a finding unless its check id is suppressed. */
    void add(Finding finding);

    /** Convenience add. */
    void add(const std::string &check_id, Severity severity, Addr pc,
             const std::string &symbol, const std::string &message);

    const std::vector<Finding> &findings() const { return findings_; }

    std::size_t errorCount() const { return errors_; }
    std::size_t warningCount() const { return warnings_; }
    bool hasErrors() const { return errors_ > 0; }
    bool empty() const { return findings_.empty(); }

    /** True iff any finding's check id starts with @p prefix. */
    bool hasCheck(const std::string &prefix) const;

    /** Move all findings of @p other into this report. */
    void merge(VerifyReport other);

    /**
     * Remove all findings whose check id starts with @p prefix and
     * return how many were removed (csd-lint uses this to consume
     * expected leak-lint hits on known-leaky victims).
     */
    std::size_t consume(const std::string &prefix);

    /** Human-readable rendering, one finding per line. */
    std::string text() const;

    /**
     * Machine-readable JSON:
     * {"schema_version":N,"errors":N,"warnings":N,"findings":[{check,
     * severity,pc,symbol,message,location}, ...]}.
     *
     * Findings are emitted sorted by (pc, check id, message) — not in
     * discovery order — so reports are byte-stable across analysis
     * reorderings and can be diffed against a committed baseline.
     *
     * @param extra_members raw JSON object members (e.g.
     *        "\"channels\": [...]") spliced into the top-level object
     *        by the csd-lint driver; empty for library callers.
     */
    std::string json(const std::string &extra_members = "") const;

  private:
    std::vector<Finding> findings_;
    std::set<std::string> suppressed_;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
};

} // namespace csd

#endif // CSD_ISA_FINDING_HH
