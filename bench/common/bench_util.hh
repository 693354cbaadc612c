/**
 * @file
 * Shared helpers for the figure-reproduction harnesses: aligned table
 * printing, number formatting, means, and a machine-readable JSON
 * sidecar.
 *
 * Sidecar: call benchInit(argc, argv) first thing in main(). If
 * `--json <path>` (or `--json=<path>`) is passed, every printed table
 * plus any benchStat() key/values are written there as JSON at
 * process exit, so the perf trajectory of each figure harness can be
 * tracked by tooling instead of scraping stdout. Every sidecar also
 * carries a "manifest" member (obs/manifest.hh): config hash over the
 * artifact and the effective values of the output-shaping knobs
 * (common/env.hh) — never --jobs/--json, so parallel and serial runs
 * hash identically — plus build/host provenance and wall-time phases.
 * Diff two sidecars with the csd-report tool.
 */

#ifndef CSD_BENCH_COMMON_BENCH_UTIL_HH
#define CSD_BENCH_COMMON_BENCH_UTIL_HH

#include <string>
#include <vector>

namespace csd::bench
{

/**
 * Parse harness arguments (--json <path>, --jobs N, or the `=value`
 * forms), arm the JSON sidecar, and parse the CSD_* knobs. Any other
 * argument, or a flag without a value, prints a usage error and exits
 * with status 2; a malformed or unknown knob is fatal. Call before
 * benchHeader().
 */
void benchInit(int argc, char **argv);

/** Print a header identifying the reproduced paper artifact. */
void benchHeader(const std::string &artifact, const std::string &title,
                 const std::string &notes = "");

/** A simple aligned text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /**
     * Print aligned text (numeric columns right-aligned) and register
     * a copy with the JSON sidecar.
     */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Record a key run statistic into the JSON sidecar (thread safe). */
void benchStat(const std::string &key, double value);
void benchStat(const std::string &key, const std::string &value);

/**
 * Record a harness-specific provenance extra (seed, workload variant,
 * sweep axis) into the sidecar's "manifest" member. Unlike
 * benchStat(), these are *inputs*, not results: they also feed the
 * manifest's config_hash, so two sidecars are comparable iff their
 * artifact, relevant environment, and manifest notes all match.
 * Thread safe.
 */
void benchManifestNote(const std::string &key, const std::string &value);

/** Write the sidecar now (also runs automatically at exit). */
void benchWriteJson();

/** Format a double with @p precision decimals. */
std::string fmt(double value, int precision = 3);

/** Format a percentage. */
std::string pct(double fraction, int precision = 1);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

} // namespace csd::bench

#endif // CSD_BENCH_COMMON_BENCH_UTIL_HH
