/**
 * @file
 * The SPEC figure family (Figs. 12-16, the devectorization
 * experiments). Each harness is a view: it lists the SpecCells it
 * needs (a synthetic SPEC preset under one of the three VPU policies),
 * runSpecCells() simulates them, and the harness renders tables from
 * the timing, micro-op, gating and energy statistics in request order.
 */

#ifndef CSD_BENCH_COMMON_SPEC_RUNNER_HH
#define CSD_BENCH_COMMON_SPEC_RUNNER_HH

#include <string>
#include <vector>

#include "power/gating.hh"
#include "sim/simulation.hh"
#include "workloads/spec.hh"

namespace csd::bench
{

/** Results of one (benchmark, policy) run. */
struct SpecRunResult
{
    std::string name;
    Tick cycles = 0;
    std::uint64_t uops = 0;
    EnergyBreakdown energy;
    double gatedFraction = 0.0;
    double wakingFraction = 0.0;
    std::uint64_t sseOn = 0;
    std::uint64_t sseWaking = 0;
    std::uint64_t sseGated = 0;
    std::uint64_t gateEvents = 0;
    std::uint64_t devectUops = 0;
    /** CPI-stack attribution; buckets sum to cycles. */
    std::array<Cycles, numCpiBuckets> cpiCycles{};
};

/** Knobs shared across the Figs. 12-16 harnesses. */
struct SpecRunConfig
{
    /** 0 = auto-size so each run executes ~targetInstructions. */
    unsigned phasePairs = 0;
    std::uint64_t targetInstructions = 400000;
    GatingParams gating;       //!< policy field is overridden per run
    EnergyParams energy;
    std::uint64_t seed = 1;
};

/** One (preset, policy, config) run: the unit a view requests. */
struct SpecCell
{
    std::string preset;  //!< a specPresets() name
    GatingPolicy policy{};
    SpecRunConfig config;
};

/** Every preset under each of @p policies (preset-major). */
std::vector<SpecCell> presetCells(const std::vector<GatingPolicy> &policies,
                                  const SpecRunConfig &config = {});

/** Simulate @p cells (across --jobs threads); results come back in
 *  request order. */
std::vector<SpecRunResult> runSpecCells(const std::vector<SpecCell> &cells);

} // namespace csd::bench

#endif // CSD_BENCH_COMMON_SPEC_RUNNER_HH
