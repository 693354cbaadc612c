/**
 * @file
 * Thread-pool runner for the figure harnesses.
 *
 * Every data point in a figure is an independent simulation (each
 * `Simulation` owns its architectural state, caches, translator,
 * `StatGroup` tree, and — since the obs/ subsystem — its own
 * ObservabilityContext with a private event tracer and lifecycle
 * ring), so the per-case loops parallelize trivially, tracing
 * included. The runner keeps output deterministic by construction:
 * worker threads only *compute* — they fill a result slot indexed by
 * case — and all printing and `Table` building happen on the main
 * thread afterwards, in case order. A `--jobs N` run therefore
 * produces byte-identical stdout and JSON sidecars to `--jobs 1`,
 * with or without CSD_TRACE / CSD_LIFECYCLE_FILE armed (use "%c" in
 * the export paths for one file per simulation context).
 *
 * Job count: `--jobs N` / `--jobs=N` (parsed by benchInit()), else 1.
 * `--jobs 0` means one job per hardware thread. Malformed values are
 * fatal rather than silently serialized.
 */

#ifndef CSD_BENCH_COMMON_PARALLEL_HH
#define CSD_BENCH_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace csd::bench
{

/** Resolved job count for parallel sections (>= 1, see file comment). */
unsigned benchJobs();

/** Record the `--jobs` request (0 = one per hardware thread). */
void benchSetJobs(unsigned jobs);

namespace detail
{

/** Run fn(0..n-1) across @p jobs threads (atomic work-stealing). */
void runIndexed(std::size_t n, unsigned jobs,
                const std::function<void(std::size_t)> &fn);

} // namespace detail

/**
 * Invoke fn(i) for i in [0, n), across benchJobs() threads. Blocks
 * until all indices completed. fn must not print; return results
 * through captured per-index slots.
 */
template <typename Fn>
void
parallelFor(std::size_t n, Fn &&fn)
{
    const unsigned jobs = benchJobs();
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    detail::runIndexed(n, jobs,
                       std::function<void(std::size_t)>(
                           std::forward<Fn>(fn)));
}

/**
 * Compute fn(i) for i in [0, n) in parallel and return the results in
 * index order (deterministic regardless of scheduling). R must be
 * default-constructible and movable.
 */
template <typename R, typename Fn>
std::vector<R>
parallelMap(std::size_t n, Fn &&fn)
{
    std::vector<R> out(n);
    parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace csd::bench

#endif // CSD_BENCH_COMMON_PARALLEL_HH
