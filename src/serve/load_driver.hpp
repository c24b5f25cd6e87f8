/**
 * @file
 * Closed-loop load driver for the serving layer: sessions × server
 * threads × clients, with optional per-client arrival pacing and
 * per-request deadlines. Shared by serve_cli and bench_serve so the
 * CLI experiment and the acceptance benchmark measure the same thing.
 *
 * Each client is bound to one session and plays a fixed iteration:
 * a burst of asserts, optionally a Run, then retracts of the burst's
 * elements by tag — the assert/retract pairing keeps working-memory size
 * stable so a sweep's later points measure the same match state as
 * its first. Latencies are recorded exactly (client-side, per
 * response) and percentiles computed from the sorted sample, while
 * the pool's telemetry registry keeps the streaming bucketed view.
 */

#ifndef PSM_SERVE_LOAD_DRIVER_HPP
#define PSM_SERVE_LOAD_DRIVER_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serve/session_pool.hpp"

namespace psm::serve {

/** Everything the load driver sweeps or the CLI exposes. */
struct LoadConfig
{
    std::size_t sessions = 1;
    std::size_t threads = 1; ///< server threads
    std::size_t clients_per_session = 1;
    std::size_t iterations = 100; ///< per client
    std::size_t asserts_per_iteration = 4;
    std::uint64_t run_cycles = 0; ///< 0 = no Run request per iteration

    /** Per-request deadline; zero = none. */
    std::chrono::microseconds deadline{0};

    /** Per-client arrival pacing in iterations/sec; 0 = closed loop
     *  (submit the next iteration as soon as the last completed). */
    double arrival_rate_hz = 0.0;

    MatcherSpec matcher{};
    std::size_t queue_capacity = 1024;
    std::size_t shed_watermark = 0;
    std::size_t max_batch = 64;

    /** Pool durability (see PoolOptions::durability); empty dir
     *  disables. With restore set, sessions warm-start from the
     *  directory's existing state. */
    durable::DurableOptions durability{};
    bool restore = false;

    /** Lint the program at pool construction and refuse to serve on
     *  error-severity findings (see PoolOptions::lint). */
    bool lint = false;
};

/** Aggregated outcome of one load run. */
struct LoadResult
{
    double elapsed_seconds = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t expired = 0;
    double requests_per_sec = 0.0;
    double wme_changes_per_sec = 0.0; ///< assert+retract completions

    // Exact client-side latency percentiles, microseconds.
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;

    SessionPool::Stats pool{};
};

/**
 * Runs one closed-loop load against a fresh SessionPool over
 * @p program. @p inspect, when set, is called after the drain while
 * the pool (and its telemetry registry) is still alive — the hook
 * serve_cli uses to export --metrics. @p on_start is called once the
 * pool exists but before any client submits — the hook serve_cli
 * uses to attach the observability plane (stats server, periodic
 * metrics dumps) to the pool's registry for the duration of the run.
 */
LoadResult
runLoad(std::shared_ptr<const ops5::Program> program,
        const LoadConfig &config,
        const std::function<void(SessionPool &)> &inspect = {},
        const std::function<void(SessionPool &)> &on_start = {});

} // namespace psm::serve

#endif // PSM_SERVE_LOAD_DRIVER_HPP
