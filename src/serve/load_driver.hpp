/**
 * @file
 * The E15 load driver behind serve_cli, bench_serve, cluster_cli and
 * bench_cluster: sessions × clients, with optional per-client
 * iteration pacing and per-request deadlines, over a two-method
 * Channel to whatever serves the sessions — PoolChannel here, or
 * cluster::ClientChannel across the process boundary.
 *
 * Each client is bound to one session and plays a fixed iteration:
 * pipelined asserts, optionally a Run, then pipelined retracts of the
 * asserted elements by tag, which keeps working-memory size stable
 * across a sweep. Every completed reply becomes one LoadSample, so
 * callers can take windowed percentiles (p99 before vs after a shard
 * kill) as well as whole-run ones. A request is sent at most once: a
 * lost one counts as an error and is never resent, since an assert
 * whose reply was lost may already have been applied.
 */

#ifndef PSM_SERVE_LOAD_DRIVER_HPP
#define PSM_SERVE_LOAD_DRIVER_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "serve/session_pool.hpp"

namespace psm::serve {

/** One request as the driver sends it. */
struct Op
{
    RequestKind kind = RequestKind::Assert;
    std::size_t tmpl = 0;     ///< assert: index into initialWmes()
    ops5::TimeTag tag = 0;    ///< retract
    std::uint64_t cycles = 0; ///< run
    /** Deadline budget from the send; zero = none. */
    std::chrono::microseconds deadline{0};
};

/** How one sent request ended. */
struct Answer
{
    enum class Status : std::uint8_t {
        Ok,       ///< executed
        Rejected, ///< refused at admission
        Expired,  ///< completed past its deadline
        Lost,     ///< no result: routed error or transport loss
    };
    Status status = Status::Lost;
    ops5::TimeTag tag = 0; ///< Ok assert: the retract handle
    ServeClock::time_point done_at{};
};

/** A client's connection to the sessions under load. Used by one
 *  thread; send() and wait() never throw for a failed request, they
 *  answer it Rejected or Lost. */
class Channel
{
  public:
    Channel() = default;
    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;
    virtual ~Channel() = default;
    /** Sends @p op once; returns the token wait() takes. */
    virtual std::uint64_t send(std::size_t session, const Op &op) = 0;
    /** Blocks for the answer to @p token (each token once). */
    virtual Answer wait(std::uint64_t token) = 0;
};

/** In-process channel: submits with a completion callback, which
 *  stamps done_at on the server thread, so send to done_at is about
 *  the pool's own Response::latency. */
class PoolChannel : public Channel
{
  public:
    PoolChannel(SessionPool &pool, const ops5::Program &program)
        : pool_(pool), program_(program)
    {}

    std::uint64_t send(std::size_t session, const Op &op) override;
    Answer wait(std::uint64_t token) override;

  private:
    SessionPool &pool_;
    const ops5::Program &program_;
    /** Answers of tokens base_, base_ + 1, ...; a collected one is
     *  left invalid until everything before it is collected too. */
    std::deque<std::future<Answer>> pending_;
    std::uint64_t base_ = 1;
};

/** Everything the driver sweeps or the CLIs expose. */
struct LoadConfig
{
    std::size_t sessions = 1;
    std::size_t clients_per_session = 1;
    std::size_t iterations = 100; ///< per client
    std::size_t asserts_per_iteration = 4;
    std::uint64_t run_cycles = 0; ///< 0 = no Run request per iteration

    /** Per-request deadline; zero = none. */
    std::chrono::microseconds deadline{0};

    /** Per-client arrival pacing in iterations/sec; 0 = closed loop
     *  (submit the next iteration as soon as the last completed). */
    double arrival_rate_hz = 0.0;
};

/** One completed reply, stamped relative to load start. */
struct LoadSample
{
    double t_ms = 0.0;
    double latency_us = 0.0;
    std::size_t session = 0;
};

/** Aggregated outcome of one load run. */
struct LoadResult
{
    double elapsed_seconds = 0.0;
    std::uint64_t completed = 0; ///< Ok + Expired answers
    std::uint64_t rejected = 0;
    std::uint64_t expired = 0;
    std::uint64_t errors = 0; ///< Lost answers
    double requests_per_sec = 0.0;    ///< completed / elapsed
    double wme_changes_per_sec = 0.0; ///< Ok asserts + Ok retracts

    // Exact latency percentiles over the samples, microseconds.
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;

    std::vector<LoadSample> samples;
};

/**
 * Runs the load, one thread and one channel (from @p make_channel)
 * per client. Client c uses session c % sessions and assert template
 * c % program->initialWmes().size(). Throws std::runtime_error when
 * the program has no initial WMEs (they are the assert templates),
 * and rethrows a client's exception after every client has joined.
 */
LoadResult
runLoad(const std::shared_ptr<const ops5::Program> &program,
        const LoadConfig &config,
        const std::function<std::unique_ptr<Channel>()> &make_channel);

/**
 * Nearest-rank percentile of sample latencies within
 * [from_ms, to_ms), restricted by @p session_filter when set. E20
 * uses it for "surviving shards' p99 after the kill".
 */
double windowPercentile(
    const std::vector<LoadSample> &samples, double from_ms,
    double to_ms, double pct,
    const std::function<bool(std::size_t)> &session_filter = {});

} // namespace psm::serve

#endif // PSM_SERVE_LOAD_DRIVER_HPP
