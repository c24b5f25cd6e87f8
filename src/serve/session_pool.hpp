/**
 * @file
 * SessionPool: N independent engine sessions served by M threads,
 * with batched ingestion, admission control, deadlines, and graceful
 * drain — the serving layer that turns the reproduction into a
 * multi-tenant system.
 *
 * Design:
 *  - Every session has a bounded FIFO request queue. submit() is the
 *    ONLY admission point and is typed: it accepts the request or
 *    returns a RejectReason (queue full, pool past its shed
 *    watermark, shutting down). Nothing queues unboundedly.
 *  - Completion is one primitive: an accepted request's Completion
 *    callback runs exactly once, on the server thread that executed
 *    it, and one session's callbacks run in its queue order. The
 *    future form of submit() is a thin wrapper that fulfils a
 *    promise from that callback; the cluster worker sends its wire
 *    reply from it instead, so no thread waits per request.
 *  - Server threads take whole sessions, not single requests, off a
 *    ready list; a session is drained by at most one thread at a
 *    time, so engines need no locks. Draining folds contiguous
 *    assert/retract requests into ONE Engine::ExternalBatch — the
 *    paper's "multiple WM changes in parallel" axis (Section 4.3) —
 *    and the amortisation grows exactly when load does: deeper
 *    queues produce bigger batches and fewer match fixpoints per
 *    request.
 *  - Deadlines are enforced twice: a request that expires while
 *    queued is completed (deadline_expired) without executing, and a
 *    Run checks its deadline between cycles via the engine's stop
 *    predicate — no cycle-granularity polling hacks.
 *  - drain() stops admission (ShuttingDown rejections) and waits for
 *    every already-accepted request to complete; shutdown() then
 *    joins the threads. The destructor does both.
 *
 * Telemetry: the pool owns a telemetry::Registry (1 admission shard +
 * one per server thread). Request latency, queue depth at admission,
 * and batch sizes are histograms with p50/p95/p99 JSON export;
 * admissions/rejections/completions/expiries are counters.
 */

#ifndef PSM_SERVE_SESSION_POOL_HPP
#define PSM_SERVE_SESSION_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/telemetry.hpp"
#include "serve/session.hpp"

namespace psm::serve {

/** Pool sizing and policy. */
struct PoolOptions
{
    std::size_t n_sessions = 1;

    /** Server threads shared by all sessions. */
    std::size_t n_threads = 1;

    /** Per-session queue bound; submits beyond it are QueueFull. */
    std::size_t queue_capacity = 1024;

    /**
     * Pool-wide pending-request high-watermark: while the total
     * admitted-but-uncompleted count is at or past it, submits are
     * shed with Overloaded. 0 disables shedding (the per-session
     * capacity still bounds memory).
     */
    std::size_t shed_watermark = 0;

    /** Max WM-change requests folded into one match batch. */
    std::size_t max_batch = 64;

    /** Firing budget for Run requests that ask for 0. */
    std::uint64_t default_run_cycles = 10000;

    /** Spawn server threads in the constructor. Tests set false to
     *  exercise admission control deterministically, then start(). */
    bool autostart = true;

    MatcherSpec matcher{};
    ops5::Strategy strategy = ops5::Strategy::Lex;

    /**
     * Durability. `durability.dir` names the POOL state directory;
     * each session persists under `<dir>/session-<id>`. Empty dir
     * disables durability (the default). With `restore` set, sessions
     * warm-start from existing state in their directory — this is
     * also the migration path: drain pool A (its on_drain checkpoint
     * snapshots every session), destroy it, and build pool B over the
     * same directory with restore = true.
     */
    durable::DurableOptions durability{};
    bool restore = false;

    /**
     * Run the static analyzer (analysis/lint.hpp) over the program at
     * pool construction and throw std::invalid_argument when it finds
     * error-severity defects (e.g. an unsatisfiable LHS). Warnings
     * and notes never reject: served programs legitimately receive
     * their working memory from external submits, which is exactly
     * the closed-world assumption the warning-level checks lean on.
     */
    bool lint = false;
};

/**
 * The multi-session serving pool. All public methods are thread-safe
 * except engine(), which requires a quiesced pool (see below).
 */
class SessionPool
{
  public:
    SessionPool(std::shared_ptr<const ops5::Program> program,
                PoolOptions options);

    /** Drains and joins. */
    ~SessionPool();

    SessionPool(const SessionPool &) = delete;
    SessionPool &operator=(const SessionPool &) = delete;

    std::size_t sessionCount() const { return sessions_.size(); }
    const PoolOptions &options() const { return options_; }

    /**
     * Admits @p req into @p session's queue or rejects it. Safe from
     * any thread. On acceptance (RejectReason::None) @p done runs
     * exactly once, on a server thread, after every earlier request
     * of the session has completed, and before drain() can return. A
     * rejected request never calls @p done.
     */
    RejectReason submit(std::size_t session, Request req,
                        Completion done);

    /** The same admission, with the Response delivered through
     *  Submit::response. */
    Submit submit(std::size_t session, Request req);

    /** Spawns the server threads (idempotent). */
    void start();

    /**
     * Stops admission and blocks until every accepted request has
     * been completed. Threads stay alive (an explicit start() after
     * drain is not supported; build a new pool instead).
     */
    void drain();

    /** drain() + join all server threads (idempotent). */
    void shutdown();

    /** True while submit() can still accept work. */
    bool accepting() const
    {
        return accepting_.load(std::memory_order_acquire);
    }

    /**
     * Direct engine access for tests and post-drain inspection. Only
     * valid while the pool cannot touch the session concurrently:
     * before start(), or after drain()/shutdown().
     */
    core::Engine &engine(std::size_t session);

    /** `<pool dir>/session-<id>`: where one session's durable state
     *  lives. Stable across pool generations — migration relies on
     *  it. */
    static std::string sessionDir(const std::string &pool_dir,
                                  std::size_t session);

    /**
     * Snapshots every durable session now (no-op otherwise). Requires
     * a quiesced pool, same as engine(); drain() calls it when the
     * checkpoint policy has on_drain set.
     */
    void checkpointAll();

    /** What recovery did for one session at pool construction. */
    const durable::RecoveryStats &recoveryStats(std::size_t session);

    /** The pool-owned registry (latency/depth/batch histograms). */
    telemetry::Registry &metrics() { return metrics_; }
    const telemetry::Registry &metrics() const { return metrics_; }

    /** Plain counters mirrored outside telemetry (exact, typed):
     *  per-session LiveStats summed, plus the pool-level rejections. */
    struct Stats
    {
        std::uint64_t admitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t expired = 0; ///< deadline hit (subset of completed)
        std::uint64_t rejected_full = 0;
        std::uint64_t rejected_overload = 0;
        std::uint64_t rejected_shutdown = 0;
        std::uint64_t batches = 0; ///< ExternalBatch commits

        std::uint64_t
        rejected() const
        {
            return rejected_full + rejected_overload +
                   rejected_shutdown;
        }
    };

    Stats stats() const;

    /**
     * Writes per-session live stats as one JSON extra-field fragment
     * (`"sessions": [{...}, ...]`, no trailing comma) — the shape the
     * observability hub splices into /stats.json. Safe from any
     * thread; queue depths are read under each session's own mutex,
     * tallies are relaxed atomics.
     */
    void writeSessionStatsJson(std::ostream &os) const;

    /** The same per-session stats as Prometheus-style gauge lines
     *  labelled {session="N"}, for the /metrics exposition. */
    void writeSessionExposition(std::ostream &os,
                                const std::string &prefix) const;

  private:
    void serverLoop(std::size_t worker);

    /** Executes up to max_batch requests of @p s; returns completed
     *  count. @p shard is the caller's telemetry shard. */
    void drainSession(Session &s, std::size_t shard);

    void completeOne(Session &s, Session::Pending &p,
                     Response &&resp, std::size_t shard);

    /** Releases one pending_ slot; wakes drain() at zero. */
    void releasePending();

    std::shared_ptr<const ops5::Program> program_;
    PoolOptions options_;
    telemetry::Registry metrics_;
    std::vector<std::unique_ptr<Session>> sessions_;

    // Ready list: sessions with queued work, each present at most
    // once (Session::scheduled). Guarded by ready_mu_.
    std::mutex ready_mu_;
    std::condition_variable ready_cv_;
    std::deque<std::size_t> ready_;
    bool stop_threads_ = false;

    // Drain rendezvous: pending_ counts admitted-but-uncompleted
    // requests; drained_cv_ fires when it reaches zero.
    std::atomic<std::uint64_t> pending_{0};
    std::condition_variable drained_cv_;

    std::atomic<bool> accepting_{true};
    bool started_ = false;  ///< guarded by ready_mu_
    bool joined_ = false;   ///< guarded by ready_mu_
    std::mutex checkpoint_mu_; ///< serializes checkpointAll()
    std::vector<std::thread> threads_;

    // Rejections decided before a session is chosen; everything else
    // is counted once, in the sessions' LiveStats.
    std::atomic<std::uint64_t> n_rej_overload_{0};
    std::atomic<std::uint64_t> n_rej_shutdown_{0};
};

} // namespace psm::serve

#endif // PSM_SERVE_SESSION_POOL_HPP
