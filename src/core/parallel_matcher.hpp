/**
 * @file
 * The fine-grain parallel Rete matcher — the paper's primary
 * contribution, realised on host threads.
 *
 * It is rete::ReteMatcher's executor plus workers. The network is the
 * one serial Rete uses (NetworkOptions::fullSharing()), and the tasks
 * are serial Rete's composite memory arrivals: each takes one side of
 * every successor of its memory in ascending node id, updates the
 * memory once, then probes each successor and releases it. Both task
 * kinds lock in one global order, so no cycle of waiters can form.
 * Joins use a DirectionalLock (same side concurrent, opposite side
 * exclusive; one atomic word), not-nodes a plain mutex (their counts
 * are read-modify-write). Parallelism follows Section 4: many
 * activations of one node may run at once (same side), and all WM
 * changes of one firing are processed in parallel.
 *
 * Task size against scheduling cost (the paper's Section 8, and its
 * limit (c): a firing changes about two elements, so a cycle has
 * little work to share). Before a batch starts, the submitter sums
 * the modeled cost of every probe it will start: over the alpha
 * memories its changes reach, the CostModel cost of each successor's
 * opposite-memory scan. Below CostModel::worker_wake, with no workers
 * at all, or with a trace sink attached, the batch runs inline, and
 * an inline batch is a serial Rete run: the same changes in order on
 * the submitter's LIFO stack, under one affected-production epoch,
 * with no wake-up, queue, termination counter or barrier.
 *
 * Only a batch sent to the workers adds what concurrency needs:
 *  - conjugate cancellation: an insert and a remove of one element in
 *    one batch are dropped together, so a removal cannot overtake its
 *    insertion at an alpha memory;
 *  - tombstones: out-of-order derived insert/remove pairs are
 *    absorbed by anti-tokens in beta memories and the conflict set,
 *    and the barrier after the batch clears them;
 *  - per-worker stats lanes and telemetry shards, and contended lock
 *    waits observed in the LockWaitNanos histogram.
 */

#ifndef PSM_CORE_PARALLEL_MATCHER_HPP
#define PSM_CORE_PARALLEL_MATCHER_HPP

#include <atomic>
#include <condition_variable>
#include <memory>
#include <thread>
#include <vector>

#include "core/access_check.hpp"
#include "core/annotations.hpp"
#include "core/matcher.hpp"
#include "core/task_queue.hpp"
#include "core/telemetry.hpp"
#include "rete/matcher.hpp"

namespace psm::core {

/** Configuration of the parallel matcher. */
struct ParallelOptions
{
    /** Worker threads in addition to the submitting thread (which
     *  also executes tasks while waiting). 0 = run everything on the
     *  submitter, useful for deterministic debugging. */
    std::size_t n_workers = 0;

    /** Has one possible value and nothing reads it: the matcher always
     *  uses LockFreeTaskPool (with n_workers == 0, no queue at all).
     *  Kept only because perfbench/src/matcher_workloads.cpp still sets
     *  it; the next change to the benchmark deletes it and
     *  SchedulerKind. */
    SchedulerKind scheduler = SchedulerKind::LockFree;

    /**
     * Runs every activation under the DebugAccessChecker, turning a
     * broken lock discipline into an immediate abort with node and
     * thread identity instead of silent state corruption. Defaults on
     * in debug builds; costs two atomic RMWs per activation.
     */
#ifdef NDEBUG
    bool access_check = false;
#else
    bool access_check = true;
#endif

    /** Fill in hardware_concurrency - 1 workers. */
    static ParallelOptions
    hostDefaults()
    {
        ParallelOptions o;
        unsigned hc = std::thread::hardware_concurrency();
        o.n_workers = hc > 1 ? hc - 1 : 0;
        return o;
    }
};

/**
 * Fine-grain parallel Rete matcher: rete::ReteMatcher's executor over
 * a fully shared network, plus workers.
 */
class ParallelReteMatcher : public rete::ReteMatcher
{
  public:
    explicit ParallelReteMatcher(
        std::shared_ptr<const ops5::Program> program,
        ParallelOptions options = {}, rete::CostModel cost_model = {});

    ~ParallelReteMatcher() override;

    ParallelReteMatcher(const ParallelReteMatcher &) = delete;
    ParallelReteMatcher &operator=(const ParallelReteMatcher &) = delete;

    void processChanges(std::span<const ops5::WmeChange> changes) override;

    std::string name() const override { return "rete-parallel"; }

    const ParallelOptions &options() const { return options_; }

    /** Tombstones absorbed since construction (conjugate races).
     *  Inline batches never add to it. */
    std::uint64_t tombstoneEvents() const { return tombstone_events_; }

    telemetry::Registry *enableTelemetry() override;

    /** The ownership checker, or nullptr when access_check is off. */
    const DebugAccessChecker *
    accessChecker() const
    {
        return checker_.get();
    }

  private:
    /** Sends @p task to the submitter's stack during an inline batch,
     *  else to the shared pool, counted on pending_. */
    void spawn(Task task, std::size_t worker,
               telemetry::Registry *t) override;

    void workerLoop(std::size_t worker);

    /**
     * Modeled cost of the probes @p changes start: walks their
     * constant-test chains (uncharged) and sums, over the alpha
     * memories reached, each successor's opposite-memory scan at the
     * current sizes.
     */
    std::uint64_t batchCost(std::span<const ops5::WmeChange> changes,
                            telemetry::Registry *t);
    /** Worker path: drops conjugate insert/remove pairs, walks the
     *  rest into the pool, wakes the workers and joins in until the
     *  batch drains, then runs the tombstone barrier. */
    void runWorkers(std::span<const ops5::WmeChange> changes,
                    telemetry::Registry *t);
    /** Cycle barrier after a worker batch: drops the tombstones its
     *  conjugate races left. */
    void barrier(telemetry::Registry *t);

    /**
     * One adaptive-idle park while a batch is live: announce via
     * idle_waiters_, recheck the queues once, then a timed wait on
     * idle_cv_ until new work is spawned (work_gen_ advances), the
     * batch ends, or the backstop timeout fires. @p seen_work is the
     * caller-local last-observed work_gen_; @p misses feeds the
     * SpinsBeforePark histogram. A backstop wait is rechecked once
     * more, and counted in ParkTimeouts only when that recheck finds
     * a task: its wake-up was lost.
     */
    void midBatchPark(std::size_t worker, telemetry::Registry *t,
                      std::uint64_t &seen_work, std::uint32_t misses);
    bool tryRunOne(std::size_t worker, telemetry::Registry *t);

    ParallelOptions options_;

    /** The task pool; null with no workers (every batch inline). */
    std::unique_ptr<LockFreeTaskPool<Task>> pool_;

    std::vector<std::thread> threads_;

    std::atomic<bool> stop_{false};
    std::atomic<long> pending_{0};
    std::atomic<std::uint64_t> tombstone_events_{0};

    // Idle/wake protocol: workers park on idle_cv_ between batches
    // (batch_gen_) and, after the IdleBackoff budget, during a live
    // batch (work_gen_, advanced by spawn/batch-completion when
    // idle_waiters_ says someone is parked). Both generation counters
    // are only ever touched with idle_mutex_ held (checked by
    // -Wthread-safety); stop_ and idle_waiters_ stay atomic because
    // the hot paths poll them outside the lock.
    Mutex idle_mutex_;
    CondVarAny idle_cv_;
    std::uint64_t batch_gen_ PSM_GUARDED_BY(idle_mutex_) = 0;
    std::uint64_t work_gen_ PSM_GUARDED_BY(idle_mutex_) = 0;
    std::atomic<std::uint32_t> idle_waiters_{0};
    /** Submitter-local last-seen work_gen_ (submitter thread only). */
    std::uint64_t submitter_seen_work_ = 0;
    /** Submitter-only scratch of runWorkers, reused across calls: a
     *  batch's inserted elements, and those it also removes (both
     *  sorted). */
    std::vector<const ops5::Wme *> inserted_;
    std::vector<const ops5::Wme *> cancelled_;
    /** Whether the current batch runs inline. Written by the
     *  submitter before the batch's first task exists; workers read it
     *  in spawn() only while running a task of a worker batch, after
     *  the pool's push/pop edge, and the submitter writes it again
     *  only after reading pending_ == 0 (acquire). */
    bool inline_ = true;
};

} // namespace psm::core

#endif // PSM_CORE_PARALLEL_MATCHER_HPP
