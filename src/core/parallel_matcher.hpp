/**
 * @file
 * The fine-grain parallel Rete matcher — the paper's primary
 * contribution, realised on host threads.
 *
 * Parallelism follows Section 4: node activations are the task unit;
 * multiple activations of the same node may run in parallel (same
 * side); and all WME changes of one firing are processed in parallel.
 * The network shares constant tests and alpha memories across
 * productions but gives up two-input sharing: every join and not-node
 * has its own output memory, so each beta memory has one successor.
 * That private beta state is the part of the paper's Section 6
 * "loss of node sharing" the matcher still pays.
 *
 * Interference control (the job of the paper's hardware scheduler):
 *  - an element change is one composite task per alpha memory: it
 *    takes the right side of every successor in ascending node id,
 *    updates the shared memory once, then probes each successor's
 *    left memory and releases that successor;
 *  - a token arrival folds the beta-memory update and the right
 *    probe into one unit under its single successor's lock, so left
 *    activations hold one lock and the fixed order cannot deadlock;
 *  - joins use a DirectionalLock (same side concurrent, opposite side
 *    exclusive; one atomic word), not-nodes a plain mutex (their
 *    counts are read-modify-write);
 *  - out-of-order conjugate insert/remove pairs are absorbed by
 *    anti-token tombstones in beta memories and the conflict set,
 *    cleared at every cycle barrier.
 *
 * Task size against scheduling cost (the paper's Section 8, and its
 * limit (c): a firing changes about two elements, so a cycle has
 * little work to share). The submitter walks each change's stateless
 * constant-test chains itself and, on the way, sums the modeled cost
 * of every probe the batch will start: over the alpha memories it
 * reaches, the CostModel cost of each successor's opposite-memory
 * scan. Below CostModel::worker_wake, or with no workers at all, the
 * batch runs inline: depth-first on a submitter-local LIFO stack,
 * under the same node locks (uncontended), with no wake-up, queue,
 * termination counter or barrier walk. One thread running each
 * alpha arrival's subtree to completion before the next is one of
 * the interleavings the locks already permit, and in it a removal
 * never overtakes its insertion: a seed's own tokens are all of one
 * sign except those a not-node flips, and the flipped token's
 * descendants are built by successors probed after it (downstream
 * nodes have larger ids), so they pop first. An inline batch
 * therefore parks no tombstone, and debug builds assert it. Larger
 * batches go through the workers as described above.
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
#include "rete/cost_model.hpp"
#include "rete/network.hpp"
#include "rete/trace_export.hpp"

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
 * Fine-grain parallel Rete matcher over an alpha-shared network.
 */
class ParallelReteMatcher : public Matcher
{
  public:
    explicit ParallelReteMatcher(
        std::shared_ptr<const ops5::Program> program,
        ParallelOptions options = {}, rete::CostModel cost_model = {});

    ~ParallelReteMatcher() override;

    ParallelReteMatcher(const ParallelReteMatcher &) = delete;
    ParallelReteMatcher &operator=(const ParallelReteMatcher &) = delete;

    void processChanges(std::span<const ops5::WmeChange> changes) override;

    ops5::ConflictSet &conflictSet() override { return conflict_set_; }
    const ops5::ConflictSet &
    conflictSet() const override
    {
        return conflict_set_;
    }

    MatchStats stats() const override;
    std::string name() const override;

    rete::Network &network() { return *network_; }
    const ParallelOptions &options() const { return options_; }

    /** Tombstones absorbed since construction (conjugate races).
     *  Inline batches never add to it. */
    std::uint64_t tombstoneEvents() const { return tombstone_events_; }

    telemetry::Registry *enableTelemetry() override;
    telemetry::Registry *telemetry() override
    {
        return tel_owned_.get();
    }
    const telemetry::Registry *
    telemetry() const override
    {
        return tel_owned_.get();
    }

    /**
     * Attaches a real-time span recorder (nullptr detaches). The
     * recorder must have n_workers + 1 lanes. Same threading rule as
     * enableTelemetry(): call before the first processChanges().
     */
    void setSpanRecorder(rete::SpanRecorder *rec) { spans_ = rec; }

    /** The ownership checker, or nullptr when access_check is off. */
    const DebugAccessChecker *
    accessChecker() const
    {
        return checker_.get();
    }

  private:
    /** One fine-grain task: a node activation. */
    struct PTask
    {
        rete::Node *node = nullptr;
        bool insert = true;
        rete::Token token;
        const ops5::Wme *wme = nullptr;
    };

    void workerLoop(std::size_t worker);

    /**
     * Walks @p change's constant-test chains on the submitter,
     * charging their tests to lane 0 and appending one alpha-arrive
     * task per alpha memory reached to seeds_. Returns the modeled
     * cost of the probes those arrivals will run.
     */
    std::uint64_t seedChange(const ops5::WmeChange &change);
    /** Modeled cost of @p am's successor probes at their current
     *  opposite-memory sizes, as processAlphaArrive charges them
     *  (no outputs counted). */
    std::uint64_t probeCost(const rete::AlphaMemoryNode &am) const;
    /** Parallel path: wakes the workers and joins in until the batch
     *  drains. */
    void runParallel(telemetry::Registry *t);
    /** Cycle barrier after a parallel batch: drops the tombstones its
     *  conjugate races left and samples beta-memory occupancy. */
    void barrier(telemetry::Registry *t);
    /** True when no beta memory has parked a tombstone since the last
     *  barrier and the conflict set holds none (the invariant an
     *  inline batch keeps). */
    bool tombstoneFree() const;

    /**
     * One adaptive-idle park while a batch is live: announce via
     * idle_waiters_, recheck the queues once, then a timed wait on
     * idle_cv_ until new work is spawned (work_gen_ advances), the
     * batch ends, or the backstop timeout fires. @p seen_work is the
     * caller-local last-observed work_gen_; @p misses feeds the
     * SpinsBeforePark histogram. Returns true if the recheck ran a
     * task instead of parking.
     */
    bool midBatchPark(std::size_t worker, telemetry::Registry *t,
                      std::uint64_t &seen_work, std::uint32_t misses);
    // The task path takes the telemetry registry as a parameter: it
    // is loaded from tel_ once per worker-loop iteration (and once
    // per processChanges call) rather than at every call site, so the
    // unattached/compiled-out configurations pay no per-event load.
    void runTask(const PTask &task, std::size_t worker,
                 telemetry::Registry *t);
    /** runTask, recorded in the span recorder when one is attached. */
    void runRecorded(const PTask &task, std::size_t worker,
                     telemetry::Registry *t);
    /** Queues @p task: on the inline stack during an inline batch,
     *  else in the shared pool, counted on pending_. */
    void spawn(PTask task, std::size_t worker, telemetry::Registry *t);
    bool tryRunOne(std::size_t worker, telemetry::Registry *t);

    void processAlphaArrive(const PTask &task, std::size_t worker,
                            telemetry::Registry *t);
    void probeJoinRight(const PTask &task, rete::JoinNode *join,
                        std::size_t worker, telemetry::Registry *t);
    void probeNotRight(const PTask &task, rete::NotNode *not_node,
                       std::size_t worker, telemetry::Registry *t);
    void processBetaArrive(const PTask &task, std::size_t worker,
                           telemetry::Registry *t);

    /** Locks a not-node's mutex, counting contention. */
    void lockNot(rete::NotNode *node, std::size_t worker,
                 telemetry::Registry *t);
    /** Takes the right side of two-input node @p succ (a join's
     *  DirectionalLock, a not-node's mutex) and registers it with the
     *  access checker; unlockRight undoes both. The composite alpha
     *  task holds a set of these taken in a loop, which the static
     *  analysis cannot follow, hence the opt-out. */
    void lockRight(rete::Node *succ, std::size_t worker,
                   telemetry::Registry *t) PSM_NO_THREAD_SAFETY_ANALYSIS;
    void unlockRight(rete::Node *succ) PSM_NO_THREAD_SAFETY_ANALYSIS;

    /** Per-worker statistics slot, padded against false sharing. */
    struct alignas(64) WorkerStats
    {
        MatchStats stats;
    };

    std::shared_ptr<const ops5::Program> program_;
    ParallelOptions options_;
    rete::CostModel cost_;
    std::shared_ptr<rete::Network> network_;
    ops5::ConflictSet conflict_set_;

    /** The task pool; null with no workers (every batch inline). */
    std::unique_ptr<LockFreeTaskPool<PTask>> pool_;
    std::unique_ptr<DebugAccessChecker> checker_;

    // Telemetry: the owned registry is published through an atomic
    // pointer because parked workers poll it outside any batch (no
    // queue/cv happens-before edge exists there). Relaxed loads are
    // free on the hot path; publication order is provided by the
    // enable-before-first-batch contract.
    std::unique_ptr<telemetry::Registry> tel_owned_;
    std::atomic<telemetry::Registry *> tel_{nullptr};
    rete::SpanRecorder *spans_ = nullptr;

    telemetry::Registry *
    tel() const
    {
#if PSM_TELEMETRY
        return tel_.load(std::memory_order_relaxed);
#else
        return nullptr;
#endif
    }

    std::vector<std::thread> threads_;
    std::vector<WorkerStats> worker_stats_;

    // Batch counter, written by the submitter before any task of the
    // batch is pushed and read by workers only after popping one of
    // those tasks — the pool's push/pop supplies the happens-before
    // edge.
    std::uint32_t cycle_ = 0;

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
    /** Submitter-only scratch of processChanges, reused across calls:
     *  a batch's inserted elements, and those it also removes (both
     *  sorted); the constant-test walk's stack; the batch's
     *  alpha-arrive seeds; and the inline path's LIFO task stack. */
    std::vector<const ops5::Wme *> inserted_;
    std::vector<const ops5::Wme *> cancelled_;
    std::vector<rete::Node *> walk_;
    std::vector<PTask> seeds_;
    std::vector<PTask> stack_;
    /** Whether the current batch runs inline. Written by the
     *  submitter before the batch's first task exists; workers read it
     *  in spawn() only while running a task of a parallel batch, after
     *  the pool's push/pop edge, and the submitter writes it again
     *  only after reading pending_ == 0 (acquire). */
    bool inline_ = false;
};

} // namespace psm::core

#endif // PSM_CORE_PARALLEL_MATCHER_HPP
