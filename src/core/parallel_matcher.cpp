#include "core/parallel_matcher.hpp"

#include <algorithm>
#include <chrono>

namespace psm::core {

using rete::AlphaMemoryNode;
using rete::JoinNode;
using rete::Node;
using rete::NodeKind;
using rete::NotNode;

ParallelReteMatcher::ParallelReteMatcher(
    std::shared_ptr<const ops5::Program> program, ParallelOptions options,
    rete::CostModel cost_model)
    : rete::ReteMatcher(std::make_shared<rete::Network>(
                            std::move(program),
                            rete::NetworkOptions::fullSharing()),
                        cost_model, false, options.n_workers + 1),
      options_(options)
{
    // With no workers every batch runs inline and no queue is used,
    // so the pool only exists once workers do.
    if (options_.n_workers > 0)
        pool_ = std::make_unique<LockFreeTaskPool<Task>>(
            options_.n_workers + 1);
    if (options_.access_check)
        checker_ =
            std::make_unique<DebugAccessChecker>(network_->nodes().size());

    threads_.reserve(options_.n_workers);
    for (std::size_t i = 0; i < options_.n_workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i + 1); });
}

ParallelReteMatcher::~ParallelReteMatcher()
{
    stop_.store(true);
    {
        MutexLock lock(idle_mutex_);
        idle_cv_.notify_all();
    }
    for (std::thread &t : threads_)
        t.join();
}

telemetry::Registry *
ParallelReteMatcher::enableTelemetry()
{
    telemetry::Registry *reg = rete::ReteMatcher::enableTelemetry();
    if (pool_)
        pool_->attachTelemetry(reg);
    return reg;
}

void
ParallelReteMatcher::spawn(Task task, std::size_t worker,
                           telemetry::Registry *t)
{
    if (inline_) {
        rete::ReteMatcher::spawn(std::move(task), worker, t);
        return;
    }
    if (t)
        t->count(worker, telemetry::Counter::TasksSpawned);
    pending_.fetch_add(1, std::memory_order_relaxed);
    pool_->push(std::move(task), worker);
    // Wake a mid-batch parked worker. The fence pairs with the one in
    // midBatchPark: either this load sees the parker's idle_waiters_
    // increment, or the parker's recheck finds the pushed task.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (idle_waiters_.load(std::memory_order_relaxed) > 0) {
        MutexLock lock(idle_mutex_);
        ++work_gen_;
        idle_cv_.notify_all();
    }
}

bool
ParallelReteMatcher::tryRunOne(std::size_t worker,
                               telemetry::Registry *t)
{
    std::optional<Task> task = pool_->tryPop(worker);
    if (!task)
        return false;
    runTask(*task, worker, t);
    // Release order so the submitter's pending_ == 0 read observes
    // every side effect of the batch.
    if (pending_.fetch_sub(1, std::memory_order_release) != 1)
        return true;
    // Batch drained. Wake whoever parked mid-batch (usually the
    // submitter waiting on the completion barrier); the fence pairs
    // with midBatchPark's, as in spawn().
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (idle_waiters_.load(std::memory_order_relaxed) > 0) {
        MutexLock lock(idle_mutex_);
        ++work_gen_;
        idle_cv_.notify_all();
    }
    return true;
}

void
ParallelReteMatcher::midBatchPark(std::size_t worker,
                                  telemetry::Registry *t,
                                  std::uint64_t &seen_work,
                                  std::uint32_t misses)
{
    idle_waiters_.fetch_add(1, std::memory_order_relaxed);
    // Recheck after announcing ourselves: a task spawned, or a batch
    // drained, before the increment produced no wakeup, so the fence
    // (paired with spawn's and tryRunOne's) makes it visible here.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (tryRunOne(worker, t)) {
        idle_waiters_.fetch_sub(1, std::memory_order_relaxed);
        return;
    }
    std::uint64_t park_start = t ? rete::spanClockNanos() : 0;
    bool timed_out = false;
    idle_mutex_.lock();
    if (!stop_.load(std::memory_order_relaxed) &&
        work_gen_ == seen_work &&
        pending_.load(std::memory_order_acquire) > 0) {
        timed_out =
            idle_cv_.wait_for(idle_mutex_, std::chrono::microseconds(200)) ==
            std::cv_status::timeout;
    }
    seen_work = work_gen_;
    idle_mutex_.unlock();
    idle_waiters_.fetch_sub(1, std::memory_order_relaxed);
    if (t) {
        t->count(worker, telemetry::Counter::WorkerParks);
        t->observe(worker, telemetry::Histogram::SpinsBeforePark,
                   misses);
        t->observe(worker, telemetry::Histogram::ParkNanos,
                   rete::spanClockNanos() - park_start);
    }
    // A wait that ended on the 200 µs backstop while a task sat in the
    // pool lost its wake-up; one that found nothing waited out a
    // straggler, which ParkNanos already shows.
    if (timed_out && tryRunOne(worker, t) && t)
        t->count(worker, telemetry::Counter::ParkTimeouts);
}

void
ParallelReteMatcher::workerLoop(std::size_t worker)
{
    std::uint64_t seen_gen = 0;
    std::uint64_t seen_work = 0;
    IdleBackoff backoff;
    while (!stop_.load(std::memory_order_relaxed)) {
        telemetry::Registry *t = tel();
        if (tryRunOne(worker, t)) {
            backoff.reset();
            continue;
        }
        if (pending_.load(std::memory_order_acquire) > 0) {
            // Batch active but queue momentarily empty: adaptive idle
            // — bounded spin, then yield, then park until new work is
            // spawned or the batch drains.
            if (t)
                t->count(worker, telemetry::Counter::IdleSpins);
            if (!backoff.exhausted()) {
                backoff.step();
                continue;
            }
            midBatchPark(worker, t, seen_work, backoff.misses());
            backoff.reset();
            continue;
        }
        backoff.reset();
        // No batch in flight: park until the next one (or shutdown).
        // Explicit wait loop (not the predicate-lambda form) so the
        // thread-safety analysis sees every batch_gen_ access happen
        // with idle_mutex_ held.
        std::uint64_t park_start = t ? rete::spanClockNanos() : 0;
        idle_mutex_.lock();
        while (!stop_.load(std::memory_order_relaxed) &&
               batch_gen_ == seen_gen) {
            idle_cv_.wait(idle_mutex_);
        }
        seen_gen = batch_gen_;
        idle_mutex_.unlock();
        if (t) {
            t->count(worker, telemetry::Counter::WorkerParks);
            t->observe(worker, telemetry::Histogram::ParkNanos,
                       rete::spanClockNanos() - park_start);
        }
    }
}

void
ParallelReteMatcher::processChanges(
    std::span<const ops5::WmeChange> changes)
{
    telemetry::Registry *t = tel();
    beginBatch(changes.size(), t);
    // One affected-production epoch per *batch*: on the worker path
    // the changes run concurrently, so per-change attribution is not
    // observable (documented in ARCHITECTURE.md §9).
    if (t)
        t->beginEpoch();
    // Too little work to pay for waking the workers, none to wake, or
    // a trace to record in order: run the batch as serial Rete does.
    // The cost walk reads memory sizes, which is safe: the previous
    // batch has drained and no task of this one exists yet.
    inline_ = threads_.empty() || sink_ ||
              batchCost(changes, t) < cost_.worker_wake;
    if (inline_) {
        if (t)
            t->count(0, telemetry::Counter::InlineBatches);
        for (std::uint32_t i = 0; i < changes.size(); ++i)
            runChange(changes[i], i, t);
    } else {
        runWorkers(changes, t);
    }
    if (t)
        t->endEpoch();
    endBatch(t);
}

std::uint64_t
ParallelReteMatcher::batchCost(std::span<const ops5::WmeChange> changes,
                               telemetry::Registry *t)
{
    const ops5::SymbolTable &syms = network_->program().symbols();
    std::uint64_t cost = 0;
    for (const ops5::WmeChange &change : changes) {
        for (Node *head : network_->classRoots(change.wme->className()))
            walk_.emplace_back(head, 0);
        while (!walk_.empty()) {
            Node *node = walk_.back().first;
            walk_.pop_back();
            if (node->kind == NodeKind::ConstTest) {
                auto *ct = static_cast<rete::ConstTestNode *>(node);
                if (ct->test.eval(*change.wme, syms))
                    for (Node *succ : ct->successors)
                        walk_.emplace_back(succ, 0);
                continue;
            }
            for (const Node *succ :
                 static_cast<AlphaMemoryNode *>(node)->successors) {
                if (succ->kind == NodeKind::Join) {
                    const auto *join = static_cast<const JoinNode *>(succ);
                    std::uint64_t candidates = join->left->size();
                    cost += cost_.joinActivation(
                        candidates, candidates * join->tests.size(), 0);
                } else {
                    const auto *not_node = static_cast<const NotNode *>(succ);
                    std::uint64_t candidates = not_node->entries.size();
                    cost += cost_.notActivation(
                        candidates, candidates * not_node->tests.size());
                }
            }
        }
    }
    if (t)
        t->observe(0, telemetry::Histogram::BatchCostInstr, cost);
    return cost;
}

void
ParallelReteMatcher::runWorkers(std::span<const ops5::WmeChange> changes,
                                telemetry::Registry *t)
{
    // Within one batch an insert and a remove of the SAME element
    // cancel: the element is invisible at the cycle barrier either
    // way. OPS5 act semantics never produce such conjugate pairs (a
    // remove can only target an element matched by the fired
    // instantiation, i.e. one inserted in an earlier cycle), but
    // synthetic change streams can; processing them concurrently
    // would let the remove overtake the insert at an alpha memory.
    // All other inversions are between *derived* tokens, which the
    // beta-memory/conflict-set tombstones absorb. Only a batch holding
    // a Remove can contain a pair, so insert-only batches skip this.
    inserted_.clear();
    cancelled_.clear();
    if (std::any_of(changes.begin(), changes.end(),
                    [](const ops5::WmeChange &c) {
                        return c.kind == ops5::ChangeKind::Remove;
                    })) {
        for (const ops5::WmeChange &change : changes)
            if (change.kind == ops5::ChangeKind::Insert)
                inserted_.push_back(change.wme);
        std::sort(inserted_.begin(), inserted_.end());
        for (const ops5::WmeChange &change : changes)
            if (change.kind == ops5::ChangeKind::Remove &&
                std::binary_search(inserted_.begin(), inserted_.end(),
                                   change.wme))
                cancelled_.push_back(change.wme);
        std::sort(cancelled_.begin(), cancelled_.end());
    }
    // The walk sends each alpha arrival to the pool (spawn); a worker
    // still polling from the last batch may start on it at once.
    for (std::uint32_t i = 0; i < changes.size(); ++i)
        if (!std::binary_search(cancelled_.begin(), cancelled_.end(),
                                changes[i].wme))
            runChange(changes[i], i, t);

    // Wake parked workers.
    {
        MutexLock lock(idle_mutex_);
        ++batch_gen_;
        idle_cv_.notify_all();
    }
    // The submitter works too. When its queues run dry but
    // stragglers are still executing, it follows the same adaptive
    // idle protocol as the workers instead of spin-yielding: the
    // worker that drains pending_ to zero wakes it.
    IdleBackoff backoff;
    while (pending_.load(std::memory_order_acquire) > 0) {
        if (tryRunOne(0, t)) {
            backoff.reset();
            continue;
        }
        if (t)
            t->count(0, telemetry::Counter::IdleSpins);
        if (!backoff.exhausted()) {
            backoff.step();
            continue;
        }
        midBatchPark(0, t, submitter_seen_work_, backoff.misses());
        backoff.reset();
    }
    barrier(t);
}

void
ParallelReteMatcher::barrier(telemetry::Registry *t)
{
    std::uint64_t absorbed = 0;
    std::uint64_t tombstone_peak = 0;
    for (rete::BetaMemoryNode *bm : beta_memories_) {
        tombstone_peak = std::max(tombstone_peak, bm->tombstone_high_water);
        absorbed += bm->tombstoneCount();
        bm->clearTombstones();
    }
    absorbed += conflict_set_.pendingTombstones();
    conflict_set_.clearTombstones();
    tombstone_events_.fetch_add(absorbed, std::memory_order_relaxed);
    if (t) {
        if (absorbed)
            t->count(0, telemetry::Counter::TombstonesAbsorbed,
                     absorbed);
        if (tombstone_peak)
            t->observe(0, telemetry::Histogram::TombstoneHighWater,
                       tombstone_peak);
    }
}

} // namespace psm::core
