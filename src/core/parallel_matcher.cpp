#include "core/parallel_matcher.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace psm::core {

using rete::AlphaMemoryNode;
using rete::BetaMemoryNode;
using rete::ConstTestNode;
using rete::JoinNode;
using rete::Node;
using rete::NodeKind;
using rete::NotNode;
using rete::Side;
using rete::TerminalNode;
using rete::Token;

ParallelReteMatcher::ParallelReteMatcher(
    std::shared_ptr<const ops5::Program> program, ParallelOptions options,
    rete::CostModel cost_model)
    : program_(std::move(program)), options_(options), cost_(cost_model),
      network_(std::make_shared<rete::Network>(
          program_, rete::NetworkOptions::fullSharing())),
      worker_stats_(options.n_workers + 1)
{
    // With no workers every batch runs inline and no queue is used,
    // so the pool only exists once workers do.
    if (options_.n_workers > 0)
        pool_ = std::make_unique<LockFreeTaskPool<PTask>>(
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

std::string
ParallelReteMatcher::name() const
{
    return "rete-parallel";
}

MatchStats
ParallelReteMatcher::stats() const
{
    MatchStats total;
    for (const WorkerStats &ws : worker_stats_)
        total += ws.stats;
    return total;
}

telemetry::Registry *
ParallelReteMatcher::enableTelemetry()
{
    if (!tel_owned_) {
        tel_owned_ = std::make_unique<telemetry::Registry>(
            options_.n_workers + 1);
        rete::configureTelemetryNodes(*tel_owned_, *network_);
        if (pool_)
            pool_->attachTelemetry(tel_owned_.get());
        tel_.store(tel_owned_.get(), std::memory_order_release);
    }
    return tel_owned_.get();
}

void
ParallelReteMatcher::spawn(PTask task, std::size_t worker,
                           telemetry::Registry *t)
{
    if (t)
        t->count(worker, telemetry::Counter::TasksSpawned);
    if (inline_) {
        stack_.push_back(std::move(task));
        return;
    }
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
    std::optional<PTask> task = pool_->tryPop(worker);
    if (!task)
        return false;
    runRecorded(*task, worker, t);
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
ParallelReteMatcher::runRecorded(const PTask &task, std::size_t worker,
                                 telemetry::Registry *t)
{
    if (!spans_) {
        runTask(task, worker, t);
        return;
    }
    rete::RealSpan span;
    span.node_id = task.node->id;
    span.kind = task.node->kind;
    span.insert = task.insert;
    span.cycle = cycle_;
    span.start_ns = rete::spanClockNanos();
    runTask(task, worker, t);
    span.end_ns = rete::spanClockNanos();
    spans_->record(worker, span);
}

bool
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
        return true;
    }
    std::uint64_t park_start = t ? rete::spanClockNanos() : 0;
    // A wait that ends on the 200 µs backstop with work still pending:
    // a straggler ran that long without spawning, or a wake-up was
    // lost.
    bool backstopped = false;
    idle_mutex_.lock();
    if (!stop_.load(std::memory_order_relaxed) &&
        work_gen_ == seen_work &&
        pending_.load(std::memory_order_acquire) > 0) {
        bool timed_out =
            idle_cv_.wait_for(idle_mutex_, std::chrono::microseconds(200)) ==
            std::cv_status::timeout;
        backstopped =
            timed_out && pending_.load(std::memory_order_acquire) > 0;
    }
    seen_work = work_gen_;
    idle_mutex_.unlock();
    idle_waiters_.fetch_sub(1, std::memory_order_relaxed);
    if (t) {
        if (backstopped)
            t->count(worker, telemetry::Counter::ParkTimeouts);
        t->count(worker, telemetry::Counter::WorkerParks);
        t->observe(worker, telemetry::Histogram::SpinsBeforePark,
                   misses);
        t->observe(worker, telemetry::Histogram::ParkNanos,
                   rete::spanClockNanos() - park_start);
    }
    return false;
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
    auto is_cancelled = [this](const ops5::Wme *wme) {
        return std::binary_search(cancelled_.begin(), cancelled_.end(),
                                  wme);
    };

    ++cycle_;
    telemetry::Registry *t = tel();
    if (t) {
        t->count(0, telemetry::Counter::Batches);
        t->count(0, telemetry::Counter::ChangesProcessed,
                 changes.size());
        // One affected-production epoch per *batch*: unlike the serial
        // matcher the changes run concurrently, so per-change
        // attribution is not observable here (documented in
        // ARCHITECTURE.md §8).
        t->beginEpoch();
    }
    if (spans_)
        spans_->beginCycle(cycle_);

    // Seed: the submitter walks every change's constant-test chains
    // (stateless, a few instructions each, far below task
    // granularity) and sums the modeled cost of the probes the batch
    // starts. The walk reads memory sizes, which is safe: the
    // previous batch has drained and no task of this one exists yet.
    MatchStats &st = worker_stats_[0].stats;
    seeds_.clear();
    std::uint64_t batch_cost = 0;
    for (const ops5::WmeChange &change : changes) {
        ++st.changes_processed;
        if (is_cancelled(change.wme))
            continue;
        st.instructions += cost_.root_dispatch;
        ++st.activations;
        batch_cost += seedChange(change);
    }

    // Too little work to pay for waking the workers (or none to
    // wake): run the batch depth-first on the submitter.
    inline_ = threads_.empty() || batch_cost < cost_.worker_wake;
    if (t)
        t->observe(0, telemetry::Histogram::BatchCostInstr, batch_cost);
    for (PTask &seed : seeds_)
        spawn(std::move(seed), 0, t);
    if (inline_) {
        if (t)
            t->count(0, telemetry::Counter::InlineBatches);
        while (!stack_.empty()) {
            PTask task = std::move(stack_.back());
            stack_.pop_back();
            runRecorded(task, 0, t);
        }
        assert(tombstoneFree() && "an inline batch parked a tombstone");
    } else {
        runParallel(t);
        barrier(t);
    }
    if (t)
        t->endEpoch();
    if (spans_)
        spans_->endCycle();
}

std::uint64_t
ParallelReteMatcher::seedChange(const ops5::WmeChange &change)
{
    MatchStats &st = worker_stats_[0].stats;
    const ops5::SymbolTable &syms = program_->symbols();
    bool insert = change.kind == ops5::ChangeKind::Insert;
    std::uint64_t cost = 0;
    for (Node *head : network_->classRoots(change.wme->className())) {
        // A chain walk counts as one activation, as a task does.
        if (head->kind == NodeKind::ConstTest)
            ++st.activations;
        walk_.push_back(head);
    }
    while (!walk_.empty()) {
        Node *node = walk_.back();
        walk_.pop_back();
        if (node->kind == NodeKind::AlphaMemory) {
            auto *am = static_cast<AlphaMemoryNode *>(node);
            cost += probeCost(*am);
            PTask task;
            task.node = am;
            task.insert = insert;
            task.wme = change.wme;
            seeds_.push_back(std::move(task));
            continue;
        }
        auto *ct = static_cast<ConstTestNode *>(node);
        st.instructions += cost_.const_test;
        ++st.comparisons;
        if (!ct->test.eval(*change.wme, syms))
            continue;
        for (Node *succ : ct->successors)
            walk_.push_back(succ);
    }
    return cost;
}

std::uint64_t
ParallelReteMatcher::probeCost(const AlphaMemoryNode &am) const
{
    std::uint64_t cost = 0;
    for (const Node *succ : am.successors) {
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
    return cost;
}

void
ParallelReteMatcher::runParallel(telemetry::Registry *t)
{
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
}

void
ParallelReteMatcher::barrier(telemetry::Registry *t)
{
    // The network is quiescent here, so the tombstone walk doubles as
    // the beta-memory occupancy sample.
    std::uint64_t absorbed = 0;
    std::uint64_t tombstone_peak = 0;
    for (const auto &node : network_->nodes()) {
        if (node->kind == NodeKind::BetaMemory) {
            auto *bm = static_cast<BetaMemoryNode *>(node.get());
            if (t)
                t->observe(0, telemetry::Histogram::BetaMemorySize,
                           bm->size());
            if (bm->tombstone_high_water > tombstone_peak)
                tombstone_peak = bm->tombstone_high_water;
            if (bm->tombstoneCount() != 0 ||
                bm->tombstone_high_water != 0) {
                absorbed += bm->tombstoneCount();
                bm->clearTombstones();
            }
        }
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

bool
ParallelReteMatcher::tombstoneFree() const
{
    for (const auto &node : network_->nodes())
        if (node->kind == NodeKind::BetaMemory &&
            static_cast<const BetaMemoryNode *>(node.get())
                    ->tombstone_high_water != 0)
            return false;
    return conflict_set_.pendingTombstones() == 0;
}

void
ParallelReteMatcher::runTask(const PTask &task, std::size_t worker,
                             telemetry::Registry *t)
{
    ++worker_stats_[worker].stats.activations;
    std::uint64_t before =
        t ? worker_stats_[worker].stats.instructions : 0;
    switch (task.node->kind) {
      case NodeKind::AlphaMemory:
        processAlphaArrive(task, worker, t);
        break;
      case NodeKind::BetaMemory:
        processBetaArrive(task, worker, t);
        break;
      default:
        assert(false && "unexpected task target");
        break;
    }
    if (t) {
        // Cost-model instructions spent by this activation; for the
        // composite alpha/beta-arrive tasks this charges the whole
        // memory-update + opposite-scan unit to the arriving node.
        std::uint64_t cost =
            worker_stats_[worker].stats.instructions - before;
        t->count(worker, telemetry::Counter::TasksExecuted);
        t->observe(worker, telemetry::Histogram::TaskCostInstr, cost);
        t->nodeActivation(worker, task.node->id, cost);
    }
}

void
ParallelReteMatcher::lockSide(Node *node, Side side, std::size_t worker,
                              telemetry::Registry *t)
{
    if (node->kind == NodeKind::Terminal)
        return; // nothing to guard: the conflict set locks itself
    const bool join = node->kind == NodeKind::Join;
    auto *lock = join ? &static_cast<JoinNode *>(node)->lock : nullptr;
    auto *mutex = join ? nullptr : &static_cast<NotNode *>(node)->mutex;
    // Only a failed first attempt reads the clock, so an uncontended
    // acquisition stays one atomic RMW.
    const bool contended =
        join ? !lock->tryAcquire(side) : !mutex->try_lock();
    if (contended) {
        std::uint64_t wait_start = t ? rete::spanClockNanos() : 0;
        join ? lock->acquire(side) : mutex->lock();
        if (t)
            t->observe(worker, telemetry::Histogram::LockWaitNanos,
                       rete::spanClockNanos() - wait_start);
    }
    if (t) {
        t->count(worker, join ? telemetry::Counter::JoinLockAcquires
                              : telemetry::Counter::NotLockAcquires);
        if (contended)
            t->count(worker,
                     join ? telemetry::Counter::JoinLockContended
                          : telemetry::Counter::NotLockContended);
    }
    if (!checker_)
        return;
    if (join)
        checker_->enterSide(node->id, side, worker);
    else
        checker_->enterExclusive(node->id, worker);
}

void
ParallelReteMatcher::unlockSide(Node *node, Side side)
{
    if (node->kind == NodeKind::Join) {
        if (checker_)
            checker_->leaveSide(node->id, side);
        static_cast<JoinNode *>(node)->lock.release(side);
    } else if (node->kind == NodeKind::Not) {
        if (checker_)
            checker_->leaveExclusive(node->id);
        static_cast<NotNode *>(node)->mutex.unlock();
    }
}

void
ParallelReteMatcher::processAlphaArrive(const PTask &task,
                                        std::size_t worker,
                                        telemetry::Registry *t)
{
    // Composite activation over a shared alpha memory. Take the right
    // side of every successor in ascending node id (the lock order
    // token arrivals share, so no cycle can form), update the memory
    // once, then probe each successor's left input and release that
    // successor. A successor's left side cannot run between the
    // update and its probe, so every (token, element) pair is emitted
    // exactly once — by this probe or by the token arrival — also for
    // a self-join over this one memory.
    auto *am = static_cast<AlphaMemoryNode *>(task.node);
    MatchStats &st = worker_stats_[worker].stats;
    for (Node *succ : am->successors)
        lockSide(succ, Side::Right, worker, t);
    if (task.insert)
        am->insertWme(task.wme);
    else if (!am->removeWme(task.wme) && t)
        t->count(worker, telemetry::Counter::AlphaRemoveMisses);
    st.instructions += task.insert ? cost_.alpha_insert
                                   : cost_.alpha_remove_base;
    for (Node *succ : am->successors) {
        if (succ->kind == NodeKind::Join)
            probeJoinRight(task, static_cast<JoinNode *>(succ), worker,
                           t);
        else
            probeNotRight(task, static_cast<NotNode *>(succ), worker,
                          t);
        unlockSide(succ, Side::Right);
        // The shared memory belongs to no single production; a
        // zero-cost activation of each successor marks its production
        // affected (when it has just one), as a right activation does
        // serially.
        if (t)
            t->nodeActivation(worker, succ->id, 0);
    }
}

void
ParallelReteMatcher::probeJoinRight(const PTask &task, JoinNode *join,
                                    std::size_t worker,
                                    telemetry::Registry *t)
{
    // Probe the (quiescent) left memory. Cost stays modeled as the
    // classic full scan (candidates = opposite size).
    MatchStats &st = worker_stats_[worker].stats;
    const ops5::SymbolTable &syms = program_->symbols();
    std::uint64_t candidates = join->left->size(), outputs = 0;
    auto tryPair = [&](const Token &token) {
        if (rete::evalFlatTests(join->flat, token, *task.wme, syms)) {
            ++outputs;
            PTask next;
            next.node = join->output;
            next.insert = task.insert;
            next.token = token.extend(task.wme);
            spawn(std::move(next), worker, t);
        }
    };
    if (join->left_probe >= 0 && join->left->indexed()) {
        const rete::BetaProbe &probe =
            join->left->probes[join->left_probe];
        auto range = probe.buckets.equal_range(
            rete::probeHashFromWme(join->flat, *task.wme));
        for (auto it = range.first; it != range.second; ++it)
            tryPair(join->left->store.at(it->second));
    } else {
        join->left->store.forEach(tryPair);
    }
    st.comparisons += candidates;
    st.tokens_built += outputs;
    st.instructions += cost_.joinActivation(
        candidates, candidates * join->tests.size(), outputs);
    if (t)
        t->observe(worker, telemetry::Histogram::JoinCandidates,
                   candidates);
}

void
ParallelReteMatcher::probeNotRight(const PTask &task, NotNode *not_node,
                                   std::size_t worker,
                                   telemetry::Registry *t)
{
    MatchStats &st = worker_stats_[worker].stats;
    const ops5::SymbolTable &syms = program_->symbols();
    std::uint64_t candidates = 0;
    // Every entry's count can change on a right arrival, so this scan
    // is inherently linear in the entry count (no identity key).
    for (NotNode::Entry &entry : not_node->entries) {
        ++candidates;
        if (!rete::evalFlatTests(not_node->flat, entry.token, *task.wme,
                                 syms)) {
            continue;
        }
        // The token flips visibility when its count leaves or
        // reaches zero.
        bool flips = task.insert ? ++entry.count == 1
                                 : --entry.count == 0;
        if (flips) {
            PTask next;
            next.node = not_node->output;
            next.insert = !task.insert;
            next.token = entry.token;
            spawn(std::move(next), worker, t);
        }
    }
    st.comparisons += candidates;
    st.instructions += cost_.notActivation(
        candidates, candidates * not_node->tests.size());
    if (t)
        t->observe(worker, telemetry::Histogram::JoinCandidates,
                   candidates);
}

void
ParallelReteMatcher::processBetaArrive(const PTask &task,
                                       std::size_t worker,
                                       telemetry::Registry *t)
{
    // Composite activation over a shared beta memory, the mirror of
    // processAlphaArrive: take the left side of every successor in
    // ascending node id, update the memory once, then probe each
    // successor's right input (or report to the conflict set) and
    // release that successor. An alpha task cannot read this memory
    // between the update and a successor's probe, so each (token,
    // element) pair is again emitted exactly once.
    auto *bm = static_cast<BetaMemoryNode *>(task.node);
    for (Node *succ : bm->successors)
        lockSide(succ, Side::Left, worker, t);
    bool forward = task.insert ? bm->insertToken(task.token)
                               : bm->removeToken(task.token);
    if (!task.insert && !forward && t)
        t->count(worker, telemetry::Counter::TombstoneParks);
    worker_stats_[worker].stats.instructions +=
        task.insert ? cost_.beta_insert : cost_.beta_remove_base;
    for (Node *succ : bm->successors) {
        if (forward) {
            if (succ->kind == NodeKind::Join)
                probeJoinLeft(task, static_cast<JoinNode *>(succ), worker,
                              t);
            else if (succ->kind == NodeKind::Not)
                probeNotLeft(task, static_cast<NotNode *>(succ), worker,
                             t);
            else
                reportTerminal(task, static_cast<TerminalNode *>(succ),
                               worker);
            // As in processAlphaArrive: a shared memory maps to no
            // production, so mark each successor's.
            if (t)
                t->nodeActivation(worker, succ->id, 0);
        }
        unlockSide(succ, Side::Left);
    }
}

void
ParallelReteMatcher::probeJoinLeft(const PTask &task, JoinNode *join,
                                   std::size_t worker,
                                   telemetry::Registry *t)
{
    // Probe the right memory's bucket; charge the modeled full scan
    // (candidates = opposite size) like the serial matcher.
    MatchStats &st = worker_stats_[worker].stats;
    const ops5::SymbolTable &syms = program_->symbols();
    std::uint64_t candidates = join->right->items.size();
    std::uint64_t outputs = 0;
    auto tryPair = [&](const ops5::Wme *wme) {
        if (rete::evalFlatTests(join->flat, task.token, *wme, syms)) {
            ++outputs;
            PTask next;
            next.node = join->output;
            next.insert = task.insert;
            next.token = task.token.extend(wme);
            spawn(std::move(next), worker, t);
        }
    };
    if (join->right_probe >= 0 && join->right->indexed()) {
        const rete::AlphaProbe &probe =
            join->right->probes[join->right_probe];
        auto range = probe.buckets.equal_range(
            rete::probeHashFromToken(join->flat, task.token));
        for (auto it = range.first; it != range.second; ++it)
            tryPair(it->second);
    } else {
        for (const ops5::Wme *wme : join->right->items)
            tryPair(wme);
    }
    st.comparisons += candidates;
    st.tokens_built += outputs;
    st.instructions += cost_.joinActivation(
        candidates, candidates * join->tests.size(), outputs);
    if (t)
        t->observe(worker, telemetry::Histogram::JoinCandidates,
                   candidates);
}

void
ParallelReteMatcher::probeNotLeft(const PTask &task, NotNode *not_node,
                                  std::size_t worker,
                                  telemetry::Registry *t)
{
    MatchStats &st = worker_stats_[worker].stats;
    const ops5::SymbolTable &syms = program_->symbols();
    int count;
    if (task.insert) {
        // Count matches via the right memory's probe bucket; the
        // modeled cost still charges the full scan.
        std::uint64_t candidates = not_node->right->items.size();
        count = 0;
        if (not_node->right_probe >= 0 && not_node->right->indexed()) {
            const rete::AlphaProbe &probe =
                not_node->right->probes[not_node->right_probe];
            auto range = probe.buckets.equal_range(
                rete::probeHashFromToken(not_node->flat, task.token));
            for (auto it = range.first; it != range.second; ++it)
                if (rete::evalFlatTests(not_node->flat, task.token,
                                        *it->second, syms))
                    ++count;
        } else {
            for (const ops5::Wme *wme : not_node->right->items)
                if (rete::evalFlatTests(not_node->flat, task.token, *wme,
                                        syms))
                    ++count;
        }
        st.comparisons += candidates;
        st.instructions += cost_.notActivation(
            candidates, candidates * not_node->tests.size());
        if (t)
            t->observe(worker, telemetry::Histogram::JoinCandidates,
                       candidates);
        not_node->addEntry(task.token, count);
    } else {
        st.instructions += cost_.not_base +
            not_node->entries.size() * cost_.not_per_entry;
        count = not_node->removeEntry(task.token);
    }
    if (count == 0) {
        PTask next;
        next.node = not_node->output;
        next.insert = task.insert;
        next.token = task.token;
        spawn(std::move(next), worker, t);
    }
}

void
ParallelReteMatcher::reportTerminal(const PTask &task, TerminalNode *term,
                                    std::size_t worker)
{
    worker_stats_[worker].stats.instructions += cost_.terminal;
    ops5::Instantiation inst;
    inst.production = term->production;
    inst.wmes = task.token.toVector();
    if (task.insert)
        conflict_set_.insert(std::move(inst));
    else
        conflict_set_.remove(inst);
}

} // namespace psm::core
