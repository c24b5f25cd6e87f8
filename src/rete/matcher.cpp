#include "rete/matcher.hpp"

#include <cassert>

#include "core/access_check.hpp"

namespace psm::rete {

ReteMatcher::ReteMatcher(std::shared_ptr<Network> network,
                         CostModel cost_model, bool hash_joins,
                         std::size_t lanes)
    : network_(std::move(network)), cost_(cost_model),
      hash_joins_(hash_joins), lanes_(lanes)
{
    for (const auto &node : network_->nodes())
        if (node->kind == NodeKind::BetaMemory)
            beta_memories_.push_back(
                static_cast<BetaMemoryNode *>(node.get()));
}

ReteMatcher::ReteMatcher(std::shared_ptr<Network> network,
                         CostModel cost_model, bool hash_joins)
    : ReteMatcher(std::move(network), cost_model, hash_joins, 1)
{}

ReteMatcher::ReteMatcher(std::shared_ptr<const ops5::Program> program,
                         CostModel cost_model, bool hash_joins)
    : ReteMatcher(std::make_shared<Network>(std::move(program)),
                  cost_model, hash_joins)
{}

ReteMatcher::~ReteMatcher() = default;

void
ReteMatcher::rebuildIndexes()
{
    network_->rebuildIndexes();
}

core::MatchStats
ReteMatcher::stats() const
{
    core::MatchStats total;
    for (const Lane &lane : lanes_)
        total += lane.stats;
    return total;
}

telemetry::Registry *
ReteMatcher::enableTelemetry()
{
    if (!tel_owned_) {
        tel_owned_ = std::make_unique<telemetry::Registry>(lanes_.size());
        configureTelemetryNodes(*tel_owned_, *network_);
        tel_.store(tel_owned_.get(), std::memory_order_release);
    }
    return tel_owned_.get();
}

void
ReteMatcher::processChanges(std::span<const ops5::WmeChange> changes)
{
    telemetry::Registry *t = tel();
    beginBatch(changes.size(), t);
    for (std::uint32_t i = 0; i < changes.size(); ++i) {
        // One epoch per WM change: the sequential matcher measures
        // Section 5's affected-productions-per-change exactly.
        if (t)
            t->beginEpoch();
        runChange(changes[i], i, t);
        if (t)
            t->endEpoch();
    }
    endBatch(t);
}

void
ReteMatcher::beginBatch(std::size_t n_changes, telemetry::Registry *t)
{
    ++cycle_;
    lanes_[0].stats.changes_processed += n_changes;
    if (sink_)
        sink_->beginCycle(cycle_, n_changes);
    if (spans_)
        spans_->beginCycle(cycle_);
    if (t) {
        t->count(0, telemetry::Counter::Batches);
        t->count(0, telemetry::Counter::ChangesProcessed, n_changes);
    }
}

void
ReteMatcher::endBatch(telemetry::Registry *t)
{
    // In one thread a removal never overtakes its insertion: a task
    // probes its successors in ascending id and downstream nodes have
    // larger ids, so an insert's copy of a token is always processed
    // first (ARCHITECTURE.md §2).
    assert(tombstoneFree() && "a serial batch parked a tombstone");
    if (t)
        for (const BetaMemoryNode *bm : beta_memories_)
            t->observe(0, telemetry::Histogram::BetaMemorySize, bm->size());
    if (spans_)
        spans_->endCycle();
}

void
ReteMatcher::runChange(const ops5::WmeChange &change, std::uint32_t index,
                       telemetry::Registry *t)
{
    change_index_ = index;
    const bool insert = change.kind == ops5::ChangeKind::Insert;
    const ops5::SymbolTable &syms = network_->program().symbols();
    // Root dispatch: hash the class, fan out to the alpha chains.
    const std::uint64_t root = activate(nullptr, Side::Right, insert,
                                        cost_.root_dispatch, 0, 0, t);
    for (Node *head : network_->classRoots(change.wme->className()))
        walk_.emplace_back(head, root);
    while (!walk_.empty()) {
        auto [node, parent] = walk_.back();
        walk_.pop_back();
        if (node->kind == NodeKind::AlphaMemory) {
            spawn(Task{node, insert, {}, change.wme, parent}, 0, t);
            // Depth-first: this arrival's whole subtree completes
            // before the walk reaches the next memory.
            while (!stack_.empty()) {
                Task task = std::move(stack_.back());
                stack_.pop_back();
                runTask(task, 0, t);
            }
            continue;
        }
        auto *ct = static_cast<ConstTestNode *>(node);
        const std::uint64_t id =
            activate(ct, Side::Right, insert, cost_.const_test, parent, 0, t);
        ++lanes_[0].stats.comparisons;
        if (ct->test.eval(*change.wme, syms))
            for (Node *succ : ct->successors)
                walk_.emplace_back(succ, id);
    }
}

void
ReteMatcher::spawn(Task task, std::size_t worker, telemetry::Registry *t)
{
    if (t)
        t->count(worker, telemetry::Counter::TasksSpawned);
    stack_.push_back(std::move(task));
}

void
ReteMatcher::runTask(const Task &task, std::size_t worker,
                     telemetry::Registry *t)
{
    RealSpan span;
    if (spans_) {
        span.node_id = task.node->id;
        span.kind = task.node->kind;
        span.insert = task.insert;
        span.cycle = cycle_;
        span.start_ns = spanClockNanos();
    }
    const std::uint64_t before = t ? lanes_[worker].stats.instructions : 0;
    if (task.node->kind == NodeKind::AlphaMemory)
        alphaArrive(task, worker, t);
    else
        betaArrive(task, worker, t);
    if (t) {
        t->count(worker, telemetry::Counter::TasksExecuted);
        t->observe(worker, telemetry::Histogram::TaskCostInstr,
                   lanes_[worker].stats.instructions - before);
    }
    if (spans_) {
        span.end_ns = spanClockNanos();
        spans_->record(worker, span);
    }
}

std::uint64_t
ReteMatcher::activate(const Node *node, Side side, bool insert,
                      std::uint32_t cost, std::uint64_t parent,
                      std::size_t worker, telemetry::Registry *t)
{
    core::MatchStats &st = lanes_[worker].stats;
    ++st.activations;
    st.instructions += cost;
    if (t && node)
        t->nodeActivation(worker, node->id, cost);
    if (!sink_)
        return 0;
    ActivationRecord rec;
    rec.id = next_activation_id_++;
    rec.parent = parent;
    rec.node_id = node ? node->id : -1;
    rec.kind = node ? node->kind : NodeKind::Root;
    rec.side = side;
    rec.insert = insert;
    rec.cost = cost;
    rec.change = change_index_;
    rec.cycle = cycle_;
    sink_->record(rec);
    return rec.id;
}

void
ReteMatcher::lockSide(Node *node, Side side, std::size_t worker,
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
        std::uint64_t wait_start = t ? spanClockNanos() : 0;
        join ? lock->acquire(side) : mutex->lock();
        if (t)
            t->observe(worker, telemetry::Histogram::LockWaitNanos,
                       spanClockNanos() - wait_start);
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
ReteMatcher::unlockSide(Node *node, Side side)
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
ReteMatcher::alphaArrive(const Task &task, std::size_t worker,
                         telemetry::Registry *t)
{
    // Take the right side of every successor in ascending node id (the
    // lock order token arrivals share, so no cycle can form), update
    // the memory once, then probe each successor's left input and
    // release that successor. No left activation of a successor can
    // run between the update and its probe, so every (token, element)
    // pair is emitted exactly once, also for a self-join over this
    // one memory.
    auto *am = static_cast<AlphaMemoryNode *>(task.node);
    for (Node *succ : am->successors)
        lockSide(succ, Side::Right, worker, t);
    // The removal is an O(1) keyed erase, but the plain matcher still
    // *charges* the classic linear scan of the memory so simulator
    // traces match the paper's machine model.
    std::size_t scanned = 0;
    if (task.insert)
        am->insertWme(task.wme);
    else if (!am->removeWme(task.wme, &scanned) && t)
        t->count(worker, telemetry::Counter::AlphaRemoveMisses);
    const std::uint32_t cost =
        task.insert ? cost_.alpha_insert
                    : cost_.alpha_remove_base +
                          static_cast<std::uint32_t>(
                              scanned * cost_.alpha_scan_per_item);
    if (hash_joins_) // hash + bucket maintenance per index
        lanes_[worker].stats.instructions +=
            6u * static_cast<std::uint32_t>(am->indexed_join_successors);
    const std::uint64_t id = activate(am, Side::Right, task.insert, cost,
                                      task.parent, worker, t);
    for (Node *succ : am->successors) {
        if (succ->kind == NodeKind::Join)
            probeJoin(task, static_cast<JoinNode *>(succ), Side::Right, id,
                      worker, t);
        else
            probeNot(task, static_cast<NotNode *>(succ), Side::Right, id,
                     worker, t);
        unlockSide(succ, Side::Right);
    }
}

void
ReteMatcher::betaArrive(const Task &task, std::size_t worker,
                        telemetry::Registry *t)
{
    // The mirror of alphaArrive: take the left side of every successor
    // in ascending node id, update the memory once, then probe each
    // successor's right input (or report to the conflict set) and
    // release it. No alpha task can read this memory between the
    // update and a successor's probe, so each (token, element) pair is
    // again emitted exactly once.
    auto *bm = static_cast<BetaMemoryNode *>(task.node);
    for (Node *succ : bm->successors)
        lockSide(succ, Side::Left, worker, t);
    std::size_t scanned = 0;
    const bool forward = task.insert
                             ? bm->insertToken(task.token)
                             : bm->removeToken(task.token, &scanned);
    if (!task.insert && !forward && t)
        t->count(worker, telemetry::Counter::TombstoneParks);
    const std::uint32_t cost =
        task.insert ? cost_.beta_insert
                    : cost_.beta_remove_base +
                          static_cast<std::uint32_t>(
                              scanned * cost_.beta_scan_per_item);
    if (hash_joins_ && forward) // hash + bucket maintenance per index
        lanes_[worker].stats.instructions +=
            6u * static_cast<std::uint32_t>(bm->indexed_join_successors);
    const std::uint64_t id = activate(bm, Side::Left, task.insert, cost,
                                      task.parent, worker, t);
    for (Node *succ : bm->successors) {
        if (forward) {
            if (succ->kind == NodeKind::Join)
                probeJoin(task, static_cast<JoinNode *>(succ), Side::Left,
                          id, worker, t);
            else if (succ->kind == NodeKind::Not)
                probeNot(task, static_cast<NotNode *>(succ), Side::Left,
                         id, worker, t);
            else
                reportTerminal(task, static_cast<TerminalNode *>(succ), id,
                               worker, t);
        }
        unlockSide(succ, Side::Left);
    }
}

void
ReteMatcher::probeJoin(const Task &task, JoinNode *join, Side side,
                       std::uint64_t parent, std::size_t worker,
                       telemetry::Registry *t)
{
    const ops5::SymbolTable &syms = network_->program().symbols();
    const std::uint64_t id = next_activation_id_; // see activate()
    std::uint64_t probed = 0, outputs = 0;
    // Opposite-memory size: the modeled scan.
    const std::uint64_t full = side == Side::Right
                                   ? join->left->size()
                                   : join->right->items.size();
    auto emit = [&](Token token) {
        ++outputs;
        spawn(Task{join->output, task.insert, std::move(token), nullptr, id},
              worker, t);
    };
    if (side == Side::Right) {
        auto tryPair = [&](const Token &token) {
            ++probed;
            if (evalFlatTests(join->flat, token, *task.wme, syms))
                emit(token.extend(task.wme));
        };
        if (join->left_probe >= 0 && join->left->indexed()) {
            const BetaProbe &probe = join->left->probes[join->left_probe];
            auto range = probe.buckets.equal_range(
                probeHashFromWme(join->flat, *task.wme));
            for (auto it = range.first; it != range.second; ++it)
                tryPair(join->left->store.at(it->second));
        } else {
            join->left->store.forEach(tryPair);
        }
    } else {
        auto tryPair = [&](const ops5::Wme *wme) {
            ++probed;
            if (evalFlatTests(join->flat, task.token, *wme, syms))
                emit(task.token.extend(wme));
        };
        if (join->right_probe >= 0 && join->right->indexed()) {
            const AlphaProbe &probe =
                join->right->probes[join->right_probe];
            auto range = probe.buckets.equal_range(
                probeHashFromToken(join->flat, task.token));
            for (auto it = range.first; it != range.second; ++it)
                tryPair(it->second);
        } else {
            for (const ops5::Wme *wme : join->right->items)
                tryPair(wme);
        }
    }
    // The activation always probed a bucket, but the plain matcher
    // charges the classic full-scan candidate count (the paper's
    // machine model); only the hashed config charges what it probed.
    const std::uint64_t candidates = hash_joins_ ? probed : full;
    core::MatchStats &st = lanes_[worker].stats;
    st.comparisons += candidates;
    st.tokens_built += outputs;
    if (t)
        t->observe(worker, telemetry::Histogram::JoinCandidates,
                   candidates);
    activate(join, side, task.insert,
             cost_.joinActivation(candidates,
                                  candidates * join->tests.size(), outputs),
             parent, worker, t);
}

void
ReteMatcher::probeNot(const Task &task, NotNode *not_node, Side side,
                      std::uint64_t parent, std::size_t worker,
                      telemetry::Registry *t)
{
    const ops5::SymbolTable &syms = network_->program().symbols();
    const std::uint64_t id = next_activation_id_; // see activate()
    std::uint64_t candidates = 0;
    auto forward = [&](const Token &token, bool insert) {
        spawn(Task{not_node->output, insert, token, nullptr, id}, worker,
              t);
    };
    if (side == Side::Right) {
        // Every entry's count can change on a right arrival, so this
        // scan is inherently linear in the entry count (no identity
        // key). A token flips visibility when its count leaves or
        // reaches zero.
        for (NotNode::Entry &entry : not_node->entries) {
            ++candidates;
            if (!evalFlatTests(not_node->flat, entry.token, *task.wme,
                               syms))
                continue;
            if (task.insert ? ++entry.count == 1 : --entry.count == 0)
                forward(entry.token, !task.insert);
        }
    } else if (task.insert) {
        // Count matches via the right memory's probe bucket when one
        // exists; charge the modeled full-scan count either way (not
        // nodes were never hashed in the cost model).
        candidates = not_node->right->items.size();
        int count = 0;
        auto tally = [&](const ops5::Wme *wme) {
            if (evalFlatTests(not_node->flat, task.token, *wme, syms))
                ++count;
        };
        if (not_node->right_probe >= 0 && not_node->right->indexed()) {
            const AlphaProbe &probe =
                not_node->right->probes[not_node->right_probe];
            auto range = probe.buckets.equal_range(
                probeHashFromToken(not_node->flat, task.token));
            for (auto it = range.first; it != range.second; ++it)
                tally(it->second);
        } else {
            for (const ops5::Wme *wme : not_node->right->items)
                tally(wme);
        }
        not_node->addEntry(task.token, count);
        if (count == 0)
            forward(task.token, true);
    } else {
        candidates = not_node->entries.size();
        if (not_node->removeEntry(task.token) == 0)
            forward(task.token, false);
    }
    lanes_[worker].stats.comparisons += candidates;
    if (t)
        t->observe(worker, telemetry::Histogram::JoinCandidates,
                   candidates);
    activate(not_node, side, task.insert,
             cost_.notActivation(candidates,
                                 candidates * not_node->tests.size()),
             parent, worker, t);
}

void
ReteMatcher::reportTerminal(const Task &task, TerminalNode *term,
                            std::uint64_t parent, std::size_t worker,
                            telemetry::Registry *t)
{
    activate(term, Side::Left, task.insert, cost_.terminal, parent,
             worker, t);
    ops5::Instantiation inst;
    inst.production = term->production;
    inst.wmes = task.token.toVector();
    if (task.insert)
        conflict_set_.insert(std::move(inst));
    else
        conflict_set_.remove(inst);
}

bool
ReteMatcher::tombstoneFree() const
{
    for (const BetaMemoryNode *bm : beta_memories_)
        if (bm->tombstone_high_water != 0)
            return false;
    return conflict_set_.pendingTombstones() == 0;
}

std::size_t
ReteMatcher::pendingTombstones() const
{
    std::size_t n = conflict_set_.pendingTombstones();
    for (const BetaMemoryNode *bm : beta_memories_)
        n += bm->tombstoneCount();
    return n;
}

} // namespace psm::rete
