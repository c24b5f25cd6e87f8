#include "rete/matcher.hpp"

#include <algorithm>

namespace psm::rete {

ReteMatcher::ReteMatcher(std::shared_ptr<Network> network,
                         CostModel cost_model, bool hash_joins)
    : network_(std::move(network)), cost_(cost_model),
      hash_joins_(hash_joins)
{
    for (const auto &node : network_->nodes())
        if (node->kind == NodeKind::BetaMemory)
            beta_memories_.push_back(
                static_cast<BetaMemoryNode *>(node.get()));
}

ReteMatcher::ReteMatcher(std::shared_ptr<const ops5::Program> program,
                         CostModel cost_model, bool hash_joins)
    : ReteMatcher(std::make_shared<Network>(std::move(program)),
                  cost_model, hash_joins)
{}

void
ReteMatcher::rebuildIndexes()
{
    network_->rebuildIndexes();
}

telemetry::Registry *
ReteMatcher::enableTelemetry()
{
    if (!tel_) {
        tel_ = std::make_unique<telemetry::Registry>(1);
        configureTelemetryNodes(*tel_, *network_);
    }
    return tel_.get();
}

std::uint64_t
ReteMatcher::recordActivation(const WorkItem &item, NodeKind kind,
                              std::uint32_t cost)
{
    std::uint64_t id = next_activation_id_++;
    ++stats_.activations;
    stats_.instructions += cost;
    if (tel_) {
        tel_->count(0, telemetry::Counter::TasksExecuted);
        tel_->observe(0, telemetry::Histogram::TaskCostInstr, cost);
        if (item.node)
            tel_->nodeActivation(0, item.node->id, cost);
    }
    if (sink_) {
        ActivationRecord rec;
        rec.id = id;
        rec.parent = item.parent;
        rec.node_id = item.node ? item.node->id : -1;
        rec.kind = kind;
        rec.side = item.side;
        rec.insert = item.insert;
        rec.cost = cost;
        rec.change = change_index_;
        rec.cycle = cycle_;
        sink_->record(rec);
    }
    return id;
}

void
ReteMatcher::emit(WorkItem item, std::uint64_t parent)
{
    item.parent = parent;
    queue_.push_back(std::move(item));
}

void
ReteMatcher::processChanges(std::span<const ops5::WmeChange> changes)
{
    ++cycle_;
    if (sink_)
        sink_->beginCycle(cycle_, changes.size());
    if (spans_)
        spans_->beginCycle(cycle_);
    if (tel_) {
        tel_->count(0, telemetry::Counter::Batches);
        tel_->count(0, telemetry::Counter::ChangesProcessed,
                    changes.size());
    }

    change_index_ = 0;
    for (const ops5::WmeChange &change : changes) {
        ++stats_.changes_processed;
        // One epoch per WM change: the sequential matcher measures
        // Section 5's affected-productions-per-change exactly.
        if (tel_)
            tel_->beginEpoch();
        bool insert = change.kind == ops5::ChangeKind::Insert;

        // Root dispatch: hash the class, fan out to the alpha chains.
        WorkItem root;
        root.side = Side::Right;
        root.insert = insert;
        root.wme = change.wme;
        std::uint64_t root_id =
            recordActivation(root, NodeKind::Root, cost_.root_dispatch);

        for (Node *head : network_->classRoots(change.wme->className())) {
            WorkItem item;
            item.node = head;
            item.side = Side::Right;
            item.insert = insert;
            item.wme = change.wme;
            emit(std::move(item), root_id);
        }

        // Sequential semantics: drain each change to fixpoint before
        // starting the next (the trace keeps per-change attribution).
        //
        // Depth-first (LIFO) order is load-bearing, not a preference:
        // when one WME feeds BOTH inputs of a join (it matches two
        // condition elements of a production), exactly-once pairing
        // requires that each two-input activation runs while the
        // conjugate side's memory still holds its pre-change contents.
        // Depth-first gives that (each alpha subtree completes before
        // the next memory update), mirroring the recursive procedure
        // calls of Forgy's interpreter; breadth-first would emit the
        // self-join pair twice on insert and zero times on delete.
        while (!queue_.empty()) {
            WorkItem item = std::move(queue_.back());
            queue_.pop_back();
            if (spans_) {
                RealSpan span;
                span.node_id = item.node->id;
                span.kind = item.node->kind;
                span.insert = item.insert;
                span.cycle = cycle_;
                span.start_ns = spanClockNanos();
                processItem(item);
                span.end_ns = spanClockNanos();
                spans_->record(0, span);
            } else {
                processItem(item);
            }
        }
        if (tel_)
            tel_->endEpoch();
        ++change_index_;
    }

    // Cycle barrier: no tombstone may survive into the next cycle.
    for (BetaMemoryNode *bm : beta_memories_)
        bm->clearTombstones();
    conflict_set_.clearTombstones();
    if (spans_)
        spans_->endCycle();
}

void
ReteMatcher::processItem(const WorkItem &item)
{
    switch (item.node->kind) {
      case NodeKind::ConstTest:
        processConstTest(item);
        break;
      case NodeKind::AlphaMemory:
        processAlphaMemory(item);
        break;
      case NodeKind::BetaMemory:
        processBetaMemory(item);
        break;
      case NodeKind::Join:
        processJoin(item);
        break;
      case NodeKind::Not:
        processNot(item);
        break;
      case NodeKind::Terminal:
        processTerminal(item);
        break;
      case NodeKind::Root:
        break; // never queued
    }
}

void
ReteMatcher::processConstTest(const WorkItem &item)
{
    auto *node = static_cast<ConstTestNode *>(item.node);
    std::uint64_t id =
        recordActivation(item, NodeKind::ConstTest, cost_.const_test);
    ++stats_.comparisons;
    if (!node->test.eval(*item.wme, network_->program().symbols()))
        return;
    for (Node *succ : node->successors) {
        WorkItem next = item;
        next.node = succ;
        emit(std::move(next), id);
    }
}

void
ReteMatcher::processAlphaMemory(const WorkItem &item)
{
    auto *node = static_cast<AlphaMemoryNode *>(item.node);
    std::uint32_t cost;
    if (item.insert) {
        node->insertWme(item.wme);
        cost = cost_.alpha_insert;
    } else {
        // The removal is an O(1) keyed erase, but the plain matcher
        // still *charges* the classic linear-scan cost so simulator
        // traces match the paper's machine model.
        std::size_t scanned = node->size();
        if (!node->removeWme(item.wme) && tel_)
            tel_->count(0, telemetry::Counter::AlphaRemoveMisses);
        cost = cost_.alpha_remove_base +
               static_cast<std::uint32_t>(scanned *
                                          cost_.alpha_scan_per_item);
    }
    if (hash_joins_)
        stats_.instructions += // hash + bucket maintenance per index
            6u * static_cast<std::uint32_t>(node->indexed_join_successors);
    std::uint64_t id = recordActivation(item, NodeKind::AlphaMemory, cost);
    for (Node *succ : node->successors) {
        WorkItem next = item;
        next.node = succ;
        next.side = Side::Right;
        emit(std::move(next), id);
    }
}

void
ReteMatcher::processBetaMemory(const WorkItem &item)
{
    auto *node = static_cast<BetaMemoryNode *>(item.node);
    bool forward;
    std::uint32_t cost;
    if (item.insert) {
        forward = node->insertToken(item.token);
        cost = cost_.beta_insert;
    } else {
        std::size_t scanned = node->size();
        forward = node->removeToken(item.token);
        if (!forward && tel_)
            tel_->count(0, telemetry::Counter::TombstoneParks);
        cost = cost_.beta_remove_base +
               static_cast<std::uint32_t>(scanned *
                                          cost_.beta_scan_per_item);
    }
    if (hash_joins_ && forward)
        stats_.instructions += // hash + bucket maintenance per index
            6u * static_cast<std::uint32_t>(node->indexed_join_successors);
    if (tel_)
        tel_->observe(0, telemetry::Histogram::BetaMemorySize,
                      node->size());
    std::uint64_t id = recordActivation(item, NodeKind::BetaMemory, cost);
    if (!forward)
        return;
    for (Node *succ : node->successors) {
        WorkItem next = item;
        next.node = succ;
        next.side = Side::Left;
        emit(std::move(next), id);
    }
}

void
ReteMatcher::processJoin(const WorkItem &item)
{
    auto *node = static_cast<JoinNode *>(item.node);
    const ops5::SymbolTable &syms = network_->program().symbols();
    std::uint64_t probed = 0, outputs = 0;
    std::uint64_t full = 0; // opposite-memory size: the modeled scan
    std::vector<WorkItem> produced;

    if (item.side == Side::Left) {
        full = node->right->items.size();
        auto tryPair = [&](const ops5::Wme *wme) {
            ++probed;
            if (evalFlatTests(node->flat, item.token, *wme, syms)) {
                ++outputs;
                WorkItem next;
                next.node = node->output;
                next.side = Side::Left;
                next.insert = item.insert;
                next.token = item.token.extend(wme);
                produced.push_back(std::move(next));
            }
        };
        if (node->right_probe >= 0 && node->right->indexed()) {
            const AlphaProbe &probe =
                node->right->probes[node->right_probe];
            auto range = probe.buckets.equal_range(
                probeHashFromToken(node->flat, item.token));
            for (auto it = range.first; it != range.second; ++it)
                tryPair(it->second);
        } else {
            for (const ops5::Wme *wme : node->right->items)
                tryPair(wme);
        }
    } else {
        full = node->left->size();
        auto tryPair = [&](const Token &token) {
            ++probed;
            if (evalFlatTests(node->flat, token, *item.wme, syms)) {
                ++outputs;
                WorkItem next;
                next.node = node->output;
                next.side = Side::Left;
                next.insert = item.insert;
                next.token = token.extend(item.wme);
                produced.push_back(std::move(next));
            }
        };
        if (node->left_probe >= 0 && node->left->indexed()) {
            const BetaProbe &probe =
                node->left->probes[node->left_probe];
            auto range = probe.buckets.equal_range(
                probeHashFromWme(node->flat, *item.wme));
            for (auto it = range.first; it != range.second; ++it)
                tryPair(node->left->store.at(it->second));
        } else {
            node->left->store.forEach(
                [&](const Token &token) { tryPair(token); });
        }
    }

    // The activation always probed a bucket, but the plain matcher
    // charges the classic full-scan candidate count (the paper's
    // machine model); only the hashed config charges what it probed.
    std::uint64_t candidates = hash_joins_ ? probed : full;
    std::uint32_t cost = cost_.joinActivation(
        candidates, candidates * node->tests.size(), outputs);
    if (tel_)
        tel_->observe(0, telemetry::Histogram::JoinCandidates,
                      candidates);
    std::uint64_t id = recordActivation(item, NodeKind::Join, cost);
    stats_.comparisons += candidates;
    stats_.tokens_built += outputs;
    for (WorkItem &next : produced)
        emit(std::move(next), id);
}

void
ReteMatcher::processNot(const WorkItem &item)
{
    auto *node = static_cast<NotNode *>(item.node);
    const ops5::SymbolTable &syms = network_->program().symbols();
    std::uint64_t candidates = 0;
    std::vector<WorkItem> produced;

    auto forward = [&](const Token &token, bool insert) {
        WorkItem next;
        next.node = node->output;
        next.side = Side::Left;
        next.insert = insert;
        next.token = token;
        produced.push_back(std::move(next));
    };

    if (item.side == Side::Left) {
        if (item.insert) {
            // Count matches via the right memory's probe bucket when
            // one exists; charge the modeled full-scan count either
            // way (not nodes were never hashed in the cost model).
            candidates = node->right->items.size();
            int count = 0;
            if (node->right_probe >= 0 && node->right->indexed()) {
                const AlphaProbe &probe =
                    node->right->probes[node->right_probe];
                auto range = probe.buckets.equal_range(
                    probeHashFromToken(node->flat, item.token));
                for (auto it = range.first; it != range.second; ++it)
                    if (evalFlatTests(node->flat, item.token,
                                      *it->second, syms))
                        ++count;
            } else {
                for (const ops5::Wme *wme : node->right->items)
                    if (evalFlatTests(node->flat, item.token, *wme,
                                      syms))
                        ++count;
            }
            node->addEntry(item.token, count);
            if (count == 0)
                forward(item.token, true);
        } else {
            candidates = node->entries.size();
            int count = node->removeEntry(item.token);
            if (count == 0)
                forward(item.token, false);
        }
    } else {
        for (NotNode::Entry &entry : node->entries) {
            ++candidates;
            if (!evalFlatTests(node->flat, entry.token, *item.wme, syms))
                continue;
            if (item.insert) {
                if (++entry.count == 1)
                    forward(entry.token, false);
            } else {
                if (--entry.count == 0)
                    forward(entry.token, true);
            }
        }
    }

    std::uint32_t cost =
        cost_.notActivation(candidates, candidates * node->tests.size());
    std::uint64_t id = recordActivation(item, NodeKind::Not, cost);
    stats_.comparisons += candidates;
    for (WorkItem &next : produced)
        emit(std::move(next), id);
}

void
ReteMatcher::processTerminal(const WorkItem &item)
{
    auto *node = static_cast<TerminalNode *>(item.node);
    recordActivation(item, NodeKind::Terminal, cost_.terminal);
    ops5::Instantiation inst;
    inst.production = node->production;
    inst.wmes = item.token.toVector();
    if (item.insert)
        conflict_set_.insert(std::move(inst));
    else
        conflict_set_.remove(inst);
}

std::size_t
ReteMatcher::pendingTombstones() const
{
    std::size_t n = conflict_set_.pendingTombstones();
    for (const auto &node : network_->nodes()) {
        if (node->kind == NodeKind::BetaMemory)
            n += static_cast<const BetaMemoryNode *>(node.get())
                     ->tombstoneCount();
    }
    return n;
}

} // namespace psm::rete
