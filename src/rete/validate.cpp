#include "rete/validate.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "ops5/conflict.hpp"

namespace psm::rete {

void
ValidationResult::merge(ValidationResult other)
{
    errors.insert(errors.end(),
                  std::make_move_iterator(other.errors.begin()),
                  std::make_move_iterator(other.errors.end()));
}

std::string
ValidationResult::summary(std::size_t max_errors) const
{
    std::ostringstream os;
    std::size_t n = std::min(max_errors, errors.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (i)
            os << "; ";
        os << errors[i];
    }
    if (errors.size() > n)
        os << "; ... (" << errors.size() - n << " more)";
    return os.str();
}

namespace {

void
nodeError(ValidationResult &result, const Node *node,
          const std::string &msg)
{
    std::ostringstream os;
    os << nodeKindName(node->kind) << " node " << node->id << ": " << msg;
    result.errors.push_back(os.str());
}

// --- structural invariants ---------------------------------------------

class StructureValidator
{
  public:
    explicit StructureValidator(const Network &net) : net_(net) {}

    ValidationResult
    run()
    {
        const auto &nodes = net_.nodes();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const Node *node = nodes[i].get();
            if (node->id != static_cast<int>(i)) {
                nodeError(result_, node,
                          "id does not match its index " +
                              std::to_string(i));
            }
            switch (node->kind) {
              case NodeKind::ConstTest:
                checkConstTest(
                    static_cast<const ConstTestNode *>(node));
                break;
              case NodeKind::AlphaMemory:
                checkAlphaMemory(
                    static_cast<const AlphaMemoryNode *>(node));
                break;
              case NodeKind::BetaMemory:
                checkBetaMemory(
                    static_cast<const BetaMemoryNode *>(node));
                break;
              case NodeKind::Join:
                checkTwoInput(node,
                              static_cast<const JoinNode *>(node)->left,
                              static_cast<const JoinNode *>(node)->right,
                              static_cast<const JoinNode *>(node)->output);
                break;
              case NodeKind::Not:
                checkTwoInput(node,
                              static_cast<const NotNode *>(node)->left,
                              static_cast<const NotNode *>(node)->right,
                              static_cast<const NotNode *>(node)->output);
                break;
              case NodeKind::Terminal:
                if (!static_cast<const TerminalNode *>(node)->production)
                    nodeError(result_, node, "null production");
                break;
              case NodeKind::Root:
                break;
            }
        }
        checkProducers();
        checkTerminalFeeders();
        return std::move(result_);
    }

  private:
    void
    checkConstTest(const ConstTestNode *ct)
    {
        for (const Node *succ : ct->successors) {
            if (!succ) {
                nodeError(result_, ct, "null successor");
                continue;
            }
            if (succ->kind != NodeKind::ConstTest &&
                succ->kind != NodeKind::AlphaMemory) {
                nodeError(result_, ct,
                          std::string("successor of unexpected kind ") +
                              nodeKindName(succ->kind));
            }
        }
    }

    void
    checkAlphaMemory(const AlphaMemoryNode *am)
    {
        if (!net_.options().share_alpha && am->successors.size() > 1) {
            nodeError(result_, am,
                      "private-state network violated: " +
                          std::to_string(am->successors.size()) +
                          " successors");
        }
        int prev_id = -1;
        for (const Node *succ : am->successors) {
            if (!succ) {
                nodeError(result_, am, "null successor");
                continue;
            }
            checkLockOrder(am, succ, prev_id);
            const AlphaMemoryNode *right = nullptr;
            if (succ->kind == NodeKind::Join)
                right = static_cast<const JoinNode *>(succ)->right;
            else if (succ->kind == NodeKind::Not)
                right = static_cast<const NotNode *>(succ)->right;
            else {
                nodeError(result_, am,
                          std::string("successor of unexpected kind ") +
                              nodeKindName(succ->kind));
                continue;
            }
            if (right != am) {
                nodeError(result_, am,
                          "successor two-input node " +
                              std::to_string(succ->id) +
                              " does not use it as right input");
            }
        }
    }

    void
    checkBetaMemory(const BetaMemoryNode *bm)
    {
        if (!net_.options().share_two_input && bm != net_.top() &&
            bm->successors.size() != 1) {
            nodeError(result_, bm,
                      "unshared beta memory has " +
                          std::to_string(bm->successors.size()) +
                          " successors, want 1");
        }
        int prev_id = -1;
        for (const Node *succ : bm->successors) {
            if (!succ) {
                nodeError(result_, bm, "null successor");
                continue;
            }
            checkLockOrder(bm, succ, prev_id);
            if (succ->kind == NodeKind::Terminal) {
                ++terminal_feeders_[succ->id];
                continue;
            }
            const BetaMemoryNode *left = nullptr;
            if (succ->kind == NodeKind::Join)
                left = static_cast<const JoinNode *>(succ)->left;
            else if (succ->kind == NodeKind::Not)
                left = static_cast<const NotNode *>(succ)->left;
            else {
                nodeError(result_, bm,
                          std::string("successor of unexpected kind ") +
                              nodeKindName(succ->kind));
                continue;
            }
            if (left != bm) {
                nodeError(result_, bm,
                          "successor two-input node " +
                              std::to_string(succ->id) +
                              " does not use it as left input");
            }
        }
    }

    /** The parallel matcher's composite tasks lock a memory's
     *  successors in list order, which must be the global (id) order:
     *  strictly ascending, so no node is locked twice either. */
    void
    checkLockOrder(const Node *mem, const Node *succ, int &prev_id)
    {
        if (succ->id <= prev_id) {
            nodeError(result_, mem,
                      "lock order violated: successor " +
                          std::to_string(succ->id) + " after " +
                          std::to_string(prev_id));
        }
        prev_id = succ->id;
    }

    void
    checkTwoInput(const Node *node, const BetaMemoryNode *left,
                  const AlphaMemoryNode *right,
                  const BetaMemoryNode *output)
    {
        if (!left || !right || !output) {
            nodeError(result_, node, "null input/output memory");
            return;
        }
        ++producers_[output->id];
        // The node must be registered as successor of both inputs:
        // the matchers dispatch through those successor lists, so a
        // missing edge silently drops activations. Linear std::find is
        // fine here — successor lists are bounded by per-memory node
        // fan-out (a compile-time property, typically < 10), and this
        // runs once per validation pass, not on the match hot path.
        if (std::find(left->successors.begin(), left->successors.end(),
                      node) == left->successors.end())
            nodeError(result_, node,
                      "not registered as successor of its left memory");
        if (std::find(right->successors.begin(), right->successors.end(),
                      node) == right->successors.end())
            nodeError(result_, node,
                      "not registered as successor of its right memory");
    }

    void
    checkProducers()
    {
        for (const auto &node : net_.nodes()) {
            if (node->kind != NodeKind::BetaMemory ||
                node.get() == net_.top())
                continue;
            int n = producers_.count(node->id) ? producers_[node->id] : 0;
            if (n != 1) {
                nodeError(result_, node.get(),
                          "expected exactly one producing two-input "
                          "node, found " +
                              std::to_string(n));
            }
        }
    }

    void
    checkTerminalFeeders()
    {
        for (const TerminalNode *term : net_.terminals()) {
            int n = terminal_feeders_.count(term->id)
                        ? terminal_feeders_[term->id]
                        : 0;
            if (n != 1) {
                nodeError(result_, term,
                          "expected exactly one feeding beta memory, "
                          "found " +
                              std::to_string(n));
            }
        }
    }

    const Network &net_;
    ValidationResult result_;
    std::map<int, int> producers_;        ///< beta id -> producer count
    std::map<int, int> terminal_feeders_; ///< terminal id -> feeder count
};

// --- state invariants --------------------------------------------------

/** Ground-truth recomputation context. */
class Validator
{
  public:
    Validator(const Network &net,
              const std::vector<const ops5::Wme *> &live,
              const ops5::ConflictSet *conflict_set)
        : net_(net), live_(live), conflict_set_(conflict_set)
    {
        // Map each two-input node's output memory back to it.
        for (const auto &node : net_.nodes()) {
            if (node->kind == NodeKind::Join) {
                auto *j = static_cast<JoinNode *>(node.get());
                producer_[j->output->id] = j;
            } else if (node->kind == NodeKind::Not) {
                auto *n = static_cast<NotNode *>(node.get());
                producer_[n->output->id] = n;
            }
        }
    }

    ValidationResult
    run()
    {
        checkAlphaChains();
        for (const auto &node : net_.nodes()) {
            if (node->kind == NodeKind::BetaMemory &&
                node.get() != net_.top()) {
                checkBetaMemory(
                    static_cast<const BetaMemoryNode *>(node.get()));
            }
            if (node->kind == NodeKind::Join)
                checkJoinAgreement(
                    static_cast<const JoinNode *>(node.get()));
            if (node->kind == NodeKind::Not)
                checkNotCounts(static_cast<const NotNode *>(node.get()));
        }
        if (conflict_set_)
            checkConflictSet();
        return std::move(result_);
    }

  private:
    void
    error(const Node *node, const std::string &msg)
    {
        nodeError(result_, node, msg);
    }

    /** Compares multisets, reporting the difference. */
    template <typename T>
    void
    compareSets(const Node *node, std::vector<T> actual,
                std::vector<T> expected, const char *what)
    {
        std::sort(actual.begin(), actual.end());
        std::sort(expected.begin(), expected.end());
        if (actual != expected) {
            std::ostringstream os;
            os << what << " mismatch: " << actual.size()
               << " stored vs " << expected.size() << " expected";
            error(node, os.str());
        }
    }

    // --- alpha network -------------------------------------------------

    void
    checkAlphaChains()
    {
        // Walk every class root chain, accumulating tests. Only
        // classes with live WMEs can have non-empty memories; chains
        // of other classes are covered by the emptiness check below.
        std::vector<const AlphaTest *> tests;
        std::map<ops5::SymbolId, std::vector<const ops5::Wme *>>
            by_class;
        for (const ops5::Wme *wme : live_)
            by_class[wme->className()].push_back(wme);

        checked_alpha_.clear();
        for (const auto &[cls, wmes] : by_class) {
            for (Node *head : net_.classRoots(cls))
                walkAlpha(head, wmes, tests);
        }
        // Alpha memories for classes with no live WMEs must be empty.
        for (const auto &node : net_.nodes()) {
            if (node->kind == NodeKind::AlphaMemory &&
                !checked_alpha_.count(node->id)) {
                auto *am =
                    static_cast<const AlphaMemoryNode *>(node.get());
                if (!am->items.empty())
                    error(am, "expected empty (no live WMEs of its "
                              "class)");
            }
        }
    }

    void
    walkAlpha(Node *node, const std::vector<const ops5::Wme *> &wmes,
              std::vector<const AlphaTest *> &tests)
    {
        if (node->kind == NodeKind::AlphaMemory) {
            auto *am = static_cast<AlphaMemoryNode *>(node);
            checked_alpha_.insert(am->id);
            std::vector<const ops5::Wme *> expected;
            for (const ops5::Wme *wme : wmes) {
                bool pass = std::all_of(
                    tests.begin(), tests.end(),
                    [&](const AlphaTest *t) {
                        return t->eval(*wme,
                                       net_.program().symbols());
                    });
                if (pass)
                    expected.push_back(wme);
            }
            compareSets(am, am->items, std::move(expected), "alpha");
            return;
        }
        auto *ct = static_cast<ConstTestNode *>(node);
        tests.push_back(&ct->test);
        for (Node *succ : ct->successors)
            walkAlpha(succ, wmes, tests);
        tests.pop_back();
    }

    // --- beta network --------------------------------------------------

    const std::vector<Token> &
    expectedTokens(const BetaMemoryNode *mem)
    {
        auto it = expected_.find(mem->id);
        if (it != expected_.end())
            return it->second;
        if (mem == net_.top()) {
            return expected_.emplace(mem->id, std::vector<Token>{Token{}})
                .first->second;
        }

        std::vector<Token> out;
        const Node *prod = producer_.at(mem->id);
        const ops5::SymbolTable &syms = net_.program().symbols();
        if (prod->kind == NodeKind::Join) {
            auto *join = static_cast<const JoinNode *>(prod);
            // Ground truth for the right input: recompute from live
            // WMEs via the alpha check (items were already verified);
            // use the verified memory contents directly.
            for (const Token &left : expectedTokens(join->left)) {
                for (const ops5::Wme *wme : join->right->items) {
                    if (evalJoinTests(join->tests, left, *wme, syms))
                        out.push_back(left.extend(wme));
                }
            }
        } else {
            auto *not_node = static_cast<const NotNode *>(prod);
            for (const Token &left : expectedTokens(not_node->left)) {
                bool blocked = std::any_of(
                    not_node->right->items.begin(),
                    not_node->right->items.end(),
                    [&](const ops5::Wme *wme) {
                        return evalJoinTests(not_node->tests, left,
                                             *wme, syms);
                    });
                if (!blocked)
                    out.push_back(left);
            }
        }
        return expected_.emplace(mem->id, std::move(out)).first->second;
    }

    void
    checkBetaMemory(const BetaMemoryNode *mem)
    {
        std::vector<std::string> actual, expect;
        mem->store.forEach(
            [&](const Token &t) { actual.push_back(tokenKey(t)); });
        for (const Token &t : expectedTokens(mem))
            expect.push_back(tokenKey(t));
        compareSets(mem, std::move(actual), std::move(expect), "beta");
        if (mem->tombstoneCount() != 0)
            error(mem, "tombstones present outside a match phase");
    }

    /**
     * Left/right join agreement: the join's output memory must hold
     * exactly the cross-product of its ACTUAL input memories under
     * its tests. Where the global beta check diffs against ground
     * truth recomputed from live WMEs, this diffs neighbouring
     * memories against each other, so it localises which join stopped
     * agreeing with its own inputs.
     */
    void
    checkJoinAgreement(const JoinNode *join)
    {
        const ops5::SymbolTable &syms = net_.program().symbols();
        std::vector<std::string> actual, expect;
        join->output->store.forEach(
            [&](const Token &t) { actual.push_back(tokenKey(t)); });
        join->left->store.forEach([&](const Token &left) {
            for (const ops5::Wme *wme : join->right->items) {
                if (evalJoinTests(join->tests, left, *wme, syms))
                    expect.push_back(tokenKey(left.extend(wme)));
            }
        });
        compareSets(join, std::move(actual), std::move(expect),
                    "left/right join-output");
    }

    void
    checkNotCounts(const NotNode *not_node)
    {
        const ops5::SymbolTable &syms = net_.program().symbols();
        // Entries must mirror the left memory's expected tokens with
        // correct blocker counts.
        std::vector<std::string> actual, expect;
        for (const NotNode::Entry &e : not_node->entries) {
            actual.push_back(tokenKey(e.token) + "#" +
                             std::to_string(e.count));
        }
        for (const Token &left : expectedTokens(not_node->left)) {
            int count = 0;
            for (const ops5::Wme *wme : not_node->right->items) {
                if (evalJoinTests(not_node->tests, left, *wme, syms))
                    ++count;
            }
            expect.push_back(tokenKey(left) + "#" +
                             std::to_string(count));
        }
        compareSets(not_node, std::move(actual), std::move(expect),
                    "not-entry");
    }

    // --- conflict set --------------------------------------------------

    /**
     * The conflict set must hold exactly one live instantiation per
     * (production, token) in a terminal-feeding beta memory — the
     * matcher-vs-conflict-set agreement that every WM change has to
     * re-establish by its cycle barrier.
     */
    void
    checkConflictSet()
    {
        std::vector<std::string> expect;
        for (const auto &node : net_.nodes()) {
            if (node->kind != NodeKind::BetaMemory)
                continue;
            auto *bm = static_cast<const BetaMemoryNode *>(node.get());
            for (const Node *succ : bm->successors) {
                if (succ->kind != NodeKind::Terminal)
                    continue;
                auto *term = static_cast<const TerminalNode *>(succ);
                for (const Token &t : expectedTokens(bm)) {
                    expect.push_back(instKey(term->production->id(),
                                             t.toVector()));
                }
            }
        }
        std::vector<std::string> actual;
        for (const ops5::Instantiation &inst :
             conflict_set_->contents()) {
            actual.push_back(
                instKey(inst.production->id(), inst.wmes));
        }

        std::sort(actual.begin(), actual.end());
        std::sort(expect.begin(), expect.end());
        if (actual != expect) {
            std::ostringstream os;
            os << "conflict set disagrees with terminal memories: "
               << actual.size() << " live instantiations vs "
               << expect.size() << " expected";
            appendDiff(os, actual, expect);
            result_.errors.push_back(os.str());
        }
        if (conflict_set_->pendingTombstones() != 0) {
            result_.errors.push_back(
                "conflict set holds " +
                std::to_string(conflict_set_->pendingTombstones()) +
                " tombstones outside a match phase");
        }
    }

    static void
    appendDiff(std::ostringstream &os,
               const std::vector<std::string> &actual,
               const std::vector<std::string> &expect)
    {
        std::vector<std::string> missing, extra;
        std::set_difference(expect.begin(), expect.end(),
                            actual.begin(), actual.end(),
                            std::back_inserter(missing));
        std::set_difference(actual.begin(), actual.end(),
                            expect.begin(), expect.end(),
                            std::back_inserter(extra));
        if (!missing.empty())
            os << "; missing e.g. " << missing.front();
        if (!extra.empty())
            os << "; spurious e.g. " << extra.front();
    }

    static std::string
    instKey(int production_id, const std::vector<const ops5::Wme *> &wmes)
    {
        std::ostringstream os;
        os << "p" << production_id << ":";
        for (const ops5::Wme *w : wmes)
            os << w->timeTag() << ",";
        return os.str();
    }

    static std::string
    tokenKey(const Token &t)
    {
        std::ostringstream os;
        for (const ops5::Wme *w : t)
            os << w->timeTag() << ",";
        return os.str();
    }

    const Network &net_;
    const std::vector<const ops5::Wme *> &live_;
    const ops5::ConflictSet *conflict_set_;
    ValidationResult result_;
    std::unordered_map<int, const Node *> producer_;
    std::unordered_map<int, std::vector<Token>> expected_;
    std::set<int> checked_alpha_;
};

// --- index <-> memory agreement ----------------------------------------

void
checkAlphaIndexes(ValidationResult &result, const AlphaMemoryNode *am)
{
    if (am->remove_misses != 0) {
        nodeError(result, am,
                  std::to_string(am->remove_misses) +
                      " removeWme miss(es): working memory and alpha "
                      "memory have desynced");
    }
    if (!am->indexed()) {
        // Below the adaptive threshold: index maps must be empty, or
        // a stale entry could serve a wrong probe after reactivation.
        if (!am->pos.empty()) {
            nodeError(result, am,
                      "inactive position index still holds " +
                          std::to_string(am->pos.size()) + " entries");
        }
        for (std::size_t p = 0; p < am->probes.size(); ++p) {
            if (!am->probes[p].buckets.empty())
                nodeError(result, am,
                          "inactive probe " + std::to_string(p) +
                              " still holds entries");
        }
        return;
    }
    if (am->pos.size() != am->items.size()) {
        nodeError(result, am,
                  "position index holds " +
                      std::to_string(am->pos.size()) + " entries for " +
                      std::to_string(am->items.size()) + " items");
    }
    for (std::size_t i = 0; i < am->items.size(); ++i) {
        auto it = am->pos.find(am->items[i]);
        if (it == am->pos.end()) {
            nodeError(result, am,
                      "item at slot " + std::to_string(i) +
                          " missing from position index");
        } else if (it->second != i) {
            nodeError(result, am,
                      "position index points item at slot " +
                          std::to_string(i) + " to slot " +
                          std::to_string(it->second));
        }
    }
    for (std::size_t p = 0; p < am->probes.size(); ++p) {
        const AlphaProbe &probe = am->probes[p];
        if (probe.buckets.size() != am->items.size()) {
            nodeError(result, am,
                      "probe " + std::to_string(p) + " indexes " +
                          std::to_string(probe.buckets.size()) +
                          " wmes but memory holds " +
                          std::to_string(am->items.size()));
            continue;
        }
        for (const ops5::Wme *wme : am->items) {
            auto range = probe.buckets.equal_range(
                wmeKeyHash(probe.spec, *wme));
            bool found = false;
            for (auto b = range.first; b != range.second; ++b) {
                if (b->second == wme) {
                    found = true;
                    break;
                }
            }
            if (!found) {
                nodeError(result, am,
                          "probe " + std::to_string(p) +
                              " bucket missing a stored wme");
            }
        }
    }
}

void
checkBetaIndexes(ValidationResult &result, const BetaMemoryNode *bm)
{
    if (!bm->indexed()) {
        if (!bm->by_token.empty()) {
            nodeError(result, bm,
                      "inactive identity index still holds " +
                          std::to_string(bm->by_token.size()) +
                          " entries");
        }
        for (std::size_t p = 0; p < bm->probes.size(); ++p) {
            if (!bm->probes[p].buckets.empty())
                nodeError(result, bm,
                          "inactive probe " + std::to_string(p) +
                              " still holds entries");
        }
        return;
    }
    if (bm->by_token.size() != bm->store.size()) {
        nodeError(result, bm,
                  "identity index holds " +
                      std::to_string(bm->by_token.size()) +
                      " entries for " + std::to_string(bm->store.size()) +
                      " live tokens");
    }
    for (std::size_t p = 0; p < bm->probes.size(); ++p) {
        if (bm->probes[p].buckets.size() != bm->store.size()) {
            nodeError(result, bm,
                      "probe " + std::to_string(p) + " indexes " +
                          std::to_string(bm->probes[p].buckets.size()) +
                          " tokens but memory holds " +
                          std::to_string(bm->store.size()));
        }
    }
    bm->store.forEachSlot([&](std::uint32_t slot, const Token &token) {
        auto range = bm->by_token.equal_range(token.hash());
        bool found = false;
        for (auto it = range.first; it != range.second; ++it) {
            if (it->second == slot) {
                found = true;
                break;
            }
        }
        if (!found) {
            nodeError(result, bm,
                      "live token at slot " + std::to_string(slot) +
                          " missing from identity index");
        }
        for (std::size_t p = 0; p < bm->probes.size(); ++p) {
            const BetaProbe &probe = bm->probes[p];
            auto pr = probe.buckets.equal_range(
                tokenKeyHash(probe.spec, token));
            bool in_probe = false;
            for (auto b = pr.first; b != pr.second; ++b) {
                if (b->second == slot) {
                    in_probe = true;
                    break;
                }
            }
            if (!in_probe) {
                nodeError(result, bm,
                          "probe " + std::to_string(p) +
                              " bucket missing live token at slot " +
                              std::to_string(slot));
            }
        }
    });
}

void
checkNotIndexes(ValidationResult &result, const NotNode *nn)
{
    if (!nn->indexed()) {
        if (!nn->entry_index.empty()) {
            nodeError(result, nn,
                      "inactive entry index still holds " +
                          std::to_string(nn->entry_index.size()) +
                          " entries");
        }
        return;
    }
    if (nn->entry_index.size() != nn->entries.size()) {
        nodeError(result, nn,
                  "entry index holds " +
                      std::to_string(nn->entry_index.size()) +
                      " entries for " + std::to_string(nn->entries.size()) +
                      " left-match entries");
    }
    for (std::size_t i = 0; i < nn->entries.size(); ++i) {
        auto range =
            nn->entry_index.equal_range(nn->entries[i].token.hash());
        bool found = false;
        for (auto it = range.first; it != range.second; ++it) {
            if (it->second == i) {
                found = true;
                break;
            }
        }
        if (!found) {
            nodeError(result, nn,
                      "entry at slot " + std::to_string(i) +
                          " missing from entry index");
        }
    }
}

} // namespace

ValidationResult
validateStructure(const Network &network)
{
    return StructureValidator(network).run();
}

ValidationResult
validateIndexes(const Network &network)
{
    ValidationResult result;
    for (const auto &node : network.nodes()) {
        switch (node->kind) {
          case NodeKind::AlphaMemory:
            checkAlphaIndexes(
                result, static_cast<const AlphaMemoryNode *>(node.get()));
            break;
          case NodeKind::BetaMemory:
            checkBetaIndexes(
                result, static_cast<const BetaMemoryNode *>(node.get()));
            break;
          case NodeKind::Not:
            checkNotIndexes(result,
                            static_cast<const NotNode *>(node.get()));
            break;
          default:
            break;
        }
    }
    return result;
}

ValidationResult
validateNetworkState(const Network &network,
                     const std::vector<const ops5::Wme *> &live_wmes)
{
    ValidationResult result = Validator(network, live_wmes, nullptr).run();
    result.merge(validateIndexes(network));
    return result;
}

ValidationResult
validateMatcherState(const Network &network,
                     const std::vector<const ops5::Wme *> &live_wmes,
                     const ops5::ConflictSet &conflict_set)
{
    ValidationResult result = validateStructure(network);
    result.merge(Validator(network, live_wmes, &conflict_set).run());
    result.merge(validateIndexes(network));
    return result;
}

} // namespace psm::rete
