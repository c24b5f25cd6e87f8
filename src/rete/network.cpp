#include "rete/network.hpp"

#include <algorithm>

#include "core/telemetry.hpp"

namespace psm::rete {

/**
 * Builds a Network from a Program. Sharing is implemented by
 * searching existing successors for a structurally identical node
 * before creating a new one; the *_by_owner maps restrict reuse to
 * the creating production when sharing is disabled.
 */
class NetworkBuilder
{
  public:
    NetworkBuilder(Network &net, const ops5::Program &program)
        : net_(net), program_(program)
    {}

    void
    run()
    {
        net_.top_ = create<BetaMemoryNode>();
        net_.top_->insertToken(Token{});
        for (const auto &p : program_.productions())
            addProduction(*p);
    }

  private:
    template <typename T>
    T *
    create()
    {
        auto node = std::make_unique<T>();
        T *raw = node.get();
        raw->id = static_cast<int>(net_.nodes_.size());
        net_.nodes_.push_back(std::move(node));
        net_.node_productions_.emplace_back();
        return raw;
    }

    void
    touch(Node *node, int prod_id)
    {
        auto &owners = net_.node_productions_[node->id];
        if (owners.empty() || owners.back() != prod_id)
            owners.push_back(prod_id);
        node->shared_by = static_cast<int>(owners.size());
    }

    /** May production @p prod reuse @p node under the share policy? */
    bool
    mayReuse(const Node *node, bool share_policy, int prod) const
    {
        if (share_policy)
            return true;
        const auto &owners = net_.node_productions_[node->id];
        return owners.size() == 1 && owners[0] == prod;
    }

    /**
     * Walks/extends the alpha chain for one CE and returns its alpha
     * memory. The chain starts at the class root list and applies
     * each canonical alpha test in order.
     */
    AlphaMemoryNode *
    buildAlphaChain(const CompiledCe &ce, int prod)
    {
        const NetworkOptions &opt = net_.options_;
        std::vector<Node *> *succ = &net_.class_roots_[ce.cls];

        for (const AlphaTest &test : ce.alpha_tests) {
            ConstTestNode *found = nullptr;
            for (Node *n : *succ) {
                if (n->kind != NodeKind::ConstTest)
                    continue;
                auto *ct = static_cast<ConstTestNode *>(n);
                if (ct->test == test &&
                    mayReuse(ct, opt.share_const_tests, prod)) {
                    found = ct;
                    break;
                }
            }
            if (found) {
                ++net_.build_stats_.reused_const_tests;
            } else {
                found = create<ConstTestNode>();
                found->test = test;
                succ->push_back(found);
                ++net_.build_stats_.const_tests;
            }
            touch(found, prod);
            succ = &found->successors;
        }

        // When alpha sharing is off, every CE gets a private memory —
        // even within one production — so each memory has exactly one
        // two-input successor. When it is on, successors are appended
        // as their nodes are created, so they stay in ascending id:
        // the parallel matcher's lock order.
        if (opt.share_alpha) {
            for (Node *n : *succ) {
                if (n->kind == NodeKind::AlphaMemory) {
                    ++net_.build_stats_.reused_alpha_memories;
                    touch(n, prod);
                    return static_cast<AlphaMemoryNode *>(n);
                }
            }
        }
        auto *am = create<AlphaMemoryNode>();
        succ->push_back(am);
        ++net_.build_stats_.alpha_memories;
        touch(am, prod);
        return am;
    }

    /** Finds a reusable two-input node below @p left / @p right. */
    Node *
    findTwoInput(BetaMemoryNode *left, AlphaMemoryNode *right,
                 const std::vector<JoinTest> &tests, bool negated,
                 int prod) const
    {
        if (!net_.options_.share_two_input)
            return nullptr;
        for (Node *n : left->successors) {
            if (negated && n->kind == NodeKind::Not) {
                auto *nn = static_cast<NotNode *>(n);
                if (nn->right == right && nn->tests == tests)
                    return nn;
            }
            if (!negated && n->kind == NodeKind::Join) {
                auto *jn = static_cast<JoinNode *>(n);
                if (jn->right == right && jn->tests == tests)
                    return jn;
            }
        }
        (void)prod;
        return nullptr;
    }

    void
    addProduction(const ops5::Production &p)
    {
        CompiledLhs lhs = compileLhs(p);
        int prod = p.id();
        BetaMemoryNode *current = net_.top_;
        touch(current, prod);

        for (const CompiledCe &ce : lhs.ces) {
            AlphaMemoryNode *am = buildAlphaChain(ce, prod);
            Node *two = findTwoInput(current, am, ce.join_tests,
                                     ce.negated, prod);
            if (two) {
                ++net_.build_stats_.reused_two_input;
                touch(two, prod);
                current = ce.negated
                    ? static_cast<NotNode *>(two)->output
                    : static_cast<JoinNode *>(two)->output;
                touch(current, prod);
                continue;
            }
            if (ce.negated) {
                auto *nn = create<NotNode>();
                nn->left = current;
                nn->right = am;
                nn->tests = ce.join_tests;
                nn->output = create<BetaMemoryNode>();
                current->successors.push_back(nn);
                am->successors.push_back(nn);
                touch(nn, prod);
                current = nn->output;
                ++net_.build_stats_.nots;
            } else {
                auto *jn = create<JoinNode>();
                jn->left = current;
                jn->right = am;
                jn->tests = ce.join_tests;
                jn->output = create<BetaMemoryNode>();
                current->successors.push_back(jn);
                am->successors.push_back(jn);
                touch(jn, prod);
                current = jn->output;
                ++net_.build_stats_.joins;
            }
            ++net_.build_stats_.beta_memories;
            touch(current, prod);
        }

        auto *term = create<TerminalNode>();
        term->production = &p;
        current->successors.push_back(term);
        net_.terminals_.push_back(term);
        touch(term, prod);
        ++net_.build_stats_.terminals;
    }

    Network &net_;
    const ops5::Program &program_;
};

Network::Network(std::shared_ptr<const ops5::Program> program,
                 NetworkOptions options)
    : program_(std::move(program)), options_(options)
{
    NetworkBuilder(*this, *program_).run();
    finalizeIndexes();
}

namespace {

int
registerAlphaProbe(AlphaMemoryNode &am, WmeKeySpec spec)
{
    for (std::size_t i = 0; i < am.probes.size(); ++i)
        if (am.probes[i].spec == spec)
            return static_cast<int>(i);
    am.probes.push_back({std::move(spec), {}});
    return static_cast<int>(am.probes.size() - 1);
}

int
registerBetaProbe(BetaMemoryNode &bm, TokenKeySpec spec)
{
    for (std::size_t i = 0; i < bm.probes.size(); ++i)
        if (bm.probes[i].spec == spec)
            return static_cast<int>(i);
    bm.probes.push_back({std::move(spec), {}});
    return static_cast<int>(bm.probes.size() - 1);
}

} // namespace

void
Network::finalizeIndexes()
{
    for (const auto &node : nodes_) {
        if (node->kind == NodeKind::Join) {
            auto *jn = static_cast<JoinNode *>(node.get());
            jn->flat = flattenJoinTests(jn->tests);
            if (jn->flat.n > 0 && jn->flat.all_eq) {
                jn->right_probe = registerAlphaProbe(
                    *jn->right, wmeKeySpecOf(jn->tests));
                jn->left_probe = registerBetaProbe(
                    *jn->left, tokenKeySpecOf(jn->tests));
                ++jn->right->indexed_join_successors;
                ++jn->left->indexed_join_successors;
            }
        } else if (node->kind == NodeKind::Not) {
            auto *nn = static_cast<NotNode *>(node.get());
            nn->flat = flattenJoinTests(nn->tests);
            if (nn->flat.n > 0 && nn->flat.all_eq)
                nn->right_probe = registerAlphaProbe(
                    *nn->right, wmeKeySpecOf(nn->tests));
        }
    }
}

const std::vector<Node *> &
Network::classRoots(ops5::SymbolId cls) const
{
    static const std::vector<Node *> empty;
    auto it = class_roots_.find(cls);
    return it == class_roots_.end() ? empty : it->second;
}

void
Network::resetState()
{
    for (const auto &node : nodes_) {
        switch (node->kind) {
          case NodeKind::AlphaMemory:
            static_cast<AlphaMemoryNode *>(node.get())->clearState();
            break;
          case NodeKind::BetaMemory:
            static_cast<BetaMemoryNode *>(node.get())->clearState();
            break;
          case NodeKind::Not:
            static_cast<NotNode *>(node.get())->clearState();
            break;
          default:
            break;
        }
    }
    top_->insertToken(Token{});
}

void
Network::rebuildIndexes()
{
    for (const auto &node : nodes_) {
        switch (node->kind) {
          case NodeKind::AlphaMemory:
            static_cast<AlphaMemoryNode *>(node.get())->rebuildIndexes();
            break;
          case NodeKind::BetaMemory:
            static_cast<BetaMemoryNode *>(node.get())->rebuildIndexes();
            break;
          case NodeKind::Not:
            static_cast<NotNode *>(node.get())->rebuildIndexes();
            break;
          default:
            break;
        }
    }
}

void
configureTelemetryNodes(telemetry::Registry &reg, const Network &network)
{
    std::vector<int> node_production(network.nodes().size(), -1);
    for (const auto &node : network.nodes()) {
        if (node->kind == NodeKind::ConstTest ||
            node.get() == network.top())
            continue;
        const std::vector<int> &prods = network.productionsOf(node->id);
        if (prods.size() == 1)
            node_production[static_cast<std::size_t>(node->id)] =
                prods.front();
    }
    reg.configureNodes(network.nodes().size(),
                       std::move(node_production),
                       network.program().productions().size());
}

} // namespace psm::rete
