/**
 * @file
 * The Rete network: node storage, root dispatch, and the compiler
 * that builds the network from a Program with configurable node
 * sharing.
 *
 * Sharing matters to the paper twice over: the serial Rete exploits
 * it ("sharing evaluation of common tests amongst multiple
 * productions"), while the paper's parallel implementation gives up
 * memory / two-input sharing — one of the three components of the
 * lost factor in Section 6 (the parallel matcher here keeps it).
 * Building the same program with sharing on and off quantifies that.
 */

#ifndef PSM_RETE_NETWORK_HPP
#define PSM_RETE_NETWORK_HPP

#include <memory>
#include <unordered_map>
#include <vector>

#include "ops5/production.hpp"
#include "rete/compile.hpp"
#include "rete/nodes.hpp"

namespace psm::telemetry {
class Registry;
}

namespace psm::rete {

/** Build-time options controlling node sharing. */
struct NetworkOptions
{
    /** Share constant-test chains between productions. Stateless, so
     *  even the parallel matcher keeps this on. */
    bool share_const_tests = true;

    /** Share alpha memories between productions. */
    bool share_alpha = true;

    /** Share two-input nodes (and their output memories) between
     *  productions with a common CE prefix. */
    bool share_two_input = true;

    static NetworkOptions
    fullSharing()
    {
        return {};
    }

    /** Private state per production: no alpha or two-input sharing.
     *  The serial baseline of E3's sharing-loss measurement, and the
     *  network psm/capture traces. The parallel matcher shares
     *  everything, like the serial Rete. */
    static NetworkOptions
    privateState()
    {
        NetworkOptions o;
        o.share_alpha = false;
        o.share_two_input = false;
        return o;
    }
};

/** Counts of created vs shared nodes, for the sharing-factor report. */
struct BuildStats
{
    int const_tests = 0;
    int alpha_memories = 0;
    int joins = 0;
    int nots = 0;
    int beta_memories = 0;
    int terminals = 0;
    int reused_const_tests = 0;
    int reused_alpha_memories = 0;
    int reused_two_input = 0;

    int
    total() const
    {
        return const_tests + alpha_memories + joins + nots +
               beta_memories + terminals;
    }

    bool operator==(const BuildStats &) const = default;
};

/**
 * A compiled Rete network over one Program.
 *
 * The network is immutable in structure after construction; only the
 * memory-node contents change during match. It can therefore back any
 * number of sequential runs, and the fine-grain parallel matcher,
 * which locks each memory's successors in list (ascending id) order.
 */
class Network
{
  public:
    Network(std::shared_ptr<const ops5::Program> program,
            NetworkOptions options = {});

    const ops5::Program &program() const { return *program_; }
    const NetworkOptions &options() const { return options_; }
    const BuildStats &buildStats() const { return build_stats_; }

    /** All nodes; index == Node::id. */
    const std::vector<std::unique_ptr<Node>> &nodes() const
    {
        return nodes_;
    }

    /** Alpha-chain heads for a WME class (empty when untested). */
    const std::vector<Node *> &classRoots(ops5::SymbolId cls) const;

    /** Dummy top beta memory holding the single empty token. */
    BetaMemoryNode *top() const { return top_; }

    const std::vector<TerminalNode *> &terminals() const
    {
        return terminals_;
    }

    /** Production ids using node @p node_id (sorted, deduplicated). */
    const std::vector<int> &productionsOf(int node_id) const
    {
        return node_productions_.at(node_id);
    }

    /** Drops all match state (memories, counts, tombstones). */
    void resetState();

    /**
     * Rebuilds every memory-node hash index from the raw contents
     * (items / token store / not entries). State restore fills the
     * raw containers directly and then calls this.
     */
    void rebuildIndexes();

  private:
    /**
     * Build-time index compilation: flattens each two-input node's
     * join tests into FlatTests and, for all-equality tests,
     * registers probe indexes (deduplicated by key spec) on the
     * node's input memories.
     */
    void finalizeIndexes();

    friend class NetworkBuilder;

    std::shared_ptr<const ops5::Program> program_;
    NetworkOptions options_;
    BuildStats build_stats_;

    std::vector<std::unique_ptr<Node>> nodes_;
    std::unordered_map<ops5::SymbolId, std::vector<Node *>> class_roots_;
    BetaMemoryNode *top_ = nullptr;
    std::vector<TerminalNode *> terminals_;
    std::vector<std::vector<int>> node_productions_;
};

/**
 * Sizes @p reg's per-node slots for @p network and installs the
 * node-to-production map the affected-production epochs use: stateful
 * nodes (memories, two-input, terminals) owned by exactly one
 * production map to it; constant tests and shared nodes map to -1.
 */
void configureTelemetryNodes(telemetry::Registry &reg,
                             const Network &network);

} // namespace psm::rete

#endif // PSM_RETE_NETWORK_HPP
