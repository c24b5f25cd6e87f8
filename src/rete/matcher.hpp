/**
 * @file
 * The Rete executor. Serial Rete is the paper's "best known
 * uniprocessor implementation" baseline and the trace generator for
 * the PSM simulator; the fine-grain parallel matcher
 * (core/parallel_matcher.hpp) is the same executor plus workers.
 */

#ifndef PSM_RETE_MATCHER_HPP
#define PSM_RETE_MATCHER_HPP

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "core/matcher.hpp"
#include "core/telemetry.hpp"
#include "rete/cost_model.hpp"
#include "rete/network.hpp"
#include "rete/trace.hpp"
#include "rete/trace_export.hpp"

namespace psm::core {
class DebugAccessChecker;
}

namespace psm::rete {

/**
 * Sequential Rete matcher over a (usually fully shared) Network.
 *
 * The unit of work is one memory update, a composite task: an element
 * arriving at an alpha memory or a token arriving at a beta memory.
 * The task takes one side of every successor of the memory in
 * ascending node id (the right side at an alpha memory, the left at a
 * beta memory; a join's DirectionalLock, a not-node's mutex, nothing
 * for a terminal), updates the memory once, then probes each
 * successor's opposite input (or, for a terminal, the conflict set)
 * and releases that successor. Every token a probe produces is a new
 * task. Each change is walked down its constant-test chains, and
 * every alpha memory it reaches spawns one task; the task stack is
 * drained depth-first (LIFO) before the walk goes on, so each change
 * reaches its fixpoint before the next one starts (docs/
 * ARCHITECTURE.md §2 gives the exactly-once argument). Serially the
 * locks are never contended; they are what lets the parallel matcher
 * run the same tasks on workers.
 *
 * Every node a task reaches counts as one activation. With a
 * TraceSink attached, each activation also emits one ActivationRecord
 * carrying its dependency edge and cost-model instruction count. That
 * is the input format of the PSM simulator.
 *
 * Join activations always *probe* the memory-node hash indexes
 * (every all-equality join gets probe buckets registered at network
 * build; see nodes.hpp), but the *modeled* cost they report follows
 * the configuration: the plain matcher charges the classic full-scan
 * instruction counts (so PSM simulator traces are unchanged), while
 * `hash_joins` charges the actually probed bucket sizes plus index
 * maintenance — the style of "further optimization to the OPS
 * compiler" behind the paper's 400-800 wme-changes/sec serial
 * projection (Section 2.2). Indexing never changes results, only the
 * work done (asserted by the equivalence suite).
 */
class ReteMatcher : public core::Matcher
{
  public:
    explicit ReteMatcher(std::shared_ptr<Network> network,
                         CostModel cost_model = {},
                         bool hash_joins = false);

    /** Convenience: builds a fully shared network for @p program. */
    explicit ReteMatcher(std::shared_ptr<const ops5::Program> program,
                         CostModel cost_model = {},
                         bool hash_joins = false);

    ~ReteMatcher() override;

    void processChanges(std::span<const ops5::WmeChange> changes) override;

    ops5::ConflictSet &conflictSet() override { return conflict_set_; }
    const ops5::ConflictSet &
    conflictSet() const override
    {
        return conflict_set_;
    }

    core::MatchStats stats() const override;

    std::string
    name() const override
    {
        return hash_joins_ ? "rete-serial-hashed" : "rete-serial";
    }

    Network &network() { return *network_; }

    /** Attaches a trace sink (nullptr detaches). Not owned. */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

    /** Attaches a real-time span recorder (nullptr detaches), one
     *  span per task. It needs one lane per thread that runs tasks:
     *  one here. Call before the first processChanges(). */
    void setSpanRecorder(SpanRecorder *rec) { spans_ = rec; }

    telemetry::Registry *enableTelemetry() override;
    telemetry::Registry *telemetry() override { return tel_owned_.get(); }
    const telemetry::Registry *
    telemetry() const override
    {
        return tel_owned_.get();
    }

    /** Recognize-act cycles processed so far. */
    std::uint32_t cycle() const { return cycle_; }

    /**
     * Tombstones parked across all beta memories and the conflict
     * set. Always zero between batches; exposed so tests can assert
     * it.
     */
    std::size_t pendingTombstones() const;

    /**
     * Rebuilds the memory-node hash indexes from the current memory
     * contents (delegates to Network::rebuildIndexes). The durable
     * layer's state-restore path fills alpha/beta memories and
     * not-node entries directly (bypassing processChanges), so the
     * indexes must be reconstructed afterwards.
     */
    void rebuildIndexes();

  protected:
    /** One composite task: an element arriving at an alpha memory
     *  (@p wme) or a token arriving at a beta memory (@p token). */
    struct Task
    {
        Node *node = nullptr;
        bool insert = true;
        Token token;
        const ops5::Wme *wme = nullptr;
        std::uint64_t parent = 0; ///< trace id of the spawning activation
    };

    /** For a subclass that runs tasks on @p lanes threads: one stats
     *  lane and one telemetry shard per thread (lane 0 submits). */
    ReteMatcher(std::shared_ptr<Network> network, CostModel cost_model,
                bool hash_joins, std::size_t lanes);

    /** The registry, once enableTelemetry() published it. A relaxed
     *  load: threads that poll it outside any batch read it too. */
    telemetry::Registry *
    tel() const
    {
#if PSM_TELEMETRY
        return tel_.load(std::memory_order_relaxed);
#else
        return nullptr;
#endif
    }

    /** Opens a batch: cycle counter, trace and span cycle marks,
     *  batch counters. */
    void beginBatch(std::size_t n_changes, telemetry::Registry *t);
    /** Closes it: samples beta-memory occupancy and closes the span
     *  cycle. Debug builds assert that no tombstone is parked. */
    void endBatch(telemetry::Registry *t);

    /**
     * Runs change @p index of the batch on the submitter: records the
     * root dispatch, walks the constant tests depth-first and, at each
     * alpha memory reached, spawns its task and drains the local
     * stack.
     */
    void runChange(const ops5::WmeChange &change, std::uint32_t index,
                   telemetry::Registry *t);

    /** Runs one task on lane @p worker. The task path takes the
     *  registry as a parameter, loaded once per batch or worker-loop
     *  iteration, so the unattached and compiled-out configurations
     *  pay no per-event load. */
    void runTask(const Task &task, std::size_t worker,
                 telemetry::Registry *t);

    /** Queues @p task on the submitter's LIFO stack. A subclass with
     *  workers may send it elsewhere. */
    virtual void spawn(Task task, std::size_t worker,
                       telemetry::Registry *t);

    /** True when no beta memory has parked a tombstone since it was
     *  last cleared and the conflict set holds none. */
    bool tombstoneFree() const;

    std::shared_ptr<Network> network_;
    CostModel cost_;
    std::vector<BetaMemoryNode *> beta_memories_;
    ops5::ConflictSet conflict_set_;
    TraceSink *sink_ = nullptr;
    SpanRecorder *spans_ = nullptr;
    /** Ownership checker for the node locks; null unless a subclass
     *  installs one. */
    std::unique_ptr<core::DebugAccessChecker> checker_;
    /** Batch counter, written by the submitter before any task of the
     *  batch exists. */
    std::uint32_t cycle_ = 0;
    /** The submitter's depth-first walk: node and the trace id of the
     *  activation that reached it. */
    std::vector<std::pair<Node *, std::uint64_t>> walk_;

  private:
    void alphaArrive(const Task &task, std::size_t worker,
                     telemetry::Registry *t);
    void betaArrive(const Task &task, std::size_t worker,
                    telemetry::Registry *t);
    /** Probes @p join's input opposite @p side for the task's element
     *  or token, spawning every pair as a token task. */
    void probeJoin(const Task &task, JoinNode *join, Side side,
                   std::uint64_t parent, std::size_t worker,
                   telemetry::Registry *t);
    /** Updates @p not_node's counts or entries for an arrival on
     *  @p side, spawning every token whose visibility flips. */
    void probeNot(const Task &task, NotNode *not_node, Side side,
                  std::uint64_t parent, std::size_t worker,
                  telemetry::Registry *t);
    void reportTerminal(const Task &task, TerminalNode *term,
                        std::uint64_t parent, std::size_t worker,
                        telemetry::Registry *t);

    /**
     * Charges one activation of @p node (nullptr: the root dispatch)
     * to lane @p worker and, with a sink attached, records it.
     * Returns its trace id (0 untraced). Nothing records between a
     * probe's start and its activate() call, so a probe names its
     * children's parent as next_activation_id_ before it is charged.
     */
    std::uint64_t activate(const Node *node, Side side, bool insert,
                           std::uint32_t cost, std::uint64_t parent,
                           std::size_t worker, telemetry::Registry *t);

    /** Takes @p side of successor @p node (a join's DirectionalLock,
     *  a not-node's mutex, nothing for a terminal), registers it with
     *  the access checker and, when it had to wait, observes the wait
     *  in LockWaitNanos; unlockSide undoes it. A composite task holds
     *  a set of these taken in a loop, which the static analysis
     *  cannot follow, hence the opt-out. */
    void lockSide(Node *node, Side side, std::size_t worker,
                  telemetry::Registry *t) PSM_NO_THREAD_SAFETY_ANALYSIS;
    void unlockSide(Node *node, Side side) PSM_NO_THREAD_SAFETY_ANALYSIS;

    /** Per-thread statistics, padded against false sharing. */
    struct alignas(64) Lane
    {
        core::MatchStats stats;
    };

    bool hash_joins_;
    std::vector<Lane> lanes_;
    std::unique_ptr<telemetry::Registry> tel_owned_;
    std::atomic<telemetry::Registry *> tel_{nullptr};
    std::vector<Task> stack_;
    std::uint64_t next_activation_id_ = 1;
    std::uint32_t change_index_ = 0;
};

} // namespace psm::rete

#endif // PSM_RETE_MATCHER_HPP
