/**
 * @file
 * The Rete invariant validator: structural invariants of the compiled
 * network, ground-truth recomputation of every memory node, local
 * left/right join agreement, and conflict-set-vs-matcher agreement.
 *
 * This is the strongest internal-consistency oracle the test suite
 * has: conflict-set equivalence can miss corrupted intermediate state
 * that happens not to surface yet; this cannot. The parallel matcher
 * leans on it doubly — every interference bug that slips past the
 * lock discipline (and past core::DebugAccessChecker) lands here as a
 * concrete memory diff at the next cycle barrier.
 *
 * Three entry points, by increasing strength:
 *  - validateStructure: shape-only invariants of the node graph
 *    (wiring, producers, the composite-task discipline);
 *    state-independent, checked once after compilation.
 *  - validateNetworkState: every alpha/beta memory, not-node count,
 *    and join output recomputed from the live working memory and
 *    diffed against the incremental state; plus tombstone emptiness
 *    (a cycle barrier must have drained them).
 *  - validateMatcherState: both of the above, plus the conflict set
 *    diffed against the instantiations the terminal-feeding memories
 *    say must exist.
 *
 * All passes are read-only. Debug-build engines can run
 * validateMatcherState after every recognize-act cycle (see
 * core::Engine::setCycleCheck and the `--validate` flag of
 * examples/ops5_cli.cpp).
 */

#ifndef PSM_RETE_VALIDATE_HPP
#define PSM_RETE_VALIDATE_HPP

#include <string>
#include <vector>

#include "rete/network.hpp"

namespace psm::ops5 {
class ConflictSet;
}

namespace psm::rete {

/** Outcome of a validation pass. */
struct ValidationResult
{
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }

    /** First few errors joined for diagnostics ("" when ok). */
    std::string summary(std::size_t max_errors = 8) const;

    /** Concatenates another pass' errors onto this one. */
    void merge(ValidationResult other);
};

/**
 * Checks state-independent structural invariants of @p network: dense
 * ids, non-null and type-correct wiring on every edge, two-input
 * nodes registered as successors of both input memories, exactly one
 * producer per beta memory (except the dummy top), terminals fed by
 * exactly one memory, every alpha- and beta-memory successor list in
 * strictly ascending id (the parallel matcher's lock order), and, for
 * networks without two-input sharing, one successor per non-top beta
 * memory.
 */
ValidationResult validateStructure(const Network &network);

/**
 * Checks every alpha memory, beta memory, not-node count, and
 * per-join left/right output agreement in @p network against a
 * ground-truth recomputation over @p live_wmes. Also requires all
 * beta-memory tombstones to be drained (callers validate at cycle
 * barriers). The network's state is not modified.
 */
ValidationResult validateNetworkState(
    const Network &network,
    const std::vector<const ops5::Wme *> &live_wmes);

/**
 * Index ↔ memory agreement: every memory-node hash index (alpha
 * position map and probe buckets, beta identity index and probe
 * buckets, not-node entry index) must describe exactly the raw memory
 * contents, and alpha memories must have recorded zero removeWme
 * misses (a miss is a WM/alpha-memory desync that the caller could
 * not stop to report). Runs as part of validateNetworkState /
 * validateMatcherState; exposed separately so tests can target it.
 */
ValidationResult validateIndexes(const Network &network);

/**
 * Full matcher-state validation: validateStructure +
 * validateNetworkState + agreement between @p conflict_set and the
 * instantiations implied by the terminal-feeding beta memories
 * (including zero pending conflict-set tombstones).
 */
ValidationResult validateMatcherState(
    const Network &network,
    const std::vector<const ops5::Wme *> &live_wmes,
    const ops5::ConflictSet &conflict_set);

} // namespace psm::rete

#endif // PSM_RETE_VALIDATE_HPP
