/**
 * @file
 * Instruction-count cost model for node activations.
 *
 * The paper's analysis is phrased in machine instructions: a node
 * activation is a task of 50-100 instructions (Section 4), the serial
 * Rete cost of one WM change is c1 ~ 1800 instructions, and the
 * non-state-saving cost per WME is c3 ~ 1100 instructions
 * (Section 3.1). These constants reproduce those magnitudes on the
 * calibrated workloads; unit tests pin the c1 figure within a
 * tolerance band so drift is caught.
 */

#ifndef PSM_RETE_COST_MODEL_HPP
#define PSM_RETE_COST_MODEL_HPP

#include <cstdint>

namespace psm::rete {

/**
 * Per-operation instruction costs charged while executing node
 * activations. All values are in "machine instructions" of the
 * paper's 2 MIPS processors.
 */
struct CostModel
{
    // Root: hash the class symbol and fan out to the alpha chains.
    std::uint32_t root_dispatch = 12;

    // Constant-test node: load field, compare, branch.
    std::uint32_t const_test = 10;

    // Memory nodes: allocate/locate an entry and link it.
    std::uint32_t alpha_insert = 20;
    std::uint32_t alpha_remove_base = 16;
    std::uint32_t alpha_scan_per_item = 2;  ///< removal search
    std::uint32_t beta_insert = 34;
    std::uint32_t beta_remove_base = 20;
    std::uint32_t beta_scan_per_item = 3;   ///< removal search

    // Two-input nodes: fixed setup plus per-candidate test cost and
    // per-emitted-token build cost.
    std::uint32_t join_base = 40;
    std::uint32_t join_per_candidate = 8;
    std::uint32_t join_per_test = 5;
    std::uint32_t token_build = 30;

    // Not nodes additionally maintain per-token match counts.
    std::uint32_t not_base = 32;
    std::uint32_t not_per_entry = 7;

    // Terminal node: build/delete a conflict-set instantiation.
    std::uint32_t terminal = 130;

    // Waking a parallel matcher's workers for one batch: the queue
    // traffic, termination counting and barrier a batch pays before
    // its tasks can spread. A batch whose modeled probe cost is below
    // this runs inline on the submitting thread instead; 0 sends
    // every batch through the workers. The probes are charged as full
    // scans while indexed memories only visit a bucket, so the term
    // is far above one activation's cost; it sits at the crossover of
    // E9's batch-size sweep (inline against three workers).
    std::uint32_t worker_wake = 1u << 19;

    /** Cost of one two-input activation that examined @p candidates
     *  items, ran @p tests tests on each surviving pair, and built
     *  @p outputs tokens. */
    std::uint32_t
    joinActivation(std::uint64_t candidates, std::uint64_t tests,
                   std::uint64_t outputs) const
    {
        return join_base +
               static_cast<std::uint32_t>(candidates * join_per_candidate +
                                          tests * join_per_test +
                                          outputs * token_build);
    }

    /** Cost of one not-node activation that examined @p candidates
     *  items and ran @p tests tests on them. */
    std::uint32_t
    notActivation(std::uint64_t candidates, std::uint64_t tests) const
    {
        return not_base +
               static_cast<std::uint32_t>(candidates * not_per_entry +
                                          tests * join_per_test);
    }
};

} // namespace psm::rete

#endif // PSM_RETE_COST_MODEL_HPP
