/**
 * @file
 * Equivalence at realistic scale: the daa preset (131 productions,
 * calibrated selectivity) through serial Rete, hashed Rete, the
 * fine-grain parallel matcher, and the production-parallel matcher —
 * plus the ground-truth state validator on the parallel network.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/core.hpp"
#include "rete/rete.hpp"
#include "workloads/workloads.hpp"

using namespace psm;

namespace {

std::vector<std::pair<int, std::vector<ops5::TimeTag>>>
snapshot(const ops5::ConflictSet &cs)
{
    std::vector<std::pair<int, std::vector<ops5::TimeTag>>> out;
    for (const ops5::Instantiation &inst : cs.contents()) {
        auto key = ops5::InstantiationKey::of(inst);
        out.emplace_back(key.production_id, key.tags);
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(EquivalenceScaleTest, DaaPresetAllMatchersAgree)
{
    const auto &preset = workloads::presetByName("daa");
    auto program = workloads::generateProgram(preset.config);

    rete::ReteMatcher serial(program);
    rete::ReteMatcher hashed(std::make_shared<rete::Network>(program),
                             rete::CostModel{}, /*hash_joins=*/true);
    core::ParallelOptions opt;
    opt.n_workers = 3;
    // Floor 0: the daa batches would otherwise all run inline.
    core::ParallelReteMatcher parallel(program, opt,
                                       rete::CostModel{.worker_wake = 0});
    core::ProductionParallelMatcher prod_par(program, 3);

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 4242);

    for (int b = 0; b < 15; ++b) {
        auto batch = stream.nextBatch(preset.changes_per_firing, 0.5);
        serial.processChanges(batch);
        hashed.processChanges(batch);
        parallel.processChanges(batch);
        prod_par.processChanges(batch);

        auto expected = snapshot(serial.conflictSet());
        EXPECT_EQ(snapshot(hashed.conflictSet()), expected)
            << "hashed diverged at batch " << b;
        EXPECT_EQ(snapshot(parallel.conflictSet()), expected)
            << "parallel diverged at batch " << b;
        EXPECT_EQ(snapshot(prod_par.conflictSet()), expected)
            << "production-parallel diverged at batch " << b;
    }

    // Deep state check on the concurrent network, at full scale.
    auto live = wm.liveElements();
    auto validation =
        rete::validateNetworkState(parallel.network(), live);
    EXPECT_TRUE(validation.ok())
        << (validation.errors.empty() ? "" : validation.errors.front());

    // Equality-only join indexing changed only the work, not the
    // results; with calibrated selectivity it prunes candidates.
    EXPECT_LE(hashed.stats().comparisons, serial.stats().comparisons);
}

TEST(EquivalenceScaleTest, LargePresetNetworkBuildsAndMatches)
{
    // The biggest preset (VT, 1322 productions): network construction
    // plus a short stream through serial Rete and the validator.
    const auto &preset = workloads::presetByName("vt");
    auto program = workloads::generateProgram(preset.config);
    auto net = std::make_shared<rete::Network>(program);
    EXPECT_GT(net->nodes().size(), 3000u);

    rete::ReteMatcher m(net);
    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 99);
    for (int b = 0; b < 5; ++b)
        m.processChanges(stream.nextBatch(4, 0.5));
    EXPECT_GT(m.stats().activations, 0u);

    auto validation = rete::validateNetworkState(*net, wm.liveElements());
    EXPECT_TRUE(validation.ok())
        << (validation.errors.empty() ? "" : validation.errors.front());
}

} // namespace
