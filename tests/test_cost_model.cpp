/**
 * @file
 * Cost-model tests: the joinActivation formula, and the paper's task
 * granularity claim — node activations average 50-100 instructions on
 * the calibrated workloads.
 */

#include <gtest/gtest.h>

#include <map>

#include "psm/capture.hpp"
#include "rete/cost_model.hpp"
#include "workloads/presets.hpp"

using namespace psm;

namespace {

TEST(CostModelTest, JoinActivationFormula)
{
    rete::CostModel cm;
    EXPECT_EQ(cm.joinActivation(0, 0, 0), cm.join_base);
    EXPECT_EQ(cm.joinActivation(3, 6, 2),
              cm.join_base + 3 * cm.join_per_candidate +
                  6 * cm.join_per_test + 2 * cm.token_build);
}

TEST(CostModelTest, NotActivationFormula)
{
    rete::CostModel cm;
    EXPECT_EQ(cm.notActivation(0, 0), cm.not_base);
    EXPECT_EQ(cm.notActivation(4, 8),
              cm.not_base + 4 * cm.not_per_entry + 8 * cm.join_per_test);
}

TEST(CostModelTest, DefaultsArePositive)
{
    rete::CostModel cm;
    EXPECT_GT(cm.root_dispatch, 0u);
    EXPECT_GT(cm.const_test, 0u);
    EXPECT_GT(cm.alpha_insert, 0u);
    EXPECT_GT(cm.beta_insert, 0u);
    EXPECT_GT(cm.join_base, 0u);
    EXPECT_GT(cm.not_base, 0u);
    EXPECT_GT(cm.terminal, 0u);
}

/**
 * Section 4: "the average duration of a task is only 50-100 machine
 * instructions". Our two-input activations (the tasks that dominate
 * match time) must sit in that band on the calibrated workloads; a
 * generous guard band of [30, 200] catches drift without flaking.
 */
TEST(CostModelTest, TwoInputActivationGranularityMatchesPaper)
{
    auto preset = workloads::presetByName("daa");
    auto program = workloads::generateProgram(preset.config);
    auto run = sim::captureStreamRun(program, preset.config, 11, 60,
                                     preset.changes_per_firing, 0.5);

    std::map<rete::NodeKind, std::pair<std::uint64_t, std::uint64_t>>
        per_kind; // kind -> (total cost, count)
    for (const auto &rec : run.trace.records()) {
        auto &[cost, count] = per_kind[rec.kind];
        cost += rec.cost;
        ++count;
    }

    auto avg = [&](rete::NodeKind k) {
        const auto &[cost, count] = per_kind[k];
        return count == 0 ? 0.0
                          : static_cast<double>(cost) /
                                static_cast<double>(count);
    };

    double join_avg = avg(rete::NodeKind::Join);
    EXPECT_GE(join_avg, 30.0);
    EXPECT_LE(join_avg, 200.0);

    double not_avg = avg(rete::NodeKind::Not);
    if (per_kind[rete::NodeKind::Not].second > 0) {
        EXPECT_GE(not_avg, 30.0);
        EXPECT_LE(not_avg, 250.0);
    }

    // Constant tests are far below task granularity — the reason the
    // parallel matcher's submitter walks the chains while seeding.
    EXPECT_LT(avg(rete::NodeKind::ConstTest), 20.0);
}

/**
 * The parallel matcher's wake floor. E9's batch-size sweep (growth
 * batches of 1-64 changes, all inline against all on three workers)
 * crosses over between 8 and 16 changes, at a median modeled batch
 * cost of 0.33M-0.66M; a daa firing models ~3k. Moving the default
 * moves which batches wake the workers, so it is pinned here.
 */
TEST(CostModelTest, WorkerWakeDefaultIsPinned)
{
    rete::CostModel cm;
    EXPECT_EQ(cm.worker_wake, 524288u);
}

/** A scaled cost model scales measured instructions accordingly. */
TEST(CostModelTest, MatcherHonoursCustomModel)
{
    auto preset = workloads::tinyPreset(5);
    auto program = workloads::generateProgram(preset.config);

    rete::CostModel cheap;
    rete::CostModel dear = cheap;
    dear.join_base *= 4;
    dear.token_build *= 4;
    dear.const_test *= 4;
    dear.beta_insert *= 4;
    dear.terminal *= 4;

    rete::ReteMatcher m1(std::make_shared<rete::Network>(program),
                         cheap);
    rete::ReteMatcher m2(std::make_shared<rete::Network>(program), dear);
    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 5);
    for (int b = 0; b < 10; ++b) {
        auto batch = stream.nextBatch(6, 0.4);
        m1.processChanges(batch);
        m2.processChanges(batch);
    }
    EXPECT_GT(m2.stats().instructions, m1.stats().instructions);
    EXPECT_EQ(m2.stats().activations, m1.stats().activations)
        << "cost model must not change behaviour, only accounting";
}

} // namespace
