/**
 * @file
 * DebugAccessChecker tests: the dynamic ownership-discipline verifier
 * must stay silent across real parallel matching (the locks uphold
 * the discipline) and must fire on every overlap the discipline
 * forbids when violations are provoked directly.
 */

#include <gtest/gtest.h>

#include <thread>

#include "core/access_check.hpp"
#include "core/parallel_matcher.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;
using core::DebugAccessChecker;
using rete::Side;

namespace {

TEST(AccessCheckTest, SameSideOverlapIsAllowed)
{
    DebugAccessChecker checker(4, /*abort_on_violation=*/false);
    DebugAccessChecker::SideScope a(&checker, 2, Side::Left, 0);
    DebugAccessChecker::SideScope b(&checker, 2, Side::Left, 1);
    EXPECT_EQ(checker.violationCount(), 0u);
}

TEST(AccessCheckTest, OppositeSideOverlapIsReported)
{
    DebugAccessChecker checker(4, false);
    DebugAccessChecker::SideScope left(&checker, 2, Side::Left, 0);
    {
        DebugAccessChecker::SideScope right(&checker, 2, Side::Right, 1);
        EXPECT_EQ(checker.violationCount(), 1u);
    }
    auto violations = checker.violations();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].node, 2);
    EXPECT_NE(violations[0].detail.find("right-side"), std::string::npos);
}

TEST(AccessCheckTest, SequentialOppositeSidesAreClean)
{
    DebugAccessChecker checker(1, false);
    { DebugAccessChecker::SideScope l(&checker, 0, Side::Left, 0); }
    { DebugAccessChecker::SideScope r(&checker, 0, Side::Right, 0); }
    EXPECT_EQ(checker.violationCount(), 0u);
}

TEST(AccessCheckTest, ExclusiveOverlapIsReported)
{
    DebugAccessChecker checker(2, false);
    DebugAccessChecker::ExclusiveScope a(&checker, 1, 0);
    {
        DebugAccessChecker::ExclusiveScope b(&checker, 1, 1);
        EXPECT_EQ(checker.violationCount(), 1u);
    }
    {
        DebugAccessChecker::SideScope c(&checker, 1, Side::Left, 2);
        EXPECT_EQ(checker.violationCount(), 2u);
    }
}

TEST(AccessCheckTest, DistinctNodesNeverInterfere)
{
    DebugAccessChecker checker(3, false);
    DebugAccessChecker::SideScope l(&checker, 0, Side::Left, 0);
    DebugAccessChecker::SideScope r(&checker, 1, Side::Right, 1);
    DebugAccessChecker::ExclusiveScope x(&checker, 2, 2);
    EXPECT_EQ(checker.violationCount(), 0u);
}

TEST(AccessCheckTest, NullCheckerScopesAreNoOps)
{
    DebugAccessChecker::SideScope s(nullptr, 0, Side::Left, 0);
    DebugAccessChecker::ExclusiveScope x(nullptr, 0, 0);
}

TEST(AccessCheckTest, WorkerBitmasksTrackTouches)
{
    DebugAccessChecker checker(2, false);
    { DebugAccessChecker::SideScope a(&checker, 0, Side::Left, 0); }
    { DebugAccessChecker::SideScope b(&checker, 0, Side::Left, 3); }
    { DebugAccessChecker::ExclusiveScope c(&checker, 1, 1); }
    EXPECT_EQ(checker.workersTouching(0), (1u << 0) | (1u << 3));
    EXPECT_EQ(checker.workersTouching(1), 1u << 1);
    EXPECT_EQ(checker.nodesTouchedByMultipleWorkers(), 1u);
    EXPECT_EQ(checker.violationCount(), 0u);
}

TEST(AccessCheckTest, ConcurrentSameSideTrafficStaysClean)
{
    DebugAccessChecker checker(1, false);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < 4; ++w) {
        threads.emplace_back([&, w] {
            for (int i = 0; i < 5000; ++i)
                DebugAccessChecker::SideScope s(&checker, 0, Side::Left,
                                                w);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(checker.violationCount(), 0u);
    EXPECT_EQ(checker.nodesTouchedByMultipleWorkers(), 1u);
}

/**
 * The positive end-to-end property: a real multi-worker match with
 * checking enabled observes zero ownership violations — the per-node
 * locks enforce exactly the discipline the checker verifies.
 */
TEST(AccessCheckTest, RealParallelMatchHasNoViolations)
{
    workloads::SystemPreset preset = workloads::tinyPreset(23);
    preset.config.negated_fraction = 0.3;
    preset.config.n_productions = 50;
    auto program = workloads::generateProgram(preset.config);

    core::ParallelOptions opt;
    opt.n_workers = 6;
    opt.access_check = true;
    // Floor 0: every batch goes through the workers, however small.
    core::ParallelReteMatcher par(program, opt,
                                  rete::CostModel{.worker_wake = 0});
    ASSERT_NE(par.accessChecker(), nullptr);

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 99);
    for (int b = 0; b < 12; ++b)
        par.processChanges(stream.nextBatch(12, 0.4));

    EXPECT_EQ(par.accessChecker()->violationCount(), 0u);
}

TEST(AccessCheckTest, CheckerDisabledByOption)
{
    auto program =
        workloads::generateProgram(workloads::tinyPreset(5).config);
    core::ParallelOptions opt;
    opt.access_check = false;
    core::ParallelReteMatcher par(program, opt);
    EXPECT_EQ(par.accessChecker(), nullptr);
}

} // namespace
