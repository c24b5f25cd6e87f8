/**
 * @file
 * Cross-matcher equivalence property tests.
 *
 * The ground truth is the naive non-state-saving matcher (it has no
 * incremental state to get wrong). Every other matcher — serial Rete
 * on a fully shared network, serial Rete on a private-state network,
 * TREAT, and the fine-grain parallel Rete with several worker/queue
 * configurations, with small batches inline and with every batch
 * through the workers — must produce exactly the same conflict set after
 * every batch of WM changes, across randomized programs and change
 * streams.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/parallel_matcher.hpp"
#include "core/production_parallel.hpp"
#include "rete/matcher.hpp"
#include "treat/fullstate.hpp"
#include "treat/naive.hpp"
#include "treat/treat.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;

namespace {

/** Canonical conflict-set snapshot: sorted (production, tags) keys. */
std::vector<std::pair<int, std::vector<ops5::TimeTag>>>
snapshot(const ops5::ConflictSet &cs)
{
    std::vector<std::pair<int, std::vector<ops5::TimeTag>>> out;
    for (const ops5::Instantiation &inst : cs.contents()) {
        ops5::InstantiationKey key = ops5::InstantiationKey::of(inst);
        out.emplace_back(key.production_id, key.tags);
    }
    std::sort(out.begin(), out.end());
    return out;
}

struct EquivalenceParam
{
    std::uint64_t seed;
    int batches;
    int batch_size;
};

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceParam>
{};

TEST_P(EquivalenceTest, AllMatchersAgreeOnConflictSet)
{
    const EquivalenceParam param = GetParam();

    workloads::SystemPreset preset = workloads::tinyPreset(param.seed);
    preset.config.negated_fraction = 0.2; // exercise not-nodes hard
    auto program = workloads::generateProgram(preset.config);

    rete::ReteMatcher shared_rete(program);
    rete::ReteMatcher hashed_rete(std::make_shared<rete::Network>(program),
                                  rete::CostModel{}, /*hash_joins=*/true);
    rete::ReteMatcher private_rete(std::make_shared<rete::Network>(
        program, rete::NetworkOptions::privateState()));
    treat::TreatMatcher treat(program);
    treat::NaiveMatcher naive(program);
    treat::FullStateMatcher fullstate(program);
    core::ProductionParallelMatcher prod_par0(program, 0);
    core::ProductionParallelMatcher prod_par3(program, 3);

    core::ParallelOptions serial_par;
    serial_par.n_workers = 0;
    core::ParallelReteMatcher par0(program, serial_par);

    core::ParallelOptions one;
    one.n_workers = 1;
    core::ParallelReteMatcher par1(program, one);

    core::ParallelOptions three;
    three.n_workers = 3;
    core::ParallelReteMatcher par3(program, three);

    // Worker configs both ways: above, batches below the wake floor
    // run inline; here (floor 0) every batch goes through the workers.
    const rete::CostModel fine_grain{.worker_wake = 0};
    core::ParallelOptions two;
    two.n_workers = 2;
    core::ParallelReteMatcher par2_fine(program, two, fine_grain);
    core::ParallelReteMatcher par3_fine(program, three, fine_grain);

    std::vector<core::Matcher *> matchers = {
        &shared_rete, &hashed_rete, &private_rete, &treat,
        &naive,       &fullstate,   &prod_par0,    &prod_par3,
        &par0,        &par1,        &par3,        &par2_fine,
        &par3_fine,
    };

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config,
                                   param.seed * 31 + 1);

    for (int b = 0; b < param.batches; ++b) {
        std::vector<ops5::WmeChange> batch =
            stream.nextBatch(param.batch_size);
        for (core::Matcher *m : matchers)
            m->processChanges(batch);

        auto expected = snapshot(naive.conflictSet());
        for (std::size_t i = 0; i < matchers.size(); ++i) {
            EXPECT_EQ(snapshot(matchers[i]->conflictSet()), expected)
                << "matcher #" << i << " " << matchers[i]->name()
                << " diverged at batch " << b << " (seed " << param.seed
                << ")";
        }
        for (const rete::ReteMatcher *rete :
             std::initializer_list<const rete::ReteMatcher *>{
                 &shared_rete, &hashed_rete, &private_rete, &par0,
                 &par1, &par3, &par2_fine, &par3_fine})
            EXPECT_EQ(rete->pendingTombstones(), 0u) << rete->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomStreams, EquivalenceTest,
    ::testing::Values(EquivalenceParam{1, 12, 6},
                      EquivalenceParam{2, 12, 6},
                      EquivalenceParam{3, 10, 10},
                      EquivalenceParam{4, 10, 10},
                      EquivalenceParam{5, 8, 16},
                      EquivalenceParam{6, 8, 16},
                      EquivalenceParam{7, 20, 3},
                      EquivalenceParam{8, 20, 3},
                      EquivalenceParam{9, 6, 24},
                      EquivalenceParam{10, 6, 24}),
    [](const ::testing::TestParamInfo<EquivalenceParam> &info) {
        return "seed" + std::to_string(info.param.seed) + "_batch" +
               std::to_string(info.param.batch_size);
    });

/** Insert-then-retract everything must leave every matcher empty. */
TEST(EquivalenceEdge, DrainToEmpty)
{
    auto preset = workloads::tinyPreset(42);
    auto program = workloads::generateProgram(preset.config);

    rete::ReteMatcher rete(program);
    treat::TreatMatcher treat(program);
    core::ParallelOptions opt;
    opt.n_workers = 2;
    core::ParallelReteMatcher par(program, opt,
                                  rete::CostModel{.worker_wake = 0});

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 99);
    std::vector<ops5::WmeChange> inserts = stream.nextBatch(40, 0.0);

    for (core::Matcher *m :
         std::vector<core::Matcher *>{&rete, &treat, &par}) {
        m->processChanges(inserts);
    }

    std::vector<ops5::WmeChange> removals;
    for (const ops5::WmeChange &c : inserts)
        removals.push_back({ops5::ChangeKind::Remove, c.wme});

    for (core::Matcher *m :
         std::vector<core::Matcher *>{&rete, &treat, &par}) {
        m->processChanges(removals);
        EXPECT_EQ(m->conflictSet().size(), 0u) << m->name();
    }
}

} // namespace
