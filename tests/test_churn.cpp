/**
 * @file
 * Working-memory churn stress tests for the indexed matcher stack.
 *
 * The join-layer indexes (alpha probe buckets, beta identity index and
 * probe buckets, not-node entry index) are incrementally maintained
 * under every insert/remove path of every matcher configuration. A
 * long interleaved insert/remove stream is the workload that breaks
 * incremental maintenance: swap-erase fixups, tombstone annihilation,
 * and slot reuse all have to stay consistent for tens of thousands of
 * transitions. These tests drive 10k+ WME changes through all eleven
 * matcher configurations, asserting conflict-set equivalence against
 * the naive ground truth and index <-> memory agreement throughout —
 * plus a snapshot-restore-then-churn pass proving rebuildIndexes
 * reconstructs probe state that survives further mutation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.hpp"
#include "core/parallel_matcher.hpp"
#include "core/production_parallel.hpp"
#include "durable/snapshot.hpp"
#include "rete/matcher.hpp"
#include "rete/validate.hpp"
#include "treat/fullstate.hpp"
#include "treat/naive.hpp"
#include "treat/treat.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;

namespace {

/** Floor 0: every batch goes through the workers, however small, so
 *  the /3 configs keep real concurrency. */
const rete::CostModel kFineGrain{.worker_wake = 0};

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

TEST(ChurnStressTest, AllConfigsAgreeUnder10kChurn)
{
    workloads::SystemPreset preset = workloads::tinyPreset(17);
    preset.config.negated_fraction = 0.2; // exercise not-node indexes
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

    core::ParallelOptions two;
    two.n_workers = 2;
    core::ParallelReteMatcher par2(program, two, kFineGrain);

    core::ParallelOptions three;
    three.n_workers = 3;
    core::ParallelReteMatcher par3(program, three, kFineGrain);

    std::vector<core::Matcher *> matchers = {
        &shared_rete, &hashed_rete, &private_rete, &treat,
        &naive,       &fullstate,   &prod_par0,    &prod_par3,
        &par0,        &par2,        &par3,
    };
    // Every matcher that carries a Rete network with live indexes.
    std::vector<rete::Network *> networks = {
        &shared_rete.network(), &hashed_rete.network(),
        &private_rete.network(), &par0.network(),
        &par2.network(),         &par3.network(),
    };

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 1717);

    // 160 batches x 64 changes = 10240 WM transitions. Removal
    // fraction 0.5 keeps the live set bounded (a random walk), so the
    // naive ground-truth recompute stays tractable while every index
    // sees thousands of swap-erases and slot reuses.
    constexpr int kBatches = 160;
    constexpr int kBatchSize = 64;
    std::uint64_t total_changes = 0;

    for (int b = 0; b < kBatches; ++b) {
        std::vector<ops5::WmeChange> batch =
            stream.nextBatch(kBatchSize, 0.5);
        total_changes += batch.size();
        for (core::Matcher *m : matchers)
            m->processChanges(batch);

        auto expected = snapshot(naive.conflictSet());
        for (core::Matcher *m : matchers) {
            ASSERT_EQ(snapshot(m->conflictSet()), expected)
                << "matcher " << m->name() << " diverged at batch " << b;
        }
        // Cheap index <-> memory agreement on every network, every
        // batch: this is where a missed fixup shows first.
        for (rete::Network *net : networks) {
            auto r = rete::validateIndexes(*net);
            ASSERT_TRUE(r.ok())
                << "index desync at batch " << b << ": " << r.summary();
        }
        // Full ground-truth recompute periodically (it is quadratic).
        if (b % 40 == 39) {
            auto live = wm.liveElements();
            auto r = rete::validateMatcherState(
                shared_rete.network(), live, shared_rete.conflictSet());
            ASSERT_TRUE(r.ok())
                << "serial state invalid at batch " << b << ": "
                << r.summary();
            r = rete::validateMatcherState(par2.network(), live,
                                           par2.conflictSet());
            ASSERT_TRUE(r.ok())
                << "parallel state invalid at batch " << b << ": "
                << r.summary();
        }
    }
    EXPECT_GE(total_changes, 10000u);
}

/**
 * The growth regime: few removals, so memories accumulate ~1200
 * entries — far past the adaptive-index activation threshold — while
 * the large symbol pools keep joins selective. This is the workload
 * the probe indexes exist for (and where a stale bucket would produce
 * silently wrong matches rather than a crash).
 */
TEST(ChurnStressTest, GrowthRegimeConfigsAgree)
{
    workloads::SystemPreset preset = workloads::growthPreset(11);
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

    core::ParallelOptions two;
    two.n_workers = 2;
    core::ParallelReteMatcher par2(program, two, kFineGrain);

    core::ParallelOptions three;
    three.n_workers = 3;
    core::ParallelReteMatcher par3(program, three, kFineGrain);

    std::vector<core::Matcher *> matchers = {
        &shared_rete, &hashed_rete, &private_rete, &treat,
        &naive,       &fullstate,   &prod_par0,    &prod_par3,
        &par0,        &par2,        &par3,
    };
    std::vector<rete::Network *> networks = {
        &shared_rete.network(), &hashed_rete.network(),
        &private_rete.network(), &par0.network(),
        &par2.network(),         &par3.network(),
    };

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 1717);

    constexpr int kBatches = 50;
    constexpr int kBatchSize = 24;
    std::vector<ops5::WmeChange> pending_naive;

    for (int b = 0; b < kBatches; ++b) {
        std::vector<ops5::WmeChange> batch =
            stream.nextBatch(kBatchSize, 0.04);
        // The naive ground truth rematches the full (growing) WM on
        // every call, which is quadratic — hand it the accumulated
        // changes as one span every 5th batch (one rematch instead of
        // five) and compare everyone at those points.
        bool check = (b % 5 == 4) || b + 1 == kBatches;
        for (core::Matcher *m : matchers) {
            if (m == &naive)
                continue;
            m->processChanges(batch);
        }
        pending_naive.insert(pending_naive.end(), batch.begin(),
                             batch.end());
        if (!check)
            continue;
        naive.processChanges(pending_naive);
        pending_naive.clear();

        auto expected = snapshot(naive.conflictSet());
        for (core::Matcher *m : matchers) {
            ASSERT_EQ(snapshot(m->conflictSet()), expected)
                << "matcher " << m->name() << " diverged at batch " << b;
        }
        for (rete::Network *net : networks) {
            auto r = rete::validateIndexes(*net);
            ASSERT_TRUE(r.ok())
                << "index desync at batch " << b << ": " << r.summary();
        }
    }
    // The point of the preset: memories must actually have grown past
    // the adaptive-index activation threshold.
    EXPECT_GT(wm.liveElements().size(), 1000u);
    bool any_indexed = false;
    for (const auto &node : shared_rete.network().nodes()) {
        if (node->kind == rete::NodeKind::AlphaMemory &&
            static_cast<rete::AlphaMemoryNode *>(node.get())->indexed())
            any_indexed = true;
    }
    EXPECT_TRUE(any_indexed)
        << "growth preset never activated an alpha index";
}

TEST(ChurnStressTest, RestoreThenChurnRebuildsWorkingIndexes)
{
    workloads::SystemPreset preset = workloads::tinyPreset(23);
    auto program = workloads::generateProgram(preset.config);
    ASSERT_FALSE(program->initialWmes().empty());

    auto drive = [&](core::Engine &engine, int step) {
        const auto &templates = engine.program().initialWmes();
        {
            core::Engine::ExternalBatch batch(engine);
            for (int i = 0; i < 4; ++i) {
                const auto &t =
                    templates[(step * 4 + i) % templates.size()];
                batch.insert(t.cls, t.fields);
            }
            batch.commit();
        }
        engine.run(2);
    };

    rete::ReteMatcher matcher1(program);
    core::Engine engine1(program, matcher1);
    engine1.loadInitialWorkingMemory();
    // The naive matcher shares no code with the Rete executor, so the
    // lockstep below is checked against it as well.
    treat::NaiveMatcher naive(program);
    core::Engine engine0(program, naive);
    engine0.loadInitialWorkingMemory();
    for (int s = 0; s < 6; ++s) {
        drive(engine1, s);
        drive(engine0, s);
    }

    durable::SnapshotData snap = durable::captureSnapshot(engine1);
    ASSERT_TRUE(snap.rete.present);

    rete::ReteMatcher matcher2(program);
    core::Engine engine2(program, matcher2);
    // Full validation inside stateRestore already runs the
    // index-agreement check over the rebuilt probe buckets.
    durable::stateRestore(engine2, matcher2, snap,
                          durable::RestoreValidation::Full);

    // The rebuilt indexes must not merely LOOK right — they must
    // keep working: churn both engines identically past the restore
    // point and require byte-identical conflict sets plus continued
    // index agreement on the restored network.
    for (int s = 6; s < 14; ++s) {
        drive(engine0, s);
        drive(engine1, s);
        drive(engine2, s);
        ASSERT_EQ(snapshot(matcher1.conflictSet()),
                  snapshot(naive.conflictSet()))
            << "engine diverged from the naive matcher at step " << s;
        ASSERT_EQ(snapshot(matcher2.conflictSet()),
                  snapshot(matcher1.conflictSet()))
            << "restored engine diverged at step " << s;
        auto r = rete::validateMatcherState(
            matcher2.network(), engine2.workingMemory().liveElements(),
            matcher2.conflictSet());
        ASSERT_TRUE(r.ok())
            << "restored state invalid at step " << s << ": "
            << r.summary();
    }
}

} // namespace
