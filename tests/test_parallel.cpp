/**
 * @file
 * Parallel-runtime tests: task queues, the directional lock, and the
 * parallel matcher under stress (many workers, repeated runs, heavy
 * negation, one alpha or beta memory shared by several joins).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <numeric>
#include <random>
#include <thread>

#include "core/parallel_matcher.hpp"
#include "ops5/parser.hpp"
#include "rete/matcher.hpp"
#include "rete/sync.hpp"
#include "rete/validate.hpp"
#include "treat/naive.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;

namespace {

/** Floor 0: every batch goes through the workers, however small. */
const rete::CostModel kFineGrain{.worker_wake = 0};

TEST(LockFreeTaskPoolTest, ConcurrentPushPopLosesNothing)
{
    // Each thread pushes only to its own lane (the Chase–Lev owner
    // contract); pops take the own lane first, then steal.
    constexpr int kPerThread = 2000;
    constexpr int kThreads = 4;
    core::LockFreeTaskPool<int> pool(kThreads);
    std::atomic<int> popped{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                pool.push(i, t);
            while (pool.tryPop(t))
                popped.fetch_add(1);
        });
    }
    for (auto &th : threads)
        th.join();
    // Anything left after the racy drain is still in some lane.
    while (true) {
        bool any = false;
        for (int t = 0; t < kThreads; ++t) {
            if (pool.tryPop(t)) {
                popped.fetch_add(1);
                any = true;
            }
        }
        if (!any)
            break;
    }
    EXPECT_EQ(popped.load(), kPerThread * kThreads);
}

TEST(DirectionalLockTest, SameSideOverlapsOppositeExcludes)
{
    rete::DirectionalLock lock;
    std::atomic<int> left_active{0};
    std::atomic<int> right_active{0};
    std::atomic<int> max_left{0};
    std::atomic<bool> violation{false};

    auto worker = [&](rete::Side side, int iters) {
        for (int i = 0; i < iters; ++i) {
            rete::DirectionalGuard guard(lock, side);
            if (side == rete::Side::Left) {
                int n = left_active.fetch_add(1) + 1;
                int prev = max_left.load();
                while (n > prev &&
                       !max_left.compare_exchange_weak(prev, n)) {
                }
                if (right_active.load() != 0)
                    violation = true;
                left_active.fetch_sub(1);
            } else {
                right_active.fetch_add(1);
                if (left_active.load() != 0)
                    violation = true;
                right_active.fetch_sub(1);
            }
        }
    };

    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i)
        threads.emplace_back(worker, rete::Side::Left, 3000);
    for (int i = 0; i < 3; ++i)
        threads.emplace_back(worker, rete::Side::Right, 3000);
    for (auto &t : threads)
        t.join();

    EXPECT_FALSE(violation.load()) << "opposite sides overlapped";
    // Same-side concurrency is timing-dependent; with 3 spinning
    // threads it is overwhelmingly likely to have happened at least
    // once, but do not hard-fail on a slow machine.
    EXPECT_GE(max_left.load(), 1);
}

TEST(DirectionalLockTest, ManyThreadMixedSidesNeverOverlapAndDrain)
{
    rete::DirectionalLock lock;
    std::atomic<int> active[2] = {0, 0}; // [Left, Right]
    std::atomic<bool> violation{false};

    constexpr int kThreads = 8;
    constexpr int kIters = 5000;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            std::uint64_t x = 0x9e3779b97f4a7c15ull * (i + 1);
            for (int n = 0; n < kIters; ++n) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                int me = static_cast<int>(x & 1);
                rete::DirectionalGuard guard(
                    lock, me == 0 ? rete::Side::Left : rete::Side::Right);
                active[me].fetch_add(1);
                if (active[1 - me].load() != 0)
                    violation = true;
                active[me].fetch_sub(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_FALSE(violation.load()) << "opposite sides overlapped";
    EXPECT_EQ(lock.holders(rete::Side::Left), 0u);
    EXPECT_EQ(lock.holders(rete::Side::Right), 0u);
}

constexpr int kSweepLocks = 6;

struct SweepState
{
    std::array<rete::DirectionalLock, kSweepLocks> locks;
    std::array<std::atomic<int>, kSweepLocks> left_in{};
    std::array<std::atomic<int>, kSweepLocks> right_in{};
    std::atomic<bool> violation{false};
};

/** What a composite alpha task does: the right side of every lock in
 *  id order, then each released in turn. */
void sweepRight(SweepState &st) PSM_NO_THREAD_SAFETY_ANALYSIS;

void
sweepRight(SweepState &st)
{
    for (int i = 0; i < kSweepLocks; ++i) {
        st.locks[i].acquire(rete::Side::Right);
        st.right_in[i].fetch_add(1);
        if (st.left_in[i].load() != 0)
            st.violation = true;
    }
    for (int i = 0; i < kSweepLocks; ++i) {
        st.right_in[i].fetch_sub(1);
        st.locks[i].release(rete::Side::Right);
    }
}

TEST(DirectionalLockTest, OrderedRightSweepsBesideLeftChurnFinish)
{
    // Two sweepers (two alpha tasks on one shared memory) take several
    // locks' right sides in id order while four churners each hold one
    // left side at a time, as token arrivals do. The fixed order must
    // not deadlock.
    SweepState st;
    std::atomic<bool> stop{false};
    std::vector<std::thread> churners;
    for (int c = 0; c < 4; ++c) {
        churners.emplace_back([&, c] {
            std::uint64_t x = 0x2545f4914f6cdd1dull * (c + 1);
            while (!stop.load()) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                int i = static_cast<int>(x % kSweepLocks);
                rete::DirectionalGuard guard(st.locks[i],
                                             rete::Side::Left);
                st.left_in[i].fetch_add(1);
                if (st.right_in[i].load() != 0)
                    st.violation = true;
                st.left_in[i].fetch_sub(1);
            }
        });
    }
    auto sweeps = std::async(std::launch::async, [&] {
        std::thread other([&] {
            for (int n = 0; n < 2000; ++n)
                sweepRight(st);
        });
        for (int n = 0; n < 2000; ++n)
            sweepRight(st);
        other.join();
    });
    if (sweeps.wait_for(std::chrono::seconds(120)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "ordered right sweeps deadlocked";
        std::abort();
    }
    stop = true;
    for (auto &t : churners)
        t.join();

    EXPECT_FALSE(st.violation.load()) << "opposite sides overlapped";
    for (int i = 0; i < kSweepLocks; ++i) {
        EXPECT_EQ(st.locks[i].holders(rete::Side::Left), 0u);
        EXPECT_EQ(st.locks[i].holders(rete::Side::Right), 0u);
    }
}

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

/**
 * Drives @p pars, serial shared Rete and the naive matcher through 200
 * batches of 24 random changes over classes a (x y) and b (x), with
 * values in 0..3. A random walk capped at 64 live elements: every
 * batch both joins and retracts, and the conflict set stays small
 * enough to compare at every barrier, where serial Rete and each
 * parallel matcher must hold the naive matcher's conflict set (the
 * reference that shares no code with the Rete executor) and each
 * parallel network a state validateNetworkState accepts.
 */
void
expectChurnMatchesSerialRete(
    const std::shared_ptr<const ops5::Program> &program,
    const std::vector<std::unique_ptr<core::ParallelReteMatcher>> &pars)
{
    const ops5::SymbolId a = program->symbols().find("a");
    const ops5::SymbolId b = program->symbols().find("b");
    rete::ReteMatcher serial(program);
    treat::NaiveMatcher naive(program);
    ops5::WorkingMemory wm;
    std::vector<const ops5::Wme *> live;
    std::mt19937_64 rng(4242);
    auto value = [&] {
        return ops5::Value::integer(
            std::uniform_int_distribution<int>(0, 3)(rng));
    };
    std::size_t peak = 0;
    for (int batch_no = 0; batch_no < 200; ++batch_no) {
        std::vector<ops5::WmeChange> batch;
        for (int i = 0; i < 24; ++i) {
            bool remove = live.size() > 64 ||
                (live.size() > 4 &&
                 std::uniform_int_distribution<int>(0, 9)(rng) < 5);
            if (remove) {
                std::size_t idx = std::uniform_int_distribution<
                    std::size_t>(0, live.size() - 1)(rng);
                const ops5::Wme *victim = live[idx];
                live[idx] = live.back();
                live.pop_back();
                wm.remove(victim);
                batch.push_back({ops5::ChangeKind::Remove, victim});
            } else if (rng() % 3 != 0) {
                live.push_back(wm.insert(a, {value(), value()}));
                batch.push_back({ops5::ChangeKind::Insert, live.back()});
            } else {
                live.push_back(wm.insert(b, {value()}));
                batch.push_back({ops5::ChangeKind::Insert, live.back()});
            }
        }
        serial.processChanges(batch);
        naive.processChanges(batch);
        auto expected = snapshot(naive.conflictSet());
        ASSERT_EQ(snapshot(serial.conflictSet()), expected)
            << "serial Rete diverged at batch " << batch_no;
        peak = std::max(peak, expected.size());
        for (std::size_t i = 0; i < pars.size(); ++i) {
            core::ParallelReteMatcher &par = *pars[i];
            par.processChanges(batch);
            ASSERT_EQ(snapshot(par.conflictSet()), expected)
                << "#" << i << " " << par.name() << " /"
                << par.options().n_workers << " diverged at batch "
                << batch_no;
            auto r = rete::validateNetworkState(par.network(),
                                                wm.liveElements());
            ASSERT_TRUE(r.ok()) << "#" << i << " " << par.name()
                                << " batch " << batch_no << ": "
                                << r.summary();
        }
    }
    EXPECT_GT(peak, 20u) << "the churn barely matched anything";
    for (auto &par : pars)
        EXPECT_EQ(par->accessChecker()->violationCount(), 0u);
}

TEST(ParallelMatcherTest, SharedAlphaMemoryMatchesSerialRete)
{
    // No CE over class a has a constant test, so all four read one
    // alpha memory: both sides of the self-join in `self`, the join
    // in `pair` and the negated CE of `lonely`.
    auto program = ops5::parse(R"(
(literalize a x y)
(literalize b x)
(p self (a ^x <v>) (a ^y <v>) --> (halt))
(p pair (b ^x <v>) (a ^y <v>) --> (halt))
(p lonely (b ^x <v>) -(a ^x <v>) --> (halt))
)");
    std::vector<std::unique_ptr<core::ParallelReteMatcher>> pars;
    core::ParallelOptions opt;
    opt.access_check = true;
    // /0 runs every batch inline.
    pars.push_back(std::make_unique<core::ParallelReteMatcher>(program, opt));
    for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
        opt.n_workers = workers;
        for (const rete::CostModel &cost : {rete::CostModel{}, kFineGrain})
            pars.push_back(std::make_unique<core::ParallelReteMatcher>(
                program, opt, cost));
    }

    // The shape the test is about: one alpha memory, four successors
    // in ascending id, one of them a not-node.
    const rete::AlphaMemoryNode *shared = nullptr;
    for (const auto &node : pars.front()->network().nodes())
        if (node->kind == rete::NodeKind::AlphaMemory &&
            static_cast<rete::AlphaMemoryNode *>(node.get())
                    ->successors.size() == 4)
            shared = static_cast<rete::AlphaMemoryNode *>(node.get());
    ASSERT_NE(shared, nullptr);
    EXPECT_TRUE(std::any_of(
        shared->successors.begin(), shared->successors.end(),
        [](const rete::Node *n) { return n->kind == rete::NodeKind::Not; }));
    ASSERT_TRUE(rete::validateStructure(pars.front()->network()).ok());
    expectChurnMatchesSerialRete(program, pars);
}

TEST(ParallelMatcherTest, SharedBetaMemoryMatchesSerialRete)
{
    // Every production starts with (a ^x <v>), so one beta memory
    // holds that prefix for all of them and feeds `base`'s terminal,
    // the joins of `self` and `pair` (which `deep` shares), and the
    // not-node of `lonely`. `self` reads, on its right, the alpha memory that fed
    // the prefix (a self-join through the shared prefix); `deep`
    // shares `pair`'s output memory too, one level further down.
    auto program = ops5::parse(R"(
(literalize a x y)
(literalize b x)
(p base (a ^x <v>) --> (halt))
(p self (a ^x <v>) (a ^y <v>) --> (halt))
(p pair (a ^x <v>) (b ^x <v>) --> (halt))
(p deep (a ^x <v>) (b ^x <v>) (a ^y <v>) --> (halt))
(p lonely (a ^x <v>) -(b ^x <v>) --> (halt))
)");
    std::vector<std::unique_ptr<core::ParallelReteMatcher>> pars;
    core::ParallelOptions opt;
    opt.access_check = true;
    // /0 runs every batch inline; /3 at floor 0 runs every batch on
    // the workers.
    pars.push_back(std::make_unique<core::ParallelReteMatcher>(program, opt));
    opt.n_workers = 3;
    pars.push_back(
        std::make_unique<core::ParallelReteMatcher>(program, opt, kFineGrain));

    // The shape the test is about.
    const rete::Network &net = pars.front()->network();
    ASSERT_TRUE(rete::validateStructure(net).ok());
    const rete::BetaMemoryNode *prefix = nullptr;
    for (const auto &node : net.nodes())
        if (node->kind == rete::NodeKind::BetaMemory &&
            static_cast<rete::BetaMemoryNode *>(node.get())
                    ->successors.size() == 4)
            prefix = static_cast<rete::BetaMemoryNode *>(node.get());
    ASSERT_NE(prefix, nullptr);
    auto count = [&](rete::NodeKind kind) {
        return std::count_if(
            prefix->successors.begin(), prefix->successors.end(),
            [kind](const rete::Node *n) { return n->kind == kind; });
    };
    EXPECT_EQ(count(rete::NodeKind::Terminal), 1);
    EXPECT_EQ(count(rete::NodeKind::Join), 2);
    EXPECT_EQ(count(rete::NodeKind::Not), 1);
    const rete::AlphaMemoryNode *prefix_alpha = nullptr;
    for (const auto &node : net.nodes())
        if (node->kind == rete::NodeKind::Join &&
            static_cast<rete::JoinNode *>(node.get())->output == prefix)
            prefix_alpha = static_cast<rete::JoinNode *>(node.get())->right;
    ASSERT_NE(prefix_alpha, nullptr);
    EXPECT_TRUE(std::any_of(
        prefix->successors.begin(), prefix->successors.end(),
        [&](const rete::Node *n) {
            return n->kind == rete::NodeKind::Join &&
                static_cast<const rete::JoinNode *>(n)->right ==
                    prefix_alpha;
        }));
    expectChurnMatchesSerialRete(program, pars);
}

TEST(ParallelMatcherTest, ManyWorkersHeavyNegationStress)
{
    workloads::SystemPreset preset = workloads::tinyPreset(17);
    preset.config.negated_fraction = 0.3;
    preset.config.n_productions = 60;
    auto program = workloads::generateProgram(preset.config);

    for (int trial = 0; trial < 6; ++trial) {
        treat::NaiveMatcher ref(program);
        core::ParallelOptions opt;
        opt.n_workers = trial % 2 == 0 ? 7 : 2;
        core::ParallelReteMatcher par(program, opt, kFineGrain);

        ops5::WorkingMemory wm;
        workloads::ChangeStream stream(*program, wm, preset.config,
                                       1000 + trial);
        for (int b = 0; b < 10; ++b) {
            auto batch = stream.nextBatch(12);
            ref.processChanges(batch);
            par.processChanges(batch);
            EXPECT_EQ(snapshot(par.conflictSet()),
                      snapshot(ref.conflictSet()))
                << "trial " << trial << " batch " << b;
        }
    }
}

TEST(ParallelMatcherTest, ConjugatePairInOneBatchCancels)
{
    auto program = ops5::parse(R"(
(literalize a x)
(p p1 (a ^x 1) --> (halt))
)");
    core::ParallelOptions opt;
    opt.n_workers = 2;
    core::ParallelReteMatcher par(program, opt, kFineGrain);
    ops5::WorkingMemory wm;

    const ops5::Wme *w =
        wm.insert(program->symbols().intern("a"),
                  {ops5::Value::integer(1)});
    std::vector<ops5::WmeChange> batch = {
        {ops5::ChangeKind::Insert, w},
        {ops5::ChangeKind::Remove, w},
    };
    par.processChanges(batch);
    EXPECT_EQ(par.conflictSet().size(), 0u);

    // The alpha memory must not have leaked the element.
    for (const auto &node : par.network().nodes()) {
        if (node->kind != rete::NodeKind::AlphaMemory)
            continue;
        EXPECT_EQ(
            static_cast<rete::AlphaMemoryNode *>(node.get())->size(),
            0u);
    }
}

TEST(ParallelMatcherTest, StatsAggregateAcrossWorkers)
{
    auto preset = workloads::tinyPreset(3);
    auto program = workloads::generateProgram(preset.config);
    core::ParallelOptions opt;
    opt.n_workers = 4;
    core::ParallelReteMatcher par(program, opt, kFineGrain);
    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 5);
    for (int b = 0; b < 5; ++b)
        par.processChanges(stream.nextBatch(10));
    auto st = par.stats();
    EXPECT_EQ(st.changes_processed, 50u);
    EXPECT_GT(st.activations, 50u);
    EXPECT_GT(st.instructions, 0u);
}

/** MatchStats as one comparable, printable value. */
std::array<std::uint64_t, 5>
fields(const core::MatchStats &s)
{
    return {s.changes_processed, s.activations, s.comparisons,
            s.tokens_built, s.instructions};
}

TEST(ParallelMatcherTest, InlineBatchesReportSerialReteAccounting)
{
    // One executor, one accounting: serial Rete over the fully shared
    // network and the parallel matcher running every batch inline (no
    // workers, and three workers under the default floor) charge the
    // same MatchStats and hold the same conflict set after every batch
    // of a churn stream with removes and not-nodes.
    workloads::SystemPreset preset = workloads::tinyPreset(29);
    preset.config.negated_fraction = 0.3;
    auto program = workloads::generateProgram(preset.config);
    rete::ReteMatcher serial(std::make_shared<rete::Network>(
        program, rete::NetworkOptions::fullSharing()));
    core::ParallelOptions opt;
    core::ParallelReteMatcher par0(program, opt);
    opt.n_workers = 3;
    core::ParallelReteMatcher par3(program, opt);
    telemetry::Registry *reg = par3.enableTelemetry();

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 31);
    const int kBatches = 80;
    std::uint64_t removes = 0;
    for (int b = 0; b < kBatches; ++b) {
        auto batch = stream.nextBatch(8, 0.4);
        for (const ops5::WmeChange &c : batch)
            removes += c.kind == ops5::ChangeKind::Remove;
        serial.processChanges(batch);
        const auto expected = snapshot(serial.conflictSet());
        for (core::ParallelReteMatcher *par : {&par0, &par3}) {
            par->processChanges(batch);
            ASSERT_EQ(snapshot(par->conflictSet()), expected)
                << "/" << par->options().n_workers << " batch " << b;
            ASSERT_EQ(fields(par->stats()), fields(serial.stats()))
                << "/" << par->options().n_workers << " batch " << b;
        }
    }
    EXPECT_GT(removes, 100u);
    EXPECT_GT(serial.stats().tokens_built, 0u);
#if PSM_TELEMETRY
    EXPECT_EQ(reg->total(telemetry::Counter::InlineBatches),
              static_cast<std::uint64_t>(kBatches));
#else
    (void)reg;
#endif
}

/** Tasks each lane ran, from a span recorder with one lane per
 *  thread (lane 0 is the submitter). */
std::vector<std::size_t>
spansPerLane(const rete::SpanRecorder &rec)
{
    std::vector<std::size_t> out;
    for (std::size_t lane = 0; lane < rec.workers(); ++lane)
        out.push_back(rec.spans(lane).size());
    return out;
}

TEST(ParallelMatcherTest, SmallBatchRunsInlineWithoutWakingWorkers)
{
    // daa firings change about two elements: each batch's modeled
    // probe cost is far below the wake floor, so the submitter runs
    // it alone and the workers stay parked.
    auto preset = workloads::presetByName("daa");
    auto program = workloads::generateProgram(preset.config);
    treat::NaiveMatcher naive(program);
    core::ParallelOptions opt;
    opt.n_workers = 3;
    core::ParallelReteMatcher par(program, opt);
    rete::SpanRecorder rec(opt.n_workers + 1);
    par.setSpanRecorder(&rec);
    telemetry::Registry *reg = par.enableTelemetry();

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 99);
    const int kBatches = 200;
    for (int b = 0; b < kBatches; ++b) {
        auto batch = stream.nextBatch(preset.changes_per_firing, 0.5);
        naive.processChanges(batch);
        par.processChanges(batch);
    }
    EXPECT_EQ(snapshot(par.conflictSet()), snapshot(naive.conflictSet()));

    std::vector<std::size_t> lanes = spansPerLane(rec);
    EXPECT_GT(lanes[0], 0u);
    for (std::size_t w = 1; w < lanes.size(); ++w)
        EXPECT_EQ(lanes[w], 0u) << "worker " << w << " ran a task";
#if PSM_TELEMETRY
    EXPECT_EQ(reg->total(telemetry::Counter::InlineBatches),
              static_cast<std::uint64_t>(kBatches));
    // Workers park once at start-up and count a park when woken.
    EXPECT_EQ(reg->total(telemetry::Counter::WorkerParks), 0u);
    EXPECT_EQ(reg->total(telemetry::Counter::TasksSpawned),
              reg->total(telemetry::Counter::TasksExecuted));
#else
    (void)reg;
#endif
    EXPECT_EQ(par.tombstoneEvents(), 0u);
}

TEST(ParallelMatcherTest, LargeBatchStillUsesWorkers)
{
    // 64-change growth batches model above the wake floor once the
    // memories hold a few hundred elements; only the first few
    // batches of a fresh matcher run inline.
    auto preset = workloads::growthPreset();
    auto program = workloads::generateProgram(preset.config);
    rete::ReteMatcher serial(program);
    core::ParallelOptions opt;
    opt.n_workers = 3;
    core::ParallelReteMatcher par(program, opt);
    rete::SpanRecorder rec(opt.n_workers + 1);
    par.setSpanRecorder(&rec);
    telemetry::Registry *reg = par.enableTelemetry();

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 7);
    const int kBatches = 24;
    std::vector<ops5::WmeChange> all;
    for (int b = 0; b < kBatches; ++b) {
        auto batch = stream.nextBatch(64, 0.04);
        serial.processChanges(batch);
        par.processChanges(batch);
        all.insert(all.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(snapshot(par.conflictSet()), snapshot(serial.conflictSet()));
    // The naive matcher re-matches all of working memory per call, so
    // it sees the whole stream once.
    treat::NaiveMatcher naive(program);
    naive.processChanges(all);
    EXPECT_EQ(snapshot(par.conflictSet()), snapshot(naive.conflictSet()));

    std::vector<std::size_t> lanes = spansPerLane(rec);
    EXPECT_GT(std::accumulate(lanes.begin() + 1, lanes.end(),
                              std::size_t{0}),
              0u)
        << "no worker ran a task";
#if PSM_TELEMETRY
    EXPECT_LT(reg->total(telemetry::Counter::InlineBatches),
              static_cast<std::uint64_t>(kBatches) / 2);
#else
    (void)reg;
#endif
}

TEST(ParallelMatcherTest, NameIsReteParallel)
{
    auto program = ops5::parse("(p p1 (a ^x 1) --> (halt))");
    core::ParallelOptions opt;
    core::ParallelReteMatcher zero(program, opt);
    EXPECT_EQ(zero.name(), "rete-parallel");
    opt.n_workers = 1;
    core::ParallelReteMatcher one(program, opt);
    EXPECT_EQ(one.name(), "rete-parallel");
}

} // namespace
