/**
 * @file
 * Telemetry registry: counter/histogram/node accounting, the epoch
 * (affected-productions) facility, concurrent recording with cold
 * readers (exercised under TSan in CI), and the end-to-end wiring
 * through the serial and parallel matchers.
 */

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_matcher.hpp"
#include "core/telemetry.hpp"
#include "rete/matcher.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;
using telemetry::Counter;
using telemetry::Histogram;
using telemetry::HistogramData;
using telemetry::Registry;

// Every test below asserts that recording calls actually record;
// under -DPSM_TELEMETRY=OFF they compile to no-ops by design.
#if PSM_TELEMETRY
#define REQUIRE_TELEMETRY() (void)0
#else
#define REQUIRE_TELEMETRY() \
    GTEST_SKIP() << "PSM_TELEMETRY=OFF: recording compiled out"
#endif

TEST(Telemetry, CountersSumAcrossShards)
{
    REQUIRE_TELEMETRY();
    Registry reg(3);
    reg.count(0, Counter::TasksExecuted, 5);
    reg.count(1, Counter::TasksExecuted, 7);
    reg.count(2, Counter::TasksExecuted);
    reg.count(1, Counter::Steals, 2);
    EXPECT_EQ(reg.total(Counter::TasksExecuted), 13u);
    EXPECT_EQ(reg.total(Counter::Steals), 2u);
    EXPECT_EQ(reg.total(Counter::QueuePushes), 0u);
}

TEST(Telemetry, HistogramBucketing)
{
    REQUIRE_TELEMETRY();
    // Buckets: [0], [1], [2,3], [4,7], ...
    EXPECT_EQ(HistogramData::bucketOf(0), 0u);
    EXPECT_EQ(HistogramData::bucketOf(1), 1u);
    EXPECT_EQ(HistogramData::bucketOf(2), 2u);
    EXPECT_EQ(HistogramData::bucketOf(3), 2u);
    EXPECT_EQ(HistogramData::bucketOf(4), 3u);
    EXPECT_EQ(HistogramData::bucketOf(7), 3u);
    EXPECT_EQ(HistogramData::bucketOf(8), 4u);
    for (std::size_t b = 0; b < telemetry::kHistogramBuckets; ++b) {
        std::uint64_t lo = HistogramData::bucketFloor(b);
        EXPECT_EQ(HistogramData::bucketOf(lo), b);
        if (b + 1 < telemetry::kHistogramBuckets) {
            EXPECT_EQ(HistogramData::bucketOf(
                          HistogramData::bucketFloor(b + 1) - 1),
                      b);
        }
    }

    Registry reg(2);
    reg.observe(0, Histogram::TaskCostInstr, 0);
    reg.observe(0, Histogram::TaskCostInstr, 3);
    reg.observe(1, Histogram::TaskCostInstr, 100);
    HistogramData h = reg.merged(Histogram::TaskCostInstr);
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.sum, 103u);
    EXPECT_EQ(h.max, 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 103.0 / 3.0);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[2], 1u);
    EXPECT_EQ(h.buckets[HistogramData::bucketOf(100)], 1u);
}

TEST(Telemetry, PercentilesFromBuckets)
{
    REQUIRE_TELEMETRY();

    // Empty histogram: every percentile is zero.
    Registry empty(1);
    EXPECT_DOUBLE_EQ(
        empty.merged(Histogram::TaskCostInstr).percentile(50), 0.0);

    // A single observation: every percentile is that value (the
    // linear interpolation within its bucket clamps to max).
    Registry one(1);
    one.observe(0, Histogram::TaskCostInstr, 100);
    HistogramData h1 = one.merged(Histogram::TaskCostInstr);
    EXPECT_DOUBLE_EQ(h1.percentile(0), 100.0);
    EXPECT_DOUBLE_EQ(h1.percentile(50), 100.0);
    EXPECT_DOUBLE_EQ(h1.percentile(100), 100.0);

    // Uniform 1..100: the estimate must land inside the true value's
    // power-of-two bucket and never exceed max.
    Registry uni(2);
    for (std::uint64_t v = 1; v <= 100; ++v)
        uni.observe(v % 2, Histogram::TaskCostInstr, v);
    HistogramData hu = uni.merged(Histogram::TaskCostInstr);
    double p50 = hu.percentile(50);
    double p95 = hu.percentile(95);
    double p99 = hu.percentile(99);
    EXPECT_GE(p50, 32.0) << "true p50 = 50 lives in [32,64)";
    EXPECT_LE(p50, 64.0);
    EXPECT_GE(p95, 64.0) << "true p95 = 95 lives in [64,100]";
    EXPECT_LE(p95, 100.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, static_cast<double>(hu.max));

    // Identical observations: the estimate stays inside the bucket
    // and below the recorded max.
    Registry same(1);
    for (int i = 0; i < 5; ++i)
        same.observe(0, Histogram::TaskCostInstr, 7);
    HistogramData hs = same.merged(Histogram::TaskCostInstr);
    EXPECT_GE(hs.percentile(50), 4.0);
    EXPECT_LE(hs.percentile(50), 7.0);
    EXPECT_LE(hs.percentile(99), 7.0);
}

TEST(Telemetry, PercentileEdgeCases)
{
    REQUIRE_TELEMETRY();

    // All mass in bucket 0 (observed zeros): every percentile must be
    // 0 — the in-bucket interpolation toward the [0,1) ceiling has to
    // clamp against max = 0.
    Registry zeros(1);
    for (int i = 0; i < 10; ++i)
        zeros.observe(0, Histogram::TaskCostInstr, 0);
    HistogramData hz = zeros.merged(Histogram::TaskCostInstr);
    EXPECT_EQ(hz.count, 10u);
    EXPECT_DOUBLE_EQ(hz.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(hz.percentile(100), 0.0);

    // Values past the last bucket boundary collapse into the top
    // bucket, whose upper edge is the recorded max: estimates stay in
    // [bucket floor, max] and p100 is exactly max.
    Registry top(1);
    const std::uint64_t huge = std::uint64_t{1} << 40;
    top.observe(0, Histogram::TaskCostInstr, huge);
    top.observe(0, Histogram::TaskCostInstr, huge + 5);
    HistogramData ht = top.merged(Histogram::TaskCostInstr);
    EXPECT_EQ(ht.max, huge + 5);
    EXPECT_GE(ht.percentile(50),
              static_cast<double>(HistogramData::bucketFloor(
                  telemetry::kHistogramBuckets - 1)));
    EXPECT_LE(ht.percentile(50), static_cast<double>(ht.max));
    EXPECT_DOUBLE_EQ(ht.percentile(100),
                     static_cast<double>(ht.max));

    // Out-of-range p clamps instead of reading junk ranks.
    Registry r(1);
    r.observe(0, Histogram::TaskCostInstr, 8);
    HistogramData hr = r.merged(Histogram::TaskCostInstr);
    EXPECT_DOUBLE_EQ(hr.percentile(-5.0), hr.percentile(0.0));
    EXPECT_DOUBLE_EQ(hr.percentile(200.0), hr.percentile(100.0));

    // A bimodal split across distant buckets: p below the split reads
    // the low bucket, p above reads the high one (no smearing).
    Registry bi(1);
    for (int i = 0; i < 90; ++i)
        bi.observe(0, Histogram::TaskCostInstr, 1);
    for (int i = 0; i < 10; ++i)
        bi.observe(0, Histogram::TaskCostInstr, 1 << 16);
    HistogramData hb = bi.merged(Histogram::TaskCostInstr);
    EXPECT_LE(hb.percentile(50), 2.0);
    EXPECT_GE(hb.percentile(95), static_cast<double>(1 << 15));
}

TEST(Telemetry, WriteJsonEmitsPercentiles)
{
    REQUIRE_TELEMETRY();
    Registry reg(1);
    reg.observe(0, Histogram::TaskCostInstr, 10);
    reg.observe(0, Histogram::TaskCostInstr, 20);
    std::ostringstream os;
    reg.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"p50\": "), std::string::npos);
    EXPECT_NE(json.find("\"p95\": "), std::string::npos);
    EXPECT_NE(json.find("\"p99\": "), std::string::npos);
}

TEST(Telemetry, NodeAndProductionTotals)
{
    REQUIRE_TELEMETRY();
    Registry reg(2);
    // Nodes 0,1 -> production 0; node 2 -> production 1; node 3 shared.
    reg.configureNodes(4, {0, 0, 1, -1}, 2);
    reg.nodeActivation(0, 0, 10);
    reg.nodeActivation(1, 0, 10);
    reg.nodeActivation(0, 1, 5);
    reg.nodeActivation(1, 2, 3);
    reg.nodeActivation(0, 3, 7);

    EXPECT_EQ(reg.nodeTotals(0).activations, 2u);
    EXPECT_EQ(reg.nodeTotals(0).cost, 20u);
    EXPECT_EQ(reg.nodeTotals(3).cost, 7u);

    auto per_prod = reg.perProductionTotals();
    ASSERT_EQ(per_prod.size(), 2u);
    EXPECT_EQ(per_prod[0].activations, 3u);
    EXPECT_EQ(per_prod[0].cost, 25u);
    EXPECT_EQ(per_prod[1].activations, 1u);
    EXPECT_EQ(per_prod[1].cost, 3u);
}

TEST(Telemetry, EpochsCountDistinctAffectedProductions)
{
    REQUIRE_TELEMETRY();
    Registry reg(1);
    reg.configureNodes(4, {0, 0, 1, -1}, 2);

    reg.beginEpoch();
    reg.nodeActivation(0, 0, 1);
    reg.nodeActivation(0, 1, 1); // same production: counts once
    reg.endEpoch();
    EXPECT_EQ(reg.epochs(), 1u);
    EXPECT_EQ(reg.total(Counter::AffectedProductionChanges), 1u);

    reg.beginEpoch();
    reg.nodeActivation(0, 2, 1); // production 1
    reg.nodeActivation(0, 3, 1); // shared node: no epoch mark
    reg.endEpoch();
    EXPECT_EQ(reg.epochs(), 2u);
    EXPECT_EQ(reg.total(Counter::AffectedProductionChanges), 2u);

    // An empty epoch affects nothing.
    reg.beginEpoch();
    reg.endEpoch();
    EXPECT_EQ(reg.epochs(), 3u);
    EXPECT_EQ(reg.total(Counter::AffectedProductionChanges), 2u);
}

TEST(Telemetry, ResetClearsEverything)
{
    REQUIRE_TELEMETRY();
    Registry reg(2);
    reg.configureNodes(2, {0, 1}, 2);
    reg.count(0, Counter::TasksExecuted, 3);
    reg.observe(1, Histogram::QueueDepth, 9);
    reg.beginEpoch();
    reg.nodeActivation(0, 0, 4);
    reg.endEpoch();

    reg.reset();
    EXPECT_EQ(reg.total(Counter::TasksExecuted), 0u);
    EXPECT_EQ(reg.total(Counter::AffectedProductionChanges), 0u);
    EXPECT_EQ(reg.merged(Histogram::QueueDepth).count, 0u);
    EXPECT_EQ(reg.nodeTotals(0).activations, 0u);
    EXPECT_EQ(reg.epochs(), 0u);
}

/**
 * Writers hammer their own shards while a reader aggregates
 * concurrently — the exact pattern the matchers use (workers record,
 * reporters read at any time). Run under TSan this proves the
 * recording paths are race-free; the final totals must be exact.
 */
TEST(Telemetry, ConcurrentRecordingWithColdReaderIsExact)
{
    REQUIRE_TELEMETRY();
    constexpr std::size_t kShards = 4;
    constexpr std::uint64_t kIters = 20000;

    Registry reg(kShards);
    reg.configureNodes(3, {0, 1, -1}, 2);

    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    for (std::size_t s = 0; s < kShards; ++s) {
        writers.emplace_back([&reg, &go, s] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (std::uint64_t i = 0; i < kIters; ++i) {
                reg.count(s, Counter::TasksExecuted);
                reg.observe(s, Histogram::TaskCostInstr, i & 1023);
                reg.nodeActivation(s, static_cast<int>(i % 3), 2);
            }
        });
    }

    go.store(true, std::memory_order_release);
    // Concurrent cold reads: values are best-effort snapshots, but
    // must never exceed the final totals and must never tear/crash.
    for (int i = 0; i < 200; ++i) {
        EXPECT_LE(reg.total(Counter::TasksExecuted), kShards * kIters);
        HistogramData h = reg.merged(Histogram::TaskCostInstr);
        EXPECT_LE(h.count, kShards * kIters);
        EXPECT_LE(h.max, 1023u);
        (void)reg.nodeTotals(0);
        (void)reg.perProductionTotals();
    }
    for (std::thread &t : writers)
        t.join();

    EXPECT_EQ(reg.total(Counter::TasksExecuted), kShards * kIters);
    HistogramData h = reg.merged(Histogram::TaskCostInstr);
    EXPECT_EQ(h.count, kShards * kIters);
    std::uint64_t expect_sum = 0;
    for (std::uint64_t i = 0; i < kIters; ++i)
        expect_sum += i & 1023;
    EXPECT_EQ(h.sum, kShards * expect_sum);

    std::uint64_t acts = 0;
    for (int n = 0; n < 3; ++n)
        acts += reg.nodeTotals(n).activations;
    EXPECT_EQ(acts, kShards * kIters);
}

TEST(Telemetry, WriteJsonEmitsCountersAndExtras)
{
    REQUIRE_TELEMETRY();
    Registry reg(1);
    reg.configureNodes(1, {0}, 1);
    reg.count(0, Counter::TasksExecuted, 2);
    std::ostringstream os;
    reg.writeJson(os, "\"extra\": 42");
    std::string s = os.str();
    EXPECT_NE(s.find("\"tasks_executed\": 2"), std::string::npos);
    EXPECT_NE(s.find("\"extra\": 42"), std::string::npos);
    EXPECT_EQ(s.front(), '{');
}

TEST(Telemetry, SerialMatcherEpochsPerChange)
{
    REQUIRE_TELEMETRY();
    auto preset = workloads::tinyPreset(11);
    auto program = workloads::generateProgram(preset.config);
    rete::ReteMatcher m(std::make_shared<rete::Network>(program));
    telemetry::Registry *reg = m.enableTelemetry();
    ASSERT_NE(reg, nullptr);

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 5);
    std::uint64_t changes = 0;
    const int kBatches = 12;
    for (int b = 0; b < kBatches; ++b) {
        auto batch = stream.nextBatch(4, 0.5);
        changes += batch.size();
        m.processChanges(batch);
    }

    // The serial matcher brackets every WM change with an epoch:
    // Section 5's affected-productions-per-change, measured exactly.
    EXPECT_EQ(reg->epochs(), changes);
    EXPECT_EQ(reg->total(Counter::ChangesProcessed), changes);
    EXPECT_EQ(reg->total(Counter::Batches),
              static_cast<std::uint64_t>(kBatches));
    // A task is one memory arrival; an activation is every node it
    // reaches, charged to that node. Only the root dispatch has none.
    EXPECT_EQ(reg->total(Counter::TasksSpawned),
              reg->total(Counter::TasksExecuted));
    std::uint64_t node_activations = 0, node_cost = 0;
    for (std::size_t n = 0; n < reg->nodeCount(); ++n) {
        telemetry::NodeTotals nt = reg->nodeTotals(static_cast<int>(n));
        node_activations += nt.activations;
        node_cost += nt.cost;
    }
    EXPECT_EQ(node_activations + changes, m.stats().activations);
    EXPECT_EQ(node_cost + changes * rete::CostModel{}.root_dispatch,
              m.stats().instructions);
}

TEST(Telemetry, ParallelMatcherAccountsTasksAndEpochs)
{
    REQUIRE_TELEMETRY();
    auto preset = workloads::tinyPreset(11);
    auto program = workloads::generateProgram(preset.config);
    core::ParallelOptions opt;
    opt.n_workers = 2;
    // The same accounting on both paths: small batches inline on the
    // submitter (default floor), and every batch through the workers
    // (floor 0).
    for (std::uint32_t wake : {rete::CostModel{}.worker_wake, 0u}) {
        SCOPED_TRACE(wake);
        core::ParallelReteMatcher m(program, opt,
                                    rete::CostModel{.worker_wake = wake});
        telemetry::Registry *reg = m.enableTelemetry();
        ASSERT_NE(reg, nullptr);
        ASSERT_EQ(reg->shards(), 3u); // submitter + 2 workers

        ops5::WorkingMemory wm;
        workloads::ChangeStream stream(*program, wm, preset.config, 5);
        std::uint64_t changes = 0;
        const int kBatches = 12;
        for (int b = 0; b < kBatches; ++b) {
            auto batch = stream.nextBatch(4, 0.5);
            changes += batch.size();
            m.processChanges(batch);
        }

        // Parallel epochs are per batch (documented approximation).
        EXPECT_EQ(reg->epochs(), static_cast<std::uint64_t>(kBatches));
        EXPECT_EQ(reg->total(Counter::ChangesProcessed), changes);
        EXPECT_GT(reg->total(Counter::AffectedProductionChanges), 0u);
        // Every spawned task drains before the batch returns.
        EXPECT_EQ(reg->total(Counter::TasksSpawned),
                  reg->total(Counter::TasksExecuted));
        // stats().activations additionally counts the per-change root
        // dispatches and constant-test walks, which are not tasks.
        EXPECT_LE(reg->total(Counter::TasksExecuted),
                  m.stats().activations);
        EXPECT_GT(reg->total(Counter::TasksExecuted), 0u);
        EXPECT_EQ(reg->total(Counter::InlineBatches),
                  wake == 0 ? 0u : static_cast<std::uint64_t>(kBatches));
        // A backstop wake-up is one kind of mid-batch park.
        EXPECT_LE(reg->total(Counter::ParkTimeouts),
                  reg->total(Counter::WorkerParks));
    }
}

TEST(Telemetry, ParallelWorkersParkBetweenBatches)
{
    REQUIRE_TELEMETRY();
    // Idle workers park on the batch generation between batches. A
    // park is counted when the worker wakes, so a run's final park is
    // never counted; the sleeps give every worker time to park before
    // the next batch wakes it.
    auto preset = workloads::tinyPreset(13);
    auto program = workloads::generateProgram(preset.config);
    core::ParallelOptions opt;
    opt.n_workers = 3;
    // Floor 0: these batches are small enough to run inline, which
    // never wakes a worker.
    core::ParallelReteMatcher m(program, opt,
                                rete::CostModel{.worker_wake = 0});
    telemetry::Registry *reg = m.enableTelemetry();
    ASSERT_NE(reg, nullptr);

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 9);
    for (int b = 0; b < 6; ++b) {
        m.processChanges(stream.nextBatch(16, 0.3));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    EXPECT_GT(reg->total(Counter::WorkerParks), 0u);
    EXPECT_EQ(reg->total(Counter::TasksExecuted),
              reg->total(Counter::TasksSpawned));
}
