/**
 * @file
 * Google-benchmark microbenches of the REAL matchers on host threads
 * (E9): serial Rete (shared and private networks), TREAT, naive, and
 * the fine-grain parallel matcher at several worker counts.
 *
 * Note: with tasks of 50-100 "instructions" the software scheduling
 * overhead on a stock CPU dominates unless many cores are available
 * — measured here deliberately, because it is exactly the effect
 * that motivates the paper's hardware task scheduler. The
 * BM_ParallelRete* rows run the default wake floor, so the daa
 * batches run inline on the submitter; the BM_FineGrain* rows set the
 * floor to 0 and keep measuring the fine-grain worker path on the
 * same batches. The BM_GrowthSweep* rows fix the floor (E9). The
 * simulated PSM results live in the fig6_* binaries.
 */

#include <benchmark/benchmark.h>

#include <functional>

#include "core/parallel_matcher.hpp"
#include "gbench_json.hpp"
#include "core/production_parallel.hpp"
#include "core/telemetry.hpp"
#include "rete/matcher.hpp"
#include "treat/naive.hpp"
#include "treat/treat.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;

namespace {

/** Pre-generated batch schedule shared by all benchmarks. */
struct Workload
{
    std::shared_ptr<const ops5::Program> program;
    ops5::WorkingMemory wm;
    std::vector<std::vector<ops5::WmeChange>> batches;
    std::uint64_t total_changes = 0;

    explicit Workload(int n_batches)
    {
        auto preset = workloads::presetByName("daa");
        program = workloads::generateProgram(preset.config);
        workloads::ChangeStream stream(*program, wm, preset.config, 99);
        for (int b = 0; b < n_batches; ++b) {
            batches.push_back(
                stream.nextBatch(preset.changes_per_firing, 0.5));
            total_changes += batches.back().size();
        }
    }

    static const Workload &
    instance()
    {
        static Workload w(400);
        return w;
    }
};

/**
 * WM-growth schedule: 8k changes with only 4% removals, so memories
 * accumulate thousands of entries. Exercises the adaptive memory
 * indexes in their target regime (the calibrated paper presets churn
 * a small WM, where memories stay below the index threshold).
 */
struct GrowthWorkload
{
    std::shared_ptr<const ops5::Program> program;
    ops5::WorkingMemory wm;
    std::vector<std::vector<ops5::WmeChange>> batches;
    std::uint64_t total_changes = 0;

    explicit GrowthWorkload(int n_batches)
    {
        auto preset = workloads::growthPreset();
        program = workloads::generateProgram(preset.config);
        workloads::ChangeStream stream(*program, wm, preset.config, 99);
        for (int b = 0; b < n_batches; ++b) {
            batches.push_back(
                stream.nextBatch(preset.changes_per_firing, 0.04));
            total_changes += batches.back().size();
        }
    }

    static const GrowthWorkload &
    instance()
    {
        static GrowthWorkload w(1000);
        return w;
    }
};

/**
 * Each timed iteration replays the whole batch schedule on a FRESH
 * matcher (match state is cumulative; replaying on a warm matcher
 * would corrupt it). Construction happens outside the timed region.
 */
void
replayBatches(benchmark::State &state,
              const std::vector<std::vector<ops5::WmeChange>> &batches,
              std::uint64_t total_changes,
              const std::function<std::unique_ptr<core::Matcher>()> &make)
{
    for (auto _ : state) {
        state.PauseTiming();
        std::unique_ptr<core::Matcher> matcher = make();
        state.ResumeTiming();
        for (const auto &batch : batches)
            matcher->processChanges(batch);
        benchmark::DoNotOptimize(matcher->conflictSet().size());
        state.PauseTiming();
        matcher.reset();
        state.ResumeTiming();
    }
    state.counters["wme_changes_per_sec"] = benchmark::Counter(
        static_cast<double>(total_changes * state.iterations()),
        benchmark::Counter::kIsRate);
}

void
runBatches(benchmark::State &state,
           const std::function<std::unique_ptr<core::Matcher>()> &make)
{
    const Workload &w = Workload::instance();
    replayBatches(state, w.batches, w.total_changes, make);
}

void
BM_SerialReteShared(benchmark::State &state)
{
    runBatches(state, [] {
        return std::make_unique<rete::ReteMatcher>(
            std::make_shared<rete::Network>(
                Workload::instance().program,
                rete::NetworkOptions::fullSharing()));
    });
}

void
BM_SerialRetePrivate(benchmark::State &state)
{
    runBatches(state, [] {
        return std::make_unique<rete::ReteMatcher>(
            std::make_shared<rete::Network>(
                Workload::instance().program,
                rete::NetworkOptions::privateState()));
    });
}

void
BM_SerialReteHashed(benchmark::State &state)
{
    runBatches(state, [] {
        return std::make_unique<rete::ReteMatcher>(
            std::make_shared<rete::Network>(
                Workload::instance().program),
            rete::CostModel{}, /*hash_joins=*/true);
    });
}

/**
 * The WM-growth schedule on the serial shared-network Rete. Before
 * indexed memories this ran ~70x slower (every join probe and every
 * token removal scanned linearly through multi-thousand-entry
 * memories); kept as the regression sentinel for the adaptive index
 * layer.
 */
void
BM_SerialReteSharedGrowth(benchmark::State &state)
{
    const GrowthWorkload &w = GrowthWorkload::instance();
    replayBatches(state, w.batches, w.total_changes, [] {
        return std::make_unique<rete::ReteMatcher>(
            std::make_shared<rete::Network>(
                GrowthWorkload::instance().program,
                rete::NetworkOptions::fullSharing()));
    });
}

void
BM_Treat(benchmark::State &state)
{
    runBatches(state, [] {
        return std::make_unique<treat::TreatMatcher>(
            Workload::instance().program);
    });
}

void
BM_ProductionParallel(benchmark::State &state)
{
    std::size_t workers = static_cast<std::size_t>(state.range(0));
    runBatches(state, [workers] {
        return std::make_unique<core::ProductionParallelMatcher>(
            Workload::instance().program, workers);
    });
}

/**
 * One row per SchedulerKind so the --json output lets CI (and the
 * EXPERIMENTS.md backend comparison) tell the dispatchers apart, and
 * so the TSan bench run exercises both task-pool backends.
 */
void
parallelReteBench(benchmark::State &state, core::SchedulerKind kind,
                  rete::CostModel cost = {})
{
    std::size_t workers = static_cast<std::size_t>(state.range(0));
    runBatches(state, [workers, kind, cost] {
        core::ParallelOptions opt;
        opt.n_workers = workers;
        opt.scheduler = kind;
        return std::make_unique<core::ParallelReteMatcher>(
            Workload::instance().program, opt, cost);
    });
}

/** Wake floor 0: every batch goes through the workers. */
const rete::CostModel kFineGrain{.worker_wake = 0};
/** Wake floor at its maximum: every batch runs inline. */
const rete::CostModel kAllInline{.worker_wake = UINT32_MAX};

void
BM_ParallelReteCentral(benchmark::State &state)
{
    parallelReteBench(state, core::SchedulerKind::Central);
}

void
BM_ParallelReteLockFree(benchmark::State &state)
{
    parallelReteBench(state, core::SchedulerKind::LockFree);
}

void
BM_FineGrainCentral(benchmark::State &state)
{
    parallelReteBench(state, core::SchedulerKind::Central, kFineGrain);
}

void
BM_FineGrainLockFree(benchmark::State &state)
{
    parallelReteBench(state, core::SchedulerKind::LockFree, kFineGrain);
}

/**
 * The batch-size sweep that fixes CostModel::worker_wake: the first
 * kSweepChanges changes of the growth schedule, cut into batches of
 * range(0) changes, through /3 LockFree either all inline or all on
 * the workers. An untimed telemetry replay adds batch_cost_p50, the
 * median modeled batch cost, so the crossover batch size reads as a
 * floor in the cost model's units, and the replay's park counts.
 */
constexpr std::size_t kSweepChanges = 4096;

void
growthSweep(benchmark::State &state, const rete::CostModel &cost)
{
    const GrowthWorkload &w = GrowthWorkload::instance();
    const std::size_t size = static_cast<std::size_t>(state.range(0));
    std::vector<std::vector<ops5::WmeChange>> batches(1);
    std::size_t taken = 0;
    for (const auto &batch : w.batches) {
        for (const ops5::WmeChange &change : batch) {
            if (taken == kSweepChanges)
                break;
            if (batches.back().size() == size)
                batches.emplace_back();
            batches.back().push_back(change);
            ++taken;
        }
    }
    auto make = [&w, &cost] {
        core::ParallelOptions opt;
        opt.n_workers = 3;
        return std::make_unique<core::ParallelReteMatcher>(w.program, opt,
                                                           cost);
    };
    replayBatches(state, batches, taken, make);

    auto probe = make();
    const telemetry::Registry *reg = probe->enableTelemetry();
    for (const auto &batch : batches)
        probe->processChanges(batch);
    state.counters["batch_cost_p50"] =
        reg->merged(telemetry::Histogram::BatchCostInstr).percentile(50);
    // Parks (between and within batches), and the mid-batch ones a
    // lost wake-up ended on the backstop.
    state.counters["worker_parks"] = static_cast<double>(
        reg->total(telemetry::Counter::WorkerParks));
    state.counters["park_timeouts"] = static_cast<double>(
        reg->total(telemetry::Counter::ParkTimeouts));
}

void
BM_GrowthSweepInline(benchmark::State &state)
{
    growthSweep(state, kAllInline);
}

void
BM_GrowthSweepFineGrain(benchmark::State &state)
{
    growthSweep(state, kFineGrain);
}

} // namespace

BENCHMARK(BM_SerialReteShared)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SerialRetePrivate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SerialReteHashed)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SerialReteSharedGrowth)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Treat)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProductionParallel)
    ->Arg(0)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelReteCentral)
    ->Arg(0)
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelReteLockFree)
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FineGrainCentral)
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FineGrainLockFree)
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GrowthSweepInline)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GrowthSweepFineGrain)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    return psm::bench::runGBenchWithJson("bench_real_parallel", argc,
                                         argv);
}
