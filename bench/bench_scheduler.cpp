/**
 * @file
 * Scheduler ablation (E9): the cost of dispatching fine-grain tasks
 * through software queues — the overhead the paper's hardware task
 * scheduler exists to remove.
 *
 * Microbenches: raw push/pop throughput of the central locked queue
 * vs the lock-free Chase-Lev pool, single-threaded and contended; a
 * threaded dispatch bench that runs one owner per lane at 1..8
 * threads (the software analogue of the paper's scheduler-port
 * count); plus the full parallel matcher under each scheduler.
 *
 * Row names deliberately contain "Central" or "LockFree" so
 * check_bench_json.py --require-rows can assert every backend was
 * measured.
 */

#include <benchmark/benchmark.h>

#include <thread>

#include "core/parallel_matcher.hpp"
#include "gbench_json.hpp"
#include "core/task_queue.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;

namespace {

void
BM_CentralQueuePushPop(benchmark::State &state)
{
    core::CentralTaskQueue<int> q;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.push(i);
        for (int i = 0; i < 64; ++i)
            benchmark::DoNotOptimize(q.tryPop());
    }
    state.counters["tasks_per_sec"] = benchmark::Counter(
        64.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_LockFreePoolPushPop(benchmark::State &state)
{
    core::LockFreeTaskPool<int> pool(4);
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            pool.push(i, 0);
        for (int i = 0; i < 64; ++i)
            benchmark::DoNotOptimize(pool.tryPop(0));
    }
    state.counters["tasks_per_sec"] = benchmark::Counter(
        64.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_CentralQueueContended(benchmark::State &state)
{
    // Two producer/consumer threads hammering one queue: the serial
    // dispatch section the paper warns about.
    core::CentralTaskQueue<int> q;
    std::atomic<bool> stop{false};
    std::thread other([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            q.push(1);
            benchmark::DoNotOptimize(q.tryPop());
        }
    });
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            q.push(i);
            benchmark::DoNotOptimize(q.tryPop());
        }
    }
    stop = true;
    other.join();
    state.counters["tasks_per_sec"] = benchmark::Counter(
        64.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_LockFreePoolContended(benchmark::State &state)
{
    // Same shape as the central-queue contended bench, but each
    // thread owns its own Chase-Lev lane (owner-only push contract).
    core::LockFreeTaskPool<int> pool(2);
    std::atomic<bool> stop{false};
    std::thread other([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            pool.push(1, 1);
            benchmark::DoNotOptimize(pool.tryPop(1));
        }
    });
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            pool.push(i, 0);
            benchmark::DoNotOptimize(pool.tryPop(0));
        }
    }
    stop = true;
    other.join();
    state.counters["tasks_per_sec"] = benchmark::Counter(
        64.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

/**
 * Dispatch overhead at N concurrent workers: every benchmark thread
 * owns one lane, pushes a burst of 64 tasks and then drains whatever
 * it can reach (own lane + steals) until the pool looks empty. This
 * is the software analogue of hammering the PSM scheduler ports: the
 * measured time is pure dispatch, no match work.
 *
 * The pools are function-local statics sized for the largest thread
 * count, so all ->Threads(N) variants share one instance and magic
 * statics give us the cross-thread construction barrier gbench lacks.
 */
constexpr std::size_t kDispatchLanes = 8;

/** Adapts CentralTaskQueue to the pool push/tryPop(worker) shape. */
struct CentralDispatchAdapter
{
    core::CentralTaskQueue<int> q;
    void push(int v, std::size_t) { q.push(v); }
    std::optional<int> tryPop(std::size_t) { return q.tryPop(); }
};

template <typename Pool>
void
dispatchThreaded(benchmark::State &state, Pool &pool)
{
    const auto me = static_cast<std::size_t>(state.thread_index());
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            pool.push(i, me);
        while (pool.tryPop(me).has_value()) {
        }
    }
    state.counters["tasks_per_sec"] = benchmark::Counter(
        64.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_DispatchCentral(benchmark::State &state)
{
    static CentralDispatchAdapter pool;
    dispatchThreaded(state, pool);
}

void
BM_DispatchLockFree(benchmark::State &state)
{
    static core::LockFreeTaskPool<int> pool(kDispatchLanes);
    dispatchThreaded(state, pool);
}

/** Full matcher under each scheduler kind. The wake floor is 0: these
 *  4-change batches would otherwise run inline and never reach the
 *  scheduler being compared. */
void
matcherBench(benchmark::State &state, core::SchedulerKind kind,
             std::size_t workers)
{
    auto preset = workloads::tinyPreset(8);
    auto program = workloads::generateProgram(preset.config);
    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 7);
    std::vector<std::vector<ops5::WmeChange>> batches;
    std::uint64_t changes = 0;
    for (int b = 0; b < 200; ++b) {
        batches.push_back(stream.nextBatch(4, 0.5));
        changes += batches.back().size();
    }

    for (auto _ : state) {
        state.PauseTiming();
        core::ParallelOptions opt;
        opt.n_workers = workers;
        opt.scheduler = kind;
        auto matcher = std::make_unique<core::ParallelReteMatcher>(
            program, opt, rete::CostModel{.worker_wake = 0});
        state.ResumeTiming();
        for (const auto &batch : batches)
            matcher->processChanges(batch);
        state.PauseTiming();
        matcher.reset();
        state.ResumeTiming();
    }
    state.counters["wme_changes_per_sec"] = benchmark::Counter(
        static_cast<double>(changes * state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_MatcherCentral(benchmark::State &state)
{
    matcherBench(state, core::SchedulerKind::Central,
                 static_cast<std::size_t>(state.range(0)));
}

void
BM_MatcherLockFree(benchmark::State &state)
{
    matcherBench(state, core::SchedulerKind::LockFree,
                 static_cast<std::size_t>(state.range(0)));
}

} // namespace

BENCHMARK(BM_CentralQueuePushPop);
BENCHMARK(BM_LockFreePoolPushPop);
BENCHMARK(BM_CentralQueueContended);
BENCHMARK(BM_LockFreePoolContended);
BENCHMARK(BM_DispatchCentral)->Threads(1)->Threads(2)->Threads(4)->Threads(8);
BENCHMARK(BM_DispatchLockFree)->Threads(1)->Threads(2)->Threads(4)->Threads(8);
BENCHMARK(BM_MatcherCentral)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MatcherLockFree)->Arg(2)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    return psm::bench::runGBenchWithJson("bench_scheduler", argc, argv);
}
