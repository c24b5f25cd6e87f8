/**
 * @file
 * Tests for the task pool behind the parallel matcher: single-thread
 * ordering semantics (LIFO own-lane / FIFO steal), steal coverage
 * under the randomized victim order, the Chase–Lev deque's growth and
 * race reporting, and multi-threaded stress with full accounting —
 * every pushed task is popped exactly once, no loss, no duplication
 * (run under TSan in CI).
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/lockfree_deque.hpp"
#include "core/task_queue.hpp"

namespace {

using psm::core::ChaseLevDeque;
using psm::core::LockFreeTaskPool;
using psm::core::PopResult;

/**
 * The victim order is xorshift-randomized (thieves must not herd onto
 * one lane), so no fixed order can be asserted — but a full scan must
 * still find every task in every other lane, in any order.
 */
TEST(LockFreeTaskPoolTest, StealsCoverAllVictims)
{
    LockFreeTaskPool<int> pool(4);
    pool.push(30, 3);
    pool.push(20, 2);
    pool.push(10, 0);
    // Worker 1's lane is empty; three pops must steal all three tasks.
    std::vector<int> got;
    for (int i = 0; i < 3; ++i) {
        auto t = pool.tryPop(1);
        ASSERT_TRUE(t.has_value());
        got.push_back(*t);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
    EXPECT_EQ(pool.tryPop(1), std::nullopt);
}

TEST(LockFreeTaskPoolTest, WorkerIndexWrapsAroundLaneCount)
{
    LockFreeTaskPool<int> pool(2);
    pool.push(5, 2); // 2 % 2 == lane 0
    EXPECT_EQ(pool.tryPop(0), 5);
    EXPECT_EQ(pool.tryPop(0), std::nullopt);
}

TEST(LockFreeTaskPoolTest, OwnLaneIsLifoThiefIsFifo)
{
    LockFreeTaskPool<int> pool(2);
    pool.push(1, 0);
    pool.push(2, 0);
    pool.push(3, 0);
    // Owner takes the newest (bottom) for locality; the thief steals
    // the oldest (top), so the two collide as little as possible.
    EXPECT_EQ(pool.tryPop(0), 3);
    EXPECT_EQ(pool.tryPop(1), 1);
    EXPECT_EQ(pool.tryPop(1), 2);
    EXPECT_EQ(pool.tryPop(1), std::nullopt);
    EXPECT_EQ(pool.tryPop(0), std::nullopt);
}

TEST(LockFreeTaskPoolTest, ZeroWorkersClampsToOneLane)
{
    LockFreeTaskPool<int> pool(0);
    pool.push(1, 0);
    pool.push(2, 0);
    EXPECT_EQ(pool.tryPop(0), 2);
    EXPECT_EQ(pool.tryPop(0), 1);
    EXPECT_EQ(pool.tryPop(0), std::nullopt);
}

TEST(LockFreeTaskPoolTest, BoxedTasksSurviveDestructorDrain)
{
    // Non-trivially-copyable tasks take the heap-boxed slot path; the
    // destructor must free undelivered ones (checked by ASan in CI).
    LockFreeTaskPool<std::vector<int>> pool(2);
    pool.push({1, 2, 3}, 0);
    pool.push({4, 5}, 0);
    auto t = pool.tryPop(1); // steals the oldest
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, (std::vector<int>{1, 2, 3}));
    // {4, 5} is deliberately left behind for the destructor.
}

TEST(ChaseLevDequeTest, TakeAndStealSemantics)
{
    ChaseLevDeque<int> dq(4);
    int out = 0;
    EXPECT_EQ(dq.take(out), PopResult::Empty);
    EXPECT_EQ(dq.steal(out), PopResult::Empty);
    dq.push(1);
    dq.push(2);
    dq.push(3);
    EXPECT_EQ(dq.steal(out), PopResult::Item); // oldest
    EXPECT_EQ(out, 1);
    EXPECT_EQ(dq.take(out), PopResult::Item); // newest
    EXPECT_EQ(out, 3);
    EXPECT_EQ(dq.take(out), PopResult::Item);
    EXPECT_EQ(out, 2);
    EXPECT_EQ(dq.take(out), PopResult::Empty);
    EXPECT_EQ(dq.steal(out), PopResult::Empty);
}

TEST(ChaseLevDequeTest, GrowthPreservesAllElements)
{
    // Push far past the initial capacity: the ring must double (with
    // the old rings retained for in-flight thieves) without losing or
    // reordering elements.
    ChaseLevDeque<int> dq(4);
    constexpr int kN = 10000;
    for (int i = 0; i < kN; ++i)
        dq.push(i);
    EXPECT_GE(dq.capacity(), static_cast<std::size_t>(kN));
    EXPECT_EQ(dq.sizeApprox(), static_cast<std::size_t>(kN));
    int out = 0;
    for (int i = kN - 1; i >= 0; --i) {
        ASSERT_EQ(dq.take(out), PopResult::Item);
        EXPECT_EQ(out, i);
    }
    EXPECT_EQ(dq.take(out), PopResult::Empty);
}

TEST(ChaseLevDequeTest, InterleavedGrowthAndSteals)
{
    // Steals advance top while pushes wrap the ring; exercises the
    // copy range of grow() with top > 0.
    ChaseLevDeque<int> dq(4);
    int next = 0, out = 0;
    std::vector<int> got;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 7; ++i)
            dq.push(next++);
        for (int i = 0; i < 3; ++i) {
            ASSERT_EQ(dq.steal(out), PopResult::Item);
            got.push_back(out);
        }
    }
    while (dq.take(out) == PopResult::Item)
        got.push_back(out);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got.size(), static_cast<std::size_t>(next));
    for (int i = 0; i < next; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

/**
 * Producer/consumer/thief stress honouring the Chase–Lev ownership
 * contract: each of n_owners
 * threads is the sole pusher/taker on its own lane (interleaving
 * pushes with pops), while n_thieves extra threads own empty lanes
 * and therefore only ever steal. Accounting is exact — every task out
 * exactly once — which also proves steal races never lose or
 * duplicate the contended element. Runs under TSan in CI.
 */
void
stressOwnersAndThieves(LockFreeTaskPool<int> &pool, std::size_t n_owners,
                       std::size_t n_thieves, std::size_t per_owner)
{
    const std::size_t total = n_owners * per_owner;
    std::atomic<std::size_t> popped{0};
    std::vector<std::atomic<std::uint32_t>> seen(total);

    auto record = [&](int v) {
        seen[static_cast<std::size_t>(v)].fetch_add(1);
        popped.fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> threads;
    threads.reserve(n_owners + n_thieves);
    for (std::size_t w = 0; w < n_owners; ++w) {
        threads.emplace_back([&, w] {
            for (std::size_t i = 0; i < per_owner; ++i) {
                pool.push(static_cast<int>(w * per_owner + i), w);
                // Interleave owner pops with pushes so owner-take
                // races thief-steal on a nearly-empty lane often.
                if (i % 3 == 0) {
                    if (std::optional<int> t = pool.tryPop(w))
                        record(*t);
                }
            }
            while (popped.load(std::memory_order_relaxed) < total) {
                if (std::optional<int> t = pool.tryPop(w))
                    record(*t);
                else
                    std::this_thread::yield();
            }
        });
    }
    for (std::size_t c = 0; c < n_thieves; ++c) {
        threads.emplace_back([&, c] {
            std::size_t me = n_owners + c; // owns an empty lane
            while (popped.load(std::memory_order_relaxed) < total) {
                if (std::optional<int> t = pool.tryPop(me))
                    record(*t);
                else
                    std::this_thread::yield();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(popped.load(), total);
    for (std::size_t v = 0; v < total; ++v)
        EXPECT_EQ(seen[v].load(), 1u) << "task " << v;
}

TEST(LockFreeTaskPoolTest, OwnersAndThievesStressExactlyOnce)
{
    LockFreeTaskPool<int> pool(5);
    stressOwnersAndThieves(pool, 3, 2, 2000);
}

TEST(LockFreeTaskPoolTest, ThiefOnlyStressExactlyOnce)
{
    // One producer lane, many thieves: maximum pressure on the
    // take/steal top-CAS race for the last element.
    LockFreeTaskPool<int> pool(5);
    stressOwnersAndThieves(pool, 1, 4, 6000);
}

TEST(LockFreeTaskPoolTest, StressWithTelemetryCountsConsistently)
{
    // Same stress with a registry attached: exercises the StealRaces/
    // Steals/QueuePushes accounting under contention and checks the
    // conservation laws that must hold whatever the interleaving.
    psm::telemetry::Registry reg(5);
    LockFreeTaskPool<int> pool(5);
    pool.attachTelemetry(&reg);
    stressOwnersAndThieves(pool, 3, 2, 1000);
#if PSM_TELEMETRY
    using psm::telemetry::Counter;
    EXPECT_EQ(reg.total(Counter::QueuePushes), 3000u);
    EXPECT_EQ(reg.total(Counter::QueuePops), 3000u);
    EXPECT_GE(reg.total(Counter::QueuePops),
              reg.total(Counter::Steals));
#endif
}

} // namespace
