/**
 * @file
 * Task queues for fine-grain node activations.
 *
 * The paper argues that serial enqueue/dequeue of hundreds of
 * 50-100-instruction tasks becomes the bottleneck unless a hardware
 * task scheduler (one bus cycle per dispatch) is used, and mentions
 * software task queues as the alternative under investigation. The
 * serial-queue side of that comparison lives in the simulator
 * (sim::SchedulerModel); real threads use one scheduler,
 * LockFreeTaskPool: per-worker Chase–Lev deques (see
 * lockfree_deque.hpp) with randomized stealing — the closest software
 * approximation of the paper's non-serialising hardware dispatcher:
 * an uncontended dispatch is a few plain memory operations plus one
 * fence, no lock.
 *
 * The lock-free pool picks victims in xorshift-randomized order so
 * concurrent thieves spread over victims instead of herding onto the
 * same lane (a deterministic ring scan makes every idle worker probe
 * worker+1 first, serialising them on one victim's top CAS).
 *
 * The pool is a template over the task type so the hot path stays
 * free of virtual dispatch and std::function allocation.
 */

#ifndef PSM_CORE_TASK_QUEUE_HPP
#define PSM_CORE_TASK_QUEUE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/backoff.hpp"
#include "core/lockfree_deque.hpp"
#include "core/telemetry.hpp"

namespace psm::core {

/** Which scheduler structure a parallel matcher uses: LockFree is the
 *  only one (see ParallelOptions::scheduler). */
enum class SchedulerKind : std::uint8_t {
    LockFree, ///< per-worker Chase–Lev deques with work stealing
};

namespace detail {

/**
 * Per-thread xorshift64* step, used to randomize victim order in the
 * lock-free pool. Thread-local (not per-lane) state: two threads may
 * legally share a lane index (worker % lanes), so per-lane state
 * would be a data race. Seeded per thread from a global counter via
 * a splitmix64-style mix.
 */
inline std::uint64_t
stealRand()
{
    static std::atomic<std::uint64_t> seeds{0x9e3779b97f4a7c15ull};
    thread_local std::uint64_t state = [] {
        std::uint64_t z =
            seeds.fetch_add(0x9e3779b97f4a7c15ull,
                            std::memory_order_relaxed);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return (z ^ (z >> 31)) | 1; // never zero
    }();
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
}

} // namespace detail

/**
 * Per-worker Chase–Lev deques with randomized stealing: the parallel
 * matcher's task scheduler.
 *
 * Ownership contract: lane w may be push()ed and take()n ONLY by the
 * thread that owns worker index w — the Chase–Lev owner side is
 * single-threaded. Thieves may steal from any lane. The matchers
 * satisfy this by construction: worker w only ever pushes with its
 * own index.
 *
 * Tasks whose type is small and trivially copyable (e.g. int in the
 * dispatch bench) are stored inline in the atomic slots; all
 * other task types are heap-boxed and the pointer is what travels
 * through the deque. The destructor drains and frees leftovers.
 */
template <typename Task>
class LockFreeTaskPool
{
    // Two-stage trait: std::atomic<Task> may not be instantiated at
    // all for non-trivially-copyable Task, so the lock-free check
    // must be short-circuited behind the copyability check.
    template <typename T, bool = std::is_trivially_copyable_v<T>>
    struct SlotEligible : std::false_type
    {};
    template <typename T>
    struct SlotEligible<T, true>
        : std::bool_constant<std::atomic<T>::is_always_lock_free>
    {};

    static constexpr bool kInline = SlotEligible<Task>::value;
    using Slot = std::conditional_t<kInline, Task, Task *>;

  public:
    explicit LockFreeTaskPool(std::size_t n_workers)
    {
        std::size_t n = n_workers ? n_workers : 1;
        lanes_.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            lanes_.push_back(std::make_unique<Lane>());
    }

    ~LockFreeTaskPool()
    {
        for (auto &lane : lanes_) {
            Slot s{};
            while (lane->deque.take(s) == PopResult::Item)
                if constexpr (!kInline)
                    delete s;
        }
    }

    LockFreeTaskPool(const LockFreeTaskPool &) = delete;
    LockFreeTaskPool &operator=(const LockFreeTaskPool &) = delete;

    std::size_t lanes() const { return lanes_.size(); }

    /**
     * Attaches a telemetry registry (nullptr detaches). Shard index
     * == the worker argument of push/tryPop. Safe while idle thieves
     * poll the pool (the parallel matcher's workers do so before the
     * first batch); the registry must be fully built before the call.
     */
    void
    attachTelemetry(telemetry::Registry *reg)
    {
        tel_.store(reg, std::memory_order_release);
    }

    /** Owner-only on lane (worker % lanes()): see class comment. */
    void
    push(Task task, std::size_t worker)
    {
        Lane &lane = *lanes_[worker % lanes_.size()];
        if constexpr (kInline)
            lane.deque.push(std::move(task));
        else
            lane.deque.push(new Task(std::move(task)));
        if (telemetry::Registry *tel =
                tel_.load(std::memory_order_acquire)) {
            tel->count(worker, telemetry::Counter::QueuePushes);
            tel->observe(worker, telemetry::Histogram::QueueDepth,
                         lane.deque.sizeApprox());
        }
    }

    /**
     * Owner take from the caller's lane (LIFO), else steal from the
     * other lanes in xorshift-randomized order (FIFO per victim).
     */
    std::optional<Task>
    tryPop(std::size_t worker)
    {
        telemetry::Registry *tel = tel_.load(std::memory_order_acquire);
        std::size_t n = lanes_.size();
        std::size_t self = worker % n;
        Slot s{};
        PopResult r = lanes_[self]->deque.take(s);
        if (r == PopResult::Item) {
            if (tel)
                tel->count(worker, telemetry::Counter::QueuePops);
            return unbox(s);
        }
        if (r == PopResult::Race && tel) // lost our last task to a thief
            tel->count(worker, telemetry::Counter::StealRaces);
        if (n <= 1)
            return std::nullopt;
        if (tel)
            tel->count(worker, telemetry::Counter::StealAttempts);
        std::size_t start = n > 2 ? detail::stealRand() % (n - 1) : 0;
        for (std::size_t i = 0; i < n - 1; ++i) {
            Lane &victim = *lanes_[(self + 1 + (start + i) % (n - 1)) % n];
            for (;;) {
                PopResult sr = victim.deque.steal(s);
                if (sr == PopResult::Item) {
                    if (tel) {
                        tel->count(worker, telemetry::Counter::Steals);
                        tel->count(worker, telemetry::Counter::QueuePops);
                    }
                    return unbox(s);
                }
                if (sr == PopResult::Empty)
                    break;
                // Race: someone else claimed that slot — the victim
                // may still hold more, so retry it (lock-free: every
                // race means another thread made progress).
                if (tel)
                    tel->count(worker, telemetry::Counter::StealRaces);
            }
        }
        if (tel)
            tel->count(worker, telemetry::Counter::StealFailures);
        return std::nullopt;
    }

  private:
    static Task
    unbox(Slot s)
    {
        if constexpr (kInline) {
            return s;
        } else {
            Task t = std::move(*s);
            delete s;
            return t;
        }
    }

    /** Padded so thieves scanning a victim's top never false-share
     *  with the neighbouring owner's bottom. */
    struct alignas(64) Lane
    {
        ChaseLevDeque<Slot> deque;
    };

    std::vector<std::unique_ptr<Lane>> lanes_;
    std::atomic<telemetry::Registry *> tel_{nullptr};
};

} // namespace psm::core

#endif // PSM_CORE_TASK_QUEUE_HPP
