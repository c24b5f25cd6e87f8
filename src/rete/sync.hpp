/**
 * @file
 * Synchronisation primitives for fine-grain parallel match.
 *
 * The paper's hardware task scheduler guarantees that "multiple node
 * activations assigned to be processed in parallel cannot interfere
 * with each other". In software we enforce the same invariant with a
 * directional lock per two-input node: activations arriving on the
 * SAME side may run concurrently (each reads the opposite, quiescent
 * memory), while activations on OPPOSITE sides exclude each other —
 * otherwise an insert on each side could both miss (or both produce)
 * the joint pair.
 *
 * The lock is annotated as a Clang thread-safety capability (see
 * core/annotations.hpp). Both sides map to a SHARED acquisition —
 * the analysis cannot express "two flavours of shared that exclude
 * each other", so the side-vs-side exclusion itself is checked
 * dynamically instead, by the lock here and redundantly by
 * core::DebugAccessChecker in debug runs.
 */

#ifndef PSM_RETE_SYNC_HPP
#define PSM_RETE_SYNC_HPP

#include <atomic>
#include <cstdint>

#include "core/annotations.hpp"
#include "core/backoff.hpp"

namespace psm::rete {

/** Which input of a two-input node an activation arrives on. */
enum class Side : std::uint8_t { Left, Right };

/**
 * Reader-writer-style lock keyed by side instead of read/write:
 * any number of same-side holders, never both sides at once.
 *
 * One atomic word holds both counts, left in the low half and right
 * in the high half. A side joins by CAS while the opposite count is
 * zero; an uncontended acquire or release is one atomic RMW, which
 * matters because a composite activation takes one side of every
 * successor of a shared memory. A waiter spins politely and
 * then yields (core::IdleBackoff); with task granularity of 50-100
 * instructions, hold times are too short to park. There is no
 * fairness: a side waits only while the other side is active.
 */
class PSM_CAPABILITY("directional_lock") DirectionalLock
{
  public:
    /** One attempt: joins @p side unless the opposite side is held
     *  (a CAS lost to same-side traffic retries). */
    bool
    tryAcquire(Side side)
        PSM_THREAD_ANNOTATION(try_acquire_shared_capability(true))
    {
        const std::uint64_t theirs = side == Side::Left ? ~kLow : kLow;
        std::uint64_t word = word_.load(std::memory_order_relaxed);
        while ((word & theirs) == 0)
            if (word_.compare_exchange_weak(word, word + unit(side),
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed))
                return true;
        return false;
    }

    void
    acquire(Side side) PSM_ACQUIRE_SHARED()
    {
        core::IdleBackoff backoff;
        while (!tryAcquire(side))
            backoff.step();
    }

    void
    release(Side side) PSM_RELEASE_SHARED()
    {
        word_.fetch_sub(unit(side), std::memory_order_release);
    }

    /** Current holders on @p side (a racy snapshot, for tests). */
    std::uint32_t
    holders(Side side) const
    {
        std::uint64_t word = word_.load(std::memory_order_relaxed);
        return static_cast<std::uint32_t>(
            side == Side::Left ? word & kLow : word >> 32);
    }

  private:
    /** The left count's bits; the right count is the high half. */
    static constexpr std::uint64_t kLow = 0xffffffffu;

    /** One holder on @p side. */
    static constexpr std::uint64_t
    unit(Side side)
    {
        return side == Side::Left ? 1 : kLow + 1;
    }

    std::atomic<std::uint64_t> word_{0};
};

/** RAII holder for a DirectionalLock. */
class PSM_SCOPED_CAPABILITY DirectionalGuard
{
  public:
    DirectionalGuard(DirectionalLock &lock, Side side)
        PSM_ACQUIRE_SHARED(lock)
        : lock_(lock), side_(side)
    {
        lock_.acquire(side_);
    }

    ~DirectionalGuard() PSM_RELEASE_GENERIC() { lock_.release(side_); }

    DirectionalGuard(const DirectionalGuard &) = delete;
    DirectionalGuard &operator=(const DirectionalGuard &) = delete;

  private:
    DirectionalLock &lock_;
    Side side_;
};

} // namespace psm::rete

#endif // PSM_RETE_SYNC_HPP
