/**
 * @file
 * Backoff for threads that poll: a bounded spin, then yields.
 *
 * Header-only and free of other project includes, so the lock word in
 * rete/sync.hpp can share it with the task queues.
 */

#ifndef PSM_CORE_BACKOFF_HPP
#define PSM_CORE_BACKOFF_HPP

#include <cstdint>
#include <thread>

namespace psm::core {

/**
 * Adaptive idle step for workers that found no task: a bounded spin
 * (cpu-relax), then bounded yields, then the caller should park on a
 * condition variable. Keeping the spin bounded is what lets the
 * matchers replace their old unbounded spin-yield loops — on an
 * oversubscribed host an unbounded yield loop burns a full scheduler
 * quantum per idle worker per batch.
 */
class IdleBackoff
{
  public:
    static constexpr std::uint32_t kSpins = 64;
    static constexpr std::uint32_t kYields = 16;

    /** True once spin and yield budgets are exhausted: park now. */
    bool exhausted() const { return misses_ >= kSpins + kYields; }

    /** Misses since the last reset (SpinsBeforePark histogram). */
    std::uint32_t misses() const { return misses_; }

    void reset() { misses_ = 0; }

    /** One failed poll: spin politely or yield, per budget. */
    void
    step()
    {
        if (misses_ < kSpins)
            cpuRelax();
        else
            std::this_thread::yield();
        ++misses_;
    }

  private:
    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#else
        std::this_thread::yield();
#endif
    }

    std::uint32_t misses_ = 0;
};

} // namespace psm::core

#endif // PSM_CORE_BACKOFF_HPP
