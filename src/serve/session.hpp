/**
 * @file
 * One serving session: an Engine + matcher pair with a bounded
 * request queue, owned and driven by the SessionPool.
 *
 * Sessions are the unit of *inter*-session parallelism — the axis the
 * paper leaves on the table after capping intra-task speed-up at
 * ~10-fold (Section 4): many independent production-system instances
 * share one machine, each consuming its own stream of external WM
 * changes. A session's engine state is only ever touched by one
 * server thread at a time (the pool's ready-list guarantees it), so
 * the engine itself needs no locking; the queue has its own mutex.
 */

#ifndef PSM_SERVE_SESSION_HPP
#define PSM_SERVE_SESSION_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "core/engine.hpp"
#include "core/matcher.hpp"
#include "durable/manager.hpp"
#include "serve/request.hpp"

namespace psm::serve {

/** Which matcher a session runs: a serial kind, or the fine-grain
 *  parallel matcher. */
struct MatcherSpec
{
    enum class Kind : std::uint8_t {
        Rete,      ///< serial Rete (default: cheapest per session)
        Treat,     ///< TREAT
        Naive,     ///< non-state-saving
        FullState, ///< full-state saving
        Parallel,  ///< fine-grain parallel Rete (owns worker threads)
    };

    Kind kind = Kind::Rete;

    /** Parallel only: worker threads *per session* — n_sessions
     *  sessions spawn n_sessions × workers threads in total. */
    std::size_t workers = 0;
};

/** Instantiates the matcher a spec describes. */
std::unique_ptr<core::Matcher>
makeMatcher(std::shared_ptr<const ops5::Program> program,
            const MatcherSpec &spec);

/** Parses "rete|treat|naive|fullstate|parallel"; false on junk. */
bool parseMatcherKind(const std::string &text, MatcherSpec::Kind &out);

const char *matcherKindName(MatcherSpec::Kind kind);

/**
 * One session: engine + matcher + bounded FIFO of admitted requests.
 *
 * Thread roles: any client thread may touch `queue` (under `mu`);
 * only the single server thread currently draining the session may
 * touch the engine and the matcher.
 */
class Session
{
  public:
    /**
     * @param durability when enabled, the session becomes durable:
     *        an existing state directory is recovered from if
     *        @p restore is set (warm start / migration), the WAL
     *        observer is attached, and initial working memory is
     *        loaded only when nothing was recovered. The directory
     *        must be per-session (the pool derives
     *        `<pool dir>/session-<id>`).
     */
    Session(std::size_t id,
            std::shared_ptr<const ops5::Program> program,
            const MatcherSpec &spec, ops5::Strategy strategy,
            const durable::DurableOptions &durability = {},
            bool restore = false,
            telemetry::Registry *metrics = nullptr);

    std::size_t id() const { return id_; }

    /** Engine access for the draining server thread — or for tests
     *  while the pool is quiesced (not started, or drained). */
    core::Engine &engine() { return *engine_; }
    core::Matcher &matcher() { return *matcher_; }

    /** Null unless the session was built with durability enabled.
     *  Same threading rules as engine(). */
    durable::Manager *durable() { return durable_.get(); }

    /** What recover() did at construction (all-defaults when the
     *  session is not durable or started cold). */
    const durable::RecoveryStats &recovery() const { return recovery_; }

    /** One admitted request waiting in the session queue. */
    struct Pending
    {
        Request req;
        Completion done; ///< run once, in queue order
        ServeClock::time_point enqueued;
    };

    /** Per-session admission/completion tallies, written from the
     *  admission path and server threads, read live by the
     *  observability plane (all relaxed atomics). */
    struct LiveStats
    {
        std::atomic<std::uint64_t> admitted{0};
        std::atomic<std::uint64_t> completed{0};
        std::atomic<std::uint64_t> expired{0};
        std::atomic<std::uint64_t> rejected_full{0};
        std::atomic<std::uint64_t> batches{0};
    };

    LiveStats live;

    // Queue state, guarded by mu (client threads + server threads).
    std::mutex mu;
    std::deque<Pending> queue;
    /** True while the session sits in the pool's ready list or a
     *  server thread is draining it — never both places at once. */
    bool scheduled = false;

  private:
    std::size_t id_;
    std::unique_ptr<core::Matcher> matcher_;
    std::unique_ptr<core::Engine> engine_;
    std::unique_ptr<durable::Manager> durable_;
    durable::RecoveryStats recovery_;
};

} // namespace psm::serve

#endif // PSM_SERVE_SESSION_HPP
