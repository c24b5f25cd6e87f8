/**
 * @file
 * Request/response types of the serving layer.
 *
 * A request is one external operation against one session's working
 * memory: assert a WME, retract a live WME by its time tag, or run
 * recognize-act cycles. Admission is synchronous and typed — a submit
 * either accepts the request, whose Response later reaches a
 * Completion callback (or a future), or returns a RejectReason, never
 * an unbounded queue — and every request may carry a wall-clock
 * deadline that both drops it if it expires while queued and (for
 * Run) stops the engine mid-run.
 */

#ifndef PSM_SERVE_REQUEST_HPP
#define PSM_SERVE_REQUEST_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "core/engine.hpp"
#include "ops5/wme.hpp"

namespace psm::serve {

/** Why a submit was refused at admission. */
enum class RejectReason : std::uint8_t {
    None,         ///< not rejected (the request was admitted)
    QueueFull,    ///< the session's bounded queue is at capacity
    Overloaded,   ///< pool-wide pending load is past the shed mark
    ShuttingDown, ///< the pool stopped accepting (drain/shutdown)
    BadSession,   ///< session index out of range
};

const char *rejectReasonName(RejectReason r);

/** What a request asks the session to do. */
enum class RequestKind : std::uint8_t { Assert, Retract, Run };

/** Monotonic clock all serve deadlines are expressed in. */
using ServeClock = std::chrono::steady_clock;

/** One external operation against a session. */
struct Request
{
    RequestKind kind = RequestKind::Assert;

    // Assert payload.
    ops5::SymbolId cls{};
    std::vector<ops5::Value> fields;

    // Retract payload: the time tag of a live element — usually one
    // an Assert Response returned. Resolved on the session's server
    // thread, the only thread that may touch working memory.
    ops5::TimeTag tag = 0;

    // Run payload: firing budget (0 = pool default).
    std::uint64_t max_cycles = 0;

    /** Wall-clock deadline; default-constructed = none. An expired
     *  request is completed with Response::deadline_expired instead
     *  of executing; an in-flight Run is stopped at the next cycle. */
    ServeClock::time_point deadline{};

    bool
    hasDeadline() const
    {
        return deadline.time_since_epoch().count() != 0;
    }

    static Request
    makeAssert(ops5::SymbolId cls, std::vector<ops5::Value> fields)
    {
        Request r;
        r.kind = RequestKind::Assert;
        r.cls = cls;
        r.fields = std::move(fields);
        return r;
    }

    /** Retract by time tag. Tags are never reused, so a stale,
     *  repeated or foreign tag is a safe no-op. */
    static Request
    makeRetractTag(ops5::TimeTag tag)
    {
        Request r;
        r.kind = RequestKind::Retract;
        r.tag = tag;
        return r;
    }

    static Request
    makeRun(std::uint64_t max_cycles = 0)
    {
        Request r;
        r.kind = RequestKind::Run;
        r.max_cycles = max_cycles;
        return r;
    }
};

/** Outcome of one admitted request. */
struct Response
{
    RequestKind kind = RequestKind::Assert;

    /** Assert: the element's time tag, the handle to retract it
     *  with (makeRetractTag). It stays valid across processes,
     *  migration and recovery. Retract: the tag, when it was live. */
    ops5::TimeTag tag = 0;

    /** Retract: true when the element was live and is now gone;
     *  false for a stale/repeated/foreign tag (a safe no-op). */
    bool retracted = false;

    /** Run: the engine's cycle/firing/halt outcome. */
    core::RunResult run{};

    /** The deadline expired: either while queued (the operation did
     *  not execute) or mid-run (Run stopped early; `run` holds the
     *  partial result). */
    bool deadline_expired = false;

    /** Submit-to-response latency measured by the serving thread. */
    std::chrono::microseconds latency{0};
};

/** Receives one admitted request's Response, on a server thread.
 *  Must not throw and must not call back into the same pool's
 *  drain(). */
using Completion = std::function<void(Response &&)>;

/** Result of SessionPool::submit: a typed rejection or a future. */
struct Submit
{
    RejectReason rejected = RejectReason::None;

    /** Valid exactly when accepted(). */
    std::future<Response> response;

    bool accepted() const { return rejected == RejectReason::None; }
};

} // namespace psm::serve

#endif // PSM_SERVE_REQUEST_HPP
