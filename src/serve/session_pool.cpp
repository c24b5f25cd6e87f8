#include "serve/session_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

#include "analysis/lint.hpp"
#include "obs/flight_recorder.hpp"

namespace psm::serve {

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::None: return "none";
      case RejectReason::QueueFull: return "queue_full";
      case RejectReason::Overloaded: return "overloaded";
      case RejectReason::ShuttingDown: return "shutting_down";
      case RejectReason::BadSession: return "bad_session";
    }
    return "unknown";
}

namespace {

/** Clamps nonsensical sizing to the smallest working pool. */
PoolOptions
normalized(PoolOptions o)
{
    o.n_sessions = std::max<std::size_t>(o.n_sessions, 1);
    o.n_threads = std::max<std::size_t>(o.n_threads, 1);
    o.queue_capacity = std::max<std::size_t>(o.queue_capacity, 1);
    o.max_batch = std::max<std::size_t>(o.max_batch, 1);
    if (o.default_run_cycles == 0)
        o.default_run_cycles = 1;
    return o;
}

} // namespace

SessionPool::SessionPool(std::shared_ptr<const ops5::Program> program,
                         PoolOptions options)
    : program_(std::move(program)), options_(normalized(options)),
      metrics_(options_.n_threads + 1)
{
    if (options_.lint) {
        analysis::LintResult lint =
            analysis::lintProgram(*program_);
        if (lint.count(analysis::Severity::Error) > 0) {
            std::string detail;
            for (const auto &d : lint.diagnostics) {
                if (d.severity != analysis::Severity::Error)
                    continue;
                detail = d.message + " [" + d.id + "]";
                break;
            }
            throw std::invalid_argument(
                "program rejected by lint: " + detail);
        }
    }
    sessions_.reserve(options_.n_sessions);
    for (std::size_t i = 0; i < options_.n_sessions; ++i) {
        durable::DurableOptions d = options_.durability;
        if (d.enabled())
            d.dir = sessionDir(options_.durability.dir, i);
        sessions_.push_back(std::make_unique<Session>(
            i, program_, options_.matcher, options_.strategy, d,
            options_.restore, &metrics_));
    }
    if (options_.autostart)
        start();
}

std::string
SessionPool::sessionDir(const std::string &pool_dir,
                        std::size_t session)
{
    return pool_dir + "/session-" + std::to_string(session);
}

SessionPool::~SessionPool() { shutdown(); }

core::Engine &
SessionPool::engine(std::size_t session)
{
    return sessions_.at(session)->engine();
}

const durable::RecoveryStats &
SessionPool::recoveryStats(std::size_t session)
{
    return sessions_.at(session)->recovery();
}

void
SessionPool::checkpointAll()
{
    std::lock_guard<std::mutex> lk(checkpoint_mu_);
    for (auto &s : sessions_)
        if (s->durable())
            s->durable()->checkpoint();
}

Submit
SessionPool::submit(std::size_t session, Request req)
{
    auto promise = std::make_shared<std::promise<Response>>();
    Submit out;
    std::future<Response> response = promise->get_future();
    out.rejected = submit(session, std::move(req),
                          [promise](Response &&resp) {
                              promise->set_value(std::move(resp));
                          });
    if (out.accepted())
        out.response = std::move(response);
    return out;
}

RejectReason
SessionPool::submit(std::size_t session, Request req, Completion done)
{
    if (session >= sessions_.size()) {
        obs::flightRecord(
            obs::FlightEvent::AdmissionReject,
            static_cast<std::uint32_t>(session),
            static_cast<std::uint64_t>(req.kind),
            static_cast<std::uint64_t>(RejectReason::BadSession));
        return RejectReason::BadSession;
    }

    // Admission vs drain: the pending_ increment and the accepting_
    // check are both seq_cst so drain()'s store(false) -> load of
    // pending_ cannot interleave with this fetch_add -> load in a way
    // where drain misses the request AND the request passes admission
    // (the classic store/load reordering).
    pending_.fetch_add(1, std::memory_order_seq_cst);

    auto reject = [&](RejectReason why,
                      std::atomic<std::uint64_t> &slot) {
        releasePending();
        slot.fetch_add(1, std::memory_order_relaxed);
        metrics_.count(0, telemetry::Counter::ServeRejected);
        obs::flightRecord(obs::FlightEvent::AdmissionReject,
                          static_cast<std::uint32_t>(session),
                          static_cast<std::uint64_t>(req.kind),
                          static_cast<std::uint64_t>(why));
        return why;
    };

    if (!accepting_.load(std::memory_order_seq_cst))
        return reject(RejectReason::ShuttingDown, n_rej_shutdown_);
    if (options_.shed_watermark != 0 &&
        pending_.load(std::memory_order_relaxed) >
            options_.shed_watermark)
        return reject(RejectReason::Overloaded, n_rej_overload_);

    Session &s = *sessions_[session];
    const RequestKind kind = req.kind;
    bool need_schedule = false;
    std::size_t depth = 0;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        if (s.queue.size() < options_.queue_capacity) {
            s.queue.push_back(Session::Pending{
                std::move(req), std::move(done), ServeClock::now()});
            depth = s.queue.size();
            if (!s.scheduled) {
                s.scheduled = true;
                need_schedule = true;
            }
        }
    }
    // Rejected outside s.mu: reject() touches shared state.
    if (depth == 0)
        return reject(RejectReason::QueueFull, s.live.rejected_full);

    s.live.admitted.fetch_add(1, std::memory_order_relaxed);
    metrics_.count(0, telemetry::Counter::ServeAdmitted);
    metrics_.observe(0, telemetry::Histogram::ServeQueueDepth, depth);
    obs::flightRecord(obs::FlightEvent::AdmissionAdmit,
                      static_cast<std::uint32_t>(session),
                      static_cast<std::uint64_t>(kind), depth);

    if (need_schedule) {
        std::lock_guard<std::mutex> lk(ready_mu_);
        ready_.push_back(session);
        ready_cv_.notify_one();
    }
    return RejectReason::None;
}

void
SessionPool::releasePending()
{
    if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        std::lock_guard<std::mutex> lk(ready_mu_);
        drained_cv_.notify_all();
    }
}

void
SessionPool::start()
{
    std::lock_guard<std::mutex> lk(ready_mu_);
    if (started_ || joined_)
        return;
    started_ = true;
    threads_.reserve(options_.n_threads);
    for (std::size_t i = 0; i < options_.n_threads; ++i)
        threads_.emplace_back(&SessionPool::serverLoop, this, i);
}

void
SessionPool::drain()
{
    accepting_.store(false, std::memory_order_seq_cst);
    // A never-started pool still owes responses for everything it
    // admitted: spin the servers up so drain is graceful, not a hang.
    start();
    {
        std::unique_lock<std::mutex> lk(ready_mu_);
        drained_cv_.wait(lk, [this] {
            return pending_.load(std::memory_order_seq_cst) == 0;
        });
    }
    obs::flightRecord(obs::FlightEvent::Drain);
    // Quiesced now: server threads finish all Manager work (append +
    // sync) before the completion that releases the last pending_.
    if (options_.durability.enabled() &&
        options_.durability.checkpoint.on_drain)
        checkpointAll();
}

void
SessionPool::shutdown()
{
    drain();
    {
        std::lock_guard<std::mutex> lk(ready_mu_);
        if (joined_)
            return;
        joined_ = true;
        stop_threads_ = true;
        ready_cv_.notify_all();
    }
    for (std::thread &t : threads_)
        if (t.joinable())
            t.join();
}

SessionPool::Stats
SessionPool::stats() const
{
    Stats st;
    for (const auto &s : sessions_) {
        const Session::LiveStats &l = s->live;
        st.admitted += l.admitted.load(std::memory_order_relaxed);
        st.completed += l.completed.load(std::memory_order_relaxed);
        st.expired += l.expired.load(std::memory_order_relaxed);
        st.rejected_full +=
            l.rejected_full.load(std::memory_order_relaxed);
        st.batches += l.batches.load(std::memory_order_relaxed);
    }
    st.rejected_overload =
        n_rej_overload_.load(std::memory_order_relaxed);
    st.rejected_shutdown =
        n_rej_shutdown_.load(std::memory_order_relaxed);
    return st;
}

void
SessionPool::serverLoop(std::size_t worker)
{
    const std::size_t shard = worker + 1;
    for (;;) {
        std::size_t idx;
        {
            std::unique_lock<std::mutex> lk(ready_mu_);
            ready_cv_.wait(lk, [this] {
                return stop_threads_ || !ready_.empty();
            });
            if (ready_.empty()) {
                if (stop_threads_)
                    return;
                continue;
            }
            idx = ready_.front();
            ready_.pop_front();
        }

        Session &s = *sessions_[idx];
        drainSession(s, shard);

        // Reschedule the session or hand it back: either this thread
        // re-lists it, or a future submit sees scheduled == false and
        // does — the session is never in the list twice.
        bool more;
        {
            std::lock_guard<std::mutex> lk(s.mu);
            more = !s.queue.empty();
            if (!more)
                s.scheduled = false;
        }
        if (more) {
            std::lock_guard<std::mutex> lk(ready_mu_);
            ready_.push_back(idx);
            ready_cv_.notify_one();
        }
    }
}

void
SessionPool::completeOne(Session &s, Session::Pending &p,
                         Response &&resp, std::size_t shard)
{
    resp.latency =
        std::chrono::duration_cast<std::chrono::microseconds>(
            ServeClock::now() - p.enqueued);
    if (resp.deadline_expired) {
        s.live.expired.fetch_add(1, std::memory_order_relaxed);
        metrics_.count(shard, telemetry::Counter::ServeExpired);
    }
    metrics_.observe(
        shard, telemetry::Histogram::ServeRequestLatencyUs,
        static_cast<std::uint64_t>(
            std::max<std::int64_t>(resp.latency.count(), 0)));
    metrics_.count(shard, telemetry::Counter::ServeCompleted);
    s.live.completed.fetch_add(1, std::memory_order_relaxed);
    p.done(std::move(resp));
    releasePending();
}

void
SessionPool::drainSession(Session &s, std::size_t shard)
{
    std::vector<Session::Pending> batch;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        std::size_t take =
            std::min(s.queue.size(), options_.max_batch);
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
            batch.push_back(std::move(s.queue.front()));
            s.queue.pop_front();
        }
    }
    if (batch.empty())
        return;
    metrics_.observe(shard, telemetry::Histogram::ServeBatchSize,
                     batch.size());

    core::Engine &eng = s.engine();
    core::Engine::ExternalBatch wm_batch(eng);

    // Inserts staged in the CURRENT uncommitted batch: a retract of
    // one forces a flush first, so the matcher never sees a conjugate
    // insert/remove pair racing inside one parallel batch.
    std::unordered_set<const ops5::Wme *> staged;

    // Responses owed, in queue order: an assert's or retract's WM
    // effect is not matched until the staged batch commits, and a
    // request answered without touching the batch still waits its
    // turn, so completions never overtake each other.
    std::vector<std::pair<Session::Pending *, Response>> deferred;

    auto flush = [&] {
        if (!wm_batch.empty()) {
            const std::size_t committed = wm_batch.size();
            wm_batch.commit();
            s.live.batches.fetch_add(1, std::memory_order_relaxed);
            metrics_.count(shard, telemetry::Counter::ServeBatches);
            obs::flightRecord(
                obs::FlightEvent::BatchCommit,
                static_cast<std::uint32_t>(s.id()), committed);
            // FsyncPolicy::Batch flush point. Must precede the
            // completions below: once the last pending_ releases, a
            // drain may checkpoint this session's Manager.
            if (s.durable())
                s.durable()->sync();
        }
        staged.clear();
        for (auto &[p, resp] : deferred)
            completeOne(s, *p, std::move(resp), shard);
        deferred.clear();
    };

    for (Session::Pending &p : batch) {
        if (p.req.hasDeadline() &&
            ServeClock::now() >= p.req.deadline) {
            // Expired while queued: load-shed without executing.
            Response resp;
            resp.kind = p.req.kind;
            resp.deadline_expired = true;
            deferred.emplace_back(&p, std::move(resp));
            continue;
        }
        switch (p.req.kind) {
          case RequestKind::Assert: {
            const ops5::Wme *w =
                wm_batch.insert(p.req.cls, std::move(p.req.fields));
            staged.insert(w);
            Response resp;
            resp.kind = RequestKind::Assert;
            resp.tag = w->timeTag();
            deferred.emplace_back(&p, std::move(resp));
            break;
          }
          case RequestKind::Retract: {
            Response resp;
            resp.kind = RequestKind::Retract;
            // Tags are never reused: a repeated retract, or one of an
            // element a firing already removed, finds nothing here
            // and answers retracted=false.
            if (const ops5::Wme *w =
                    eng.workingMemory().findByTag(p.req.tag)) {
                if (staged.count(w) != 0)
                    flush();
                resp.tag = p.req.tag;
                resp.retracted = wm_batch.remove(w);
            }
            deferred.emplace_back(&p, std::move(resp));
            break;
          }
          case RequestKind::Run: {
            flush();
            std::uint64_t cycles = p.req.max_cycles != 0
                                       ? p.req.max_cycles
                                       : options_.default_run_cycles;
            obs::flightRecord(obs::FlightEvent::RunStart,
                              static_cast<std::uint32_t>(s.id()),
                              cycles);
            core::RunResult r;
            if (p.req.hasDeadline()) {
                const ServeClock::time_point deadline =
                    p.req.deadline;
                r = eng.run(cycles, [deadline] {
                    return ServeClock::now() >= deadline;
                });
            } else {
                r = eng.run(cycles);
            }
            if (s.durable())
                s.durable()->sync();
            obs::flightRecord(obs::FlightEvent::RunEnd,
                              static_cast<std::uint32_t>(s.id()),
                              r.firings, r.stopped ? 1 : 0);
            Response resp;
            resp.kind = RequestKind::Run;
            resp.run = r;
            resp.deadline_expired = r.stopped;
            completeOne(s, p, std::move(resp), shard);
            break;
          }
        }
    }
    flush();
}

void
SessionPool::writeSessionStatsJson(std::ostream &os) const
{
    os << "\"sessions\": [";
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        Session &s = *sessions_[i];
        std::size_t depth;
        {
            std::lock_guard<std::mutex> lk(s.mu);
            depth = s.queue.size();
        }
        const std::uint64_t admitted =
            s.live.admitted.load(std::memory_order_relaxed);
        const std::uint64_t completed =
            s.live.completed.load(std::memory_order_relaxed);
        const std::uint64_t expired =
            s.live.expired.load(std::memory_order_relaxed);
        const std::uint64_t rejected =
            s.live.rejected_full.load(std::memory_order_relaxed);
        const std::uint64_t batches =
            s.live.batches.load(std::memory_order_relaxed);
        // SLO attainment: fraction of completions that met their
        // deadline (1.0 when nothing has completed yet).
        const double slo =
            completed > 0
                ? 1.0 - static_cast<double>(expired) /
                            static_cast<double>(completed)
                : 1.0;
        char slo_buf[32];
        std::snprintf(slo_buf, sizeof slo_buf, "%.6g", slo);
        os << (i == 0 ? "\n" : ",\n") << "    {\"session\": " << i
           << ", \"queue_depth\": " << depth
           << ", \"admitted\": " << admitted
           << ", \"completed\": " << completed
           << ", \"expired\": " << expired
           << ", \"rejected_full\": " << rejected
           << ", \"batches\": " << batches
           << ", \"slo_attainment\": " << slo_buf << "}";
    }
    os << "\n  ]";
}

void
SessionPool::writeSessionExposition(std::ostream &os,
                                    const std::string &prefix) const
{
    os << "# HELP " << prefix << "_session_queue_depth Requests "
       << "queued per session right now.\n"
       << "# TYPE " << prefix << "_session_queue_depth gauge\n";
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        Session &s = *sessions_[i];
        std::size_t depth;
        {
            std::lock_guard<std::mutex> lk(s.mu);
            depth = s.queue.size();
        }
        os << prefix << "_session_queue_depth{session=\"" << i
           << "\"} " << depth << "\n";
    }
    struct Col
    {
        const char *name;
        const char *help;
        std::uint64_t (*get)(const Session::LiveStats &);
    };
    static const Col cols[] = {
        {"session_admitted_total", "Requests admitted per session.",
         [](const Session::LiveStats &l) {
             return l.admitted.load(std::memory_order_relaxed);
         }},
        {"session_completed_total", "Responses delivered per session.",
         [](const Session::LiveStats &l) {
             return l.completed.load(std::memory_order_relaxed);
         }},
        {"session_expired_total",
         "Deadline-expired completions per session.",
         [](const Session::LiveStats &l) {
             return l.expired.load(std::memory_order_relaxed);
         }},
        {"session_rejected_full_total",
         "Queue-full rejections per session.",
         [](const Session::LiveStats &l) {
             return l.rejected_full.load(std::memory_order_relaxed);
         }},
        {"session_batches_total",
         "ExternalBatch commits per session.",
         [](const Session::LiveStats &l) {
             return l.batches.load(std::memory_order_relaxed);
         }},
    };
    for (const Col &col : cols) {
        os << "# HELP " << prefix << "_" << col.name << " "
           << col.help << "\n"
           << "# TYPE " << prefix << "_" << col.name << " counter\n";
        for (std::size_t i = 0; i < sessions_.size(); ++i)
            os << prefix << "_" << col.name << "{session=\"" << i
               << "\"} " << col.get(sessions_[i]->live) << "\n";
    }
    os << "# HELP " << prefix << "_session_slo_attainment Fraction "
       << "of completions that met their deadline.\n"
       << "# TYPE " << prefix << "_session_slo_attainment gauge\n";
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        const Session::LiveStats &l = sessions_[i]->live;
        const std::uint64_t completed =
            l.completed.load(std::memory_order_relaxed);
        const std::uint64_t expired =
            l.expired.load(std::memory_order_relaxed);
        const double slo =
            completed > 0
                ? 1.0 - static_cast<double>(expired) /
                            static_cast<double>(completed)
                : 1.0;
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", slo);
        os << prefix << "_session_slo_attainment{session=\"" << i
           << "\"} " << buf << "\n";
    }
}

} // namespace psm::serve
