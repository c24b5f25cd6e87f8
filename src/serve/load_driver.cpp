#include "serve/load_driver.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "ops5/production.hpp"

namespace psm::serve {

namespace {

using Clock = ServeClock;

double
usBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** A request on its way: the channel's token and the send time. */
struct Sent
{
    std::uint64_t token = 0;
    Clock::time_point at{};
};

/** Plays one client's iterations against @p session over @p ch,
 *  counting into @p tally's counters and samples and @p wm_ops. */
void
playClient(Channel &ch, std::size_t session, std::size_t tmpl,
           const LoadConfig &config, Clock::time_point t0,
           LoadResult &tally, std::uint64_t &wm_ops)
{
    const Clock::duration tick =
        config.arrival_rate_hz > 0
            ? std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      1.0 / config.arrival_rate_hz))
            : Clock::duration::zero();
    Clock::time_point next_tick = Clock::now();

    auto send = [&](Op op) {
        op.deadline = config.deadline;
        Sent s;
        s.at = Clock::now();
        s.token = ch.send(session, op);
        return s;
    };
    // Waits for one answer, counts it and samples a reply.
    auto settle = [&](const Sent &s) {
        const Answer a = ch.wait(s.token);
        if (a.status == Answer::Status::Rejected) {
            ++tally.rejected;
        } else if (a.status == Answer::Status::Lost) {
            ++tally.errors;
        } else {
            ++tally.completed;
            tally.expired += a.status == Answer::Status::Expired;
            tally.samples.push_back({usBetween(t0, a.done_at) / 1e3,
                                     usBetween(s.at, a.done_at),
                                     session});
        }
        return a;
    };

    Op assert_op;
    assert_op.tmpl = tmpl;
    Op run_op;
    run_op.kind = RequestKind::Run;
    run_op.cycles = config.run_cycles;
    const bool want_run = config.run_cycles != 0;
    std::vector<Sent> asserts, retracts;
    std::vector<ops5::TimeTag> tags;

    for (std::size_t it = 0; it < config.iterations; ++it) {
        if (tick != Clock::duration::zero()) {
            std::this_thread::sleep_until(next_tick);
            next_tick += tick;
        }

        // Burst of asserts, optionally a Run...
        asserts.clear();
        for (std::size_t a = 0; a < config.asserts_per_iteration; ++a)
            asserts.push_back(send(assert_op));
        Sent run;
        if (want_run)
            run = send(run_op);

        // ...then retract every element the asserts produced
        // (answers carry the tags, so settle them first).
        tags.clear();
        for (const Sent &s : asserts) {
            const Answer a = settle(s);
            if (a.status == Answer::Status::Ok && a.tag != 0) {
                tags.push_back(a.tag);
                ++wm_ops;
            }
        }
        retracts.clear();
        for (ops5::TimeTag tag : tags) {
            Op op;
            op.kind = RequestKind::Retract;
            op.tag = tag;
            retracts.push_back(send(op));
        }
        for (const Sent &s : retracts)
            if (settle(s).status == Answer::Status::Ok)
                ++wm_ops;
        if (want_run)
            settle(run);
    }
}

} // namespace

std::uint64_t
PoolChannel::send(std::size_t session, const Op &op)
{
    Request r;
    if (op.kind == RequestKind::Assert) {
        const auto &t = program_.initialWmes()[op.tmpl];
        r = Request::makeAssert(t.cls, t.fields);
    } else if (op.kind == RequestKind::Retract) {
        r = Request::makeRetractTag(op.tag);
    } else {
        r = Request::makeRun(op.cycles);
    }
    if (op.deadline.count() > 0)
        r.deadline = Clock::now() + op.deadline;

    auto promise = std::make_shared<std::promise<Answer>>();
    const std::uint64_t token = base_ + pending_.size();
    pending_.push_back(promise->get_future());
    const RejectReason why = pool_.submit(
        session, std::move(r), [promise](Response &&resp) {
            Answer a;
            a.done_at = Clock::now();
            a.status = resp.deadline_expired ? Answer::Status::Expired
                                             : Answer::Status::Ok;
            a.tag = resp.tag;
            promise->set_value(a);
        });
    if (why != RejectReason::None) {
        Answer a;
        a.status = Answer::Status::Rejected;
        a.done_at = Clock::now();
        promise->set_value(a);
    }
    return token;
}

Answer
PoolChannel::wait(std::uint64_t token)
{
    std::future<Answer> answer = std::move(pending_[token - base_]);
    while (!pending_.empty() && !pending_.front().valid()) {
        pending_.pop_front();
        ++base_;
    }
    return answer.get();
}

LoadResult
runLoad(const std::shared_ptr<const ops5::Program> &program,
        const LoadConfig &config,
        const std::function<std::unique_ptr<Channel>()> &make_channel)
{
    // Request vocabulary: the program's own initial WMEs are the
    // per-class field templates, so asserted elements look like the
    // workload the rules were written against.
    const std::size_t n_templates = program->initialWmes().size();
    if (n_templates == 0)
        throw std::runtime_error(
            "load driver needs a program with initial WMEs (the "
            "request templates)");

    const std::size_t n_clients =
        config.sessions * std::max<std::size_t>(
                              config.clients_per_session, 1);
    std::vector<LoadResult> tallies(n_clients);
    std::vector<std::uint64_t> wm_ops(n_clients);
    std::vector<std::exception_ptr> failures(n_clients);
    std::vector<std::unique_ptr<Channel>> channels;
    channels.reserve(n_clients);
    for (std::size_t c = 0; c < n_clients; ++c)
        channels.push_back(make_channel());
    // Declared last: a jthread joins on destruction, so a failed
    // spawn still joins the clients already running.
    std::vector<std::jthread> clients;
    clients.reserve(n_clients);

    const Clock::time_point t0 = Clock::now();

    // A client's exception is rethrown once every client has joined.
    for (std::size_t c = 0; c < n_clients; ++c) {
        clients.emplace_back([&, c] {
            try {
                playClient(*channels[c], c % config.sessions,
                           c % n_templates, config, t0, tallies[c],
                           wm_ops[c]);
            } catch (...) {
                failures[c] = std::current_exception();
            }
        });
    }
    for (std::jthread &t : clients)
        t.join();
    for (const std::exception_ptr &failure : failures)
        if (failure)
            std::rethrow_exception(failure);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();

    LoadResult out;
    out.elapsed_seconds = elapsed;
    for (const LoadResult &t : tallies) {
        out.completed += t.completed;
        out.rejected += t.rejected;
        out.expired += t.expired;
        out.errors += t.errors;
        out.samples.insert(out.samples.end(), t.samples.begin(),
                           t.samples.end());
    }
    const double inf = std::numeric_limits<double>::infinity();
    out.p50_us = windowPercentile(out.samples, -inf, inf, 50);
    out.p95_us = windowPercentile(out.samples, -inf, inf, 95);
    out.p99_us = windowPercentile(out.samples, -inf, inf, 99);
    out.max_us = windowPercentile(out.samples, -inf, inf, 100);
    if (elapsed > 0) {
        out.requests_per_sec =
            static_cast<double>(out.completed) / elapsed;
        out.wme_changes_per_sec =
            static_cast<double>(std::accumulate(
                wm_ops.begin(), wm_ops.end(), std::uint64_t{0})) /
            elapsed;
    }
    return out;
}

double
windowPercentile(const std::vector<LoadSample> &samples, double from_ms,
                 double to_ms, double pct,
                 const std::function<bool(std::size_t)> &session_filter)
{
    std::vector<double> lat;
    for (const LoadSample &s : samples) {
        if (s.t_ms < from_ms || s.t_ms >= to_ms)
            continue;
        if (session_filter && !session_filter(s.session))
            continue;
        lat.push_back(s.latency_us);
    }
    if (lat.empty())
        return 0.0;
    std::sort(lat.begin(), lat.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(lat.size())));
    return lat[std::clamp<std::size_t>(rank, 1, lat.size()) - 1];
}

} // namespace psm::serve
