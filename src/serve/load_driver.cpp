#include "serve/load_driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "ops5/production.hpp"

namespace psm::serve {

namespace {

/** Exact percentile of a sorted sample (nearest-rank). */
double
samplePercentile(const std::vector<std::uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
    return static_cast<double>(sorted[rank - 1]);
}

/** Per-client tally merged after the join. */
struct ClientTally
{
    std::vector<std::uint64_t> latencies_us;
    std::uint64_t rejected = 0;
    std::uint64_t wm_ops = 0; ///< assert+retract completions
};

} // namespace

LoadResult
runLoad(std::shared_ptr<const ops5::Program> program,
        const LoadConfig &config,
        const std::function<void(SessionPool &)> &inspect,
        const std::function<void(SessionPool &)> &on_start)
{
    // Request vocabulary: the program's own initial WMEs are the
    // per-class field templates, so asserted elements look like the
    // workload the rules were written against.
    const auto &initial = program->initialWmes();
    if (initial.empty())
        throw std::runtime_error(
            "load driver needs a program with initial WMEs (the "
            "request templates)");

    PoolOptions pool_opts;
    pool_opts.n_sessions = config.sessions;
    pool_opts.n_threads = config.threads;
    pool_opts.queue_capacity = config.queue_capacity;
    pool_opts.shed_watermark = config.shed_watermark;
    pool_opts.max_batch = config.max_batch;
    pool_opts.matcher = config.matcher;
    pool_opts.durability = config.durability;
    pool_opts.restore = config.restore;
    pool_opts.lint = config.lint;
    SessionPool pool(program, pool_opts);
    if (on_start)
        on_start(pool);

    const std::size_t n_clients =
        config.sessions * std::max<std::size_t>(
                              config.clients_per_session, 1);
    std::vector<ClientTally> tallies(n_clients);
    std::vector<std::thread> clients;
    clients.reserve(n_clients);

    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();

    for (std::size_t c = 0; c < n_clients; ++c) {
        clients.emplace_back([&, c] {
            ClientTally &tally = tallies[c];
            const std::size_t session = c % config.sessions;
            const auto &tmpl = initial[c % initial.size()];
            const Clock::duration tick =
                config.arrival_rate_hz > 0
                    ? std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              1.0 / config.arrival_rate_hz))
                    : Clock::duration::zero();
            Clock::time_point next_tick = Clock::now();

            auto stamp_deadline = [&](Request r) {
                if (config.deadline.count() > 0)
                    r.deadline = ServeClock::now() + config.deadline;
                return r;
            };
            auto settle = [&](Submit &sub) -> bool {
                // Returns true when a response arrived (even an
                // expired one); records its latency.
                if (!sub.accepted()) {
                    ++tally.rejected;
                    return false;
                }
                Response resp = sub.response.get();
                tally.latencies_us.push_back(
                    static_cast<std::uint64_t>(std::max<std::int64_t>(
                        resp.latency.count(), 0)));
                return true;
            };

            for (std::size_t it = 0; it < config.iterations; ++it) {
                if (tick != Clock::duration::zero()) {
                    std::this_thread::sleep_until(next_tick);
                    next_tick += tick;
                }

                // Burst of asserts...
                std::vector<Submit> asserts;
                asserts.reserve(config.asserts_per_iteration);
                for (std::size_t a = 0;
                     a < config.asserts_per_iteration; ++a)
                    asserts.push_back(pool.submit(
                        session, stamp_deadline(Request::makeAssert(
                                     tmpl.cls, tmpl.fields))));

                // ...optionally a Run...
                Submit run;
                bool want_run = config.run_cycles != 0;
                if (want_run)
                    run = pool.submit(
                        session, stamp_deadline(Request::makeRun(
                                     config.run_cycles)));

                // ...then retract every element the asserts produced
                // (responses carry the tags, so settle them first).
                std::vector<ops5::TimeTag> tags;
                tags.reserve(asserts.size());
                for (Submit &sub : asserts) {
                    if (!sub.accepted()) {
                        ++tally.rejected;
                        continue;
                    }
                    Response resp = sub.response.get();
                    tally.latencies_us.push_back(
                        static_cast<std::uint64_t>(
                            std::max<std::int64_t>(
                                resp.latency.count(), 0)));
                    if (!resp.deadline_expired && resp.tag != 0) {
                        tags.push_back(resp.tag);
                        ++tally.wm_ops;
                    }
                }
                std::vector<Submit> retracts;
                retracts.reserve(tags.size());
                for (ops5::TimeTag tag : tags)
                    retracts.push_back(pool.submit(
                        session,
                        stamp_deadline(Request::makeRetractTag(tag))));
                for (Submit &sub : retracts)
                    if (settle(sub))
                        ++tally.wm_ops;
                if (want_run)
                    settle(run);
            }
        });
    }

    for (std::thread &t : clients)
        t.join();
    pool.drain();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();

    LoadResult out;
    out.elapsed_seconds = elapsed;
    out.pool = pool.stats();
    out.completed = out.pool.completed;
    out.expired = out.pool.expired;

    std::vector<std::uint64_t> all;
    std::uint64_t wm_ops = 0;
    for (ClientTally &t : tallies) {
        out.rejected += t.rejected;
        wm_ops += t.wm_ops;
        all.insert(all.end(), t.latencies_us.begin(),
                   t.latencies_us.end());
    }
    std::sort(all.begin(), all.end());
    out.p50_us = samplePercentile(all, 50);
    out.p95_us = samplePercentile(all, 95);
    out.p99_us = samplePercentile(all, 99);
    out.max_us = all.empty() ? 0.0 : static_cast<double>(all.back());
    if (elapsed > 0) {
        out.requests_per_sec =
            static_cast<double>(out.completed) / elapsed;
        out.wme_changes_per_sec =
            static_cast<double>(wm_ops) / elapsed;
    }

    if (inspect)
        inspect(pool);
    return out;
}

} // namespace psm::serve
