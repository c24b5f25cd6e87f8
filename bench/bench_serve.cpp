/**
 * @file
 * E15 — serving-layer throughput/latency curves.
 *
 * The paper caps *intra*-production-system speed-up at roughly
 * ten-fold (Section 4) and leaves the remaining axis implicit:
 * running many independent production systems side by side. The
 * serving layer is that axis. This experiment sweeps the session
 * count with one client per session under two load shapes:
 *
 *  - paced: every client offers a fixed arrival rate (the classic
 *    multi-tenant serving question — how many tenants can the pool
 *    sustain, and what happens to tail latency as they pile on?).
 *    Aggregate throughput must rise monotonically with sessions
 *    while the pool is below saturation; p50/p95/p99 show the price
 *    of sharing.
 *
 *  - closed: every client immediately submits its next iteration
 *    (saturation throughput). More sessions keep the server threads
 *    busy through client wake-ups and fold more WM changes into each
 *    match batch (Section 4.3's "multiple changes in parallel"), so
 *    throughput climbs until the cores are saturated and then
 *    plateaus — the knee is the machine's serving capacity.
 */

#include <algorithm>
#include <thread>

#include "bench_util.hpp"
#include "serve/serve.hpp"

namespace {

struct Point
{
    std::size_t sessions = 0;
    std::size_t threads = 0;
    std::uint64_t batches = 0;
    psm::serve::LoadResult result;
};

std::vector<Point>
sweepSessions(const std::shared_ptr<const psm::ops5::Program> &program,
              const psm::serve::LoadConfig &base, const char *mix)
{
    const std::size_t hw = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    std::printf("%-8s %8s %8s %10s %14s %9s %9s %9s\n", "mix",
                "sessions", "threads", "completed", "req/s", "p50us",
                "p95us", "p99us");
    std::vector<Point> points;
    for (std::size_t n : {1, 2, 4, 8}) {
        psm::serve::LoadConfig cfg = base;
        cfg.sessions = n;
        psm::serve::PoolOptions popts;
        popts.n_sessions = n;
        popts.n_threads = std::min(n, hw);
        psm::serve::SessionPool pool(program, popts);
        Point p;
        p.sessions = n;
        p.threads = popts.n_threads;
        p.result = psm::serve::runLoad(program, cfg, [&] {
            return std::make_unique<psm::serve::PoolChannel>(pool,
                                                             *program);
        });
        pool.drain();
        p.batches = pool.stats().batches;
        std::printf("%-8s %8zu %8zu %10llu %14.0f %9.1f %9.1f %9.1f\n",
                    mix, n, p.threads,
                    static_cast<unsigned long long>(p.result.completed),
                    p.result.requests_per_sec, p.result.p50_us,
                    p.result.p95_us, p.result.p99_us);
        points.push_back(std::move(p));
    }
    return points;
}

bool
monotonicThroughput(const std::vector<Point> &points)
{
    for (std::size_t i = 1; i < points.size(); ++i)
        if (points[i].result.requests_per_sec <=
            points[i - 1].result.requests_per_sec)
            return false;
    return true;
}

void
emitRows(psm::bench::JsonResult &json, const char *mix,
         const std::vector<Point> &points)
{
    for (const Point &p : points) {
        json.beginRow();
        json.col("name", std::string(mix) + "/sessions=" +
                             std::to_string(p.sessions));
        json.col("mix", std::string(mix));
        json.col("sessions", static_cast<double>(p.sessions));
        json.col("threads", static_cast<double>(p.threads));
        json.col("completed", static_cast<double>(p.result.completed));
        json.col("rejected", static_cast<double>(p.result.rejected));
        json.col("batches", static_cast<double>(p.batches));
        json.col("requests_per_sec", p.result.requests_per_sec);
        json.col("wme_changes_per_sec", p.result.wme_changes_per_sec);
        json.col("p50_us", p.result.p50_us);
        json.col("p95_us", p.result.p95_us);
        json.col("p99_us", p.result.p99_us);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    psm::bench::BenchArgs args = psm::bench::parseBenchArgs(argc, argv);

    psm::bench::banner("E15",
                       "serving layer: sessions vs aggregate "
                       "throughput (multi-session axis)");

    psm::workloads::SystemPreset preset = psm::workloads::tinyPreset();
    auto program = psm::workloads::generateProgram(preset.config);

    // Paced mix: 400 iterations/s per client, 4 asserts + 4 retracts
    // per iteration = 3.2k req/s offered per session — far below a
    // single core's saturation point, so aggregate throughput tracks
    // the offered load while latency reveals the sharing cost.
    psm::serve::LoadConfig paced;
    paced.clients_per_session = 1;
    paced.iterations = args.batches > 0
                           ? static_cast<std::size_t>(args.batches)
                           : 200;
    paced.asserts_per_iteration = 4;
    paced.arrival_rate_hz = 400.0;
    paced.run_cycles = 0;

    // Closed mix: no pacing — every client hammers; the curve finds
    // the machine's saturation knee.
    psm::serve::LoadConfig closed = paced;
    closed.arrival_rate_hz = 0.0;
    closed.asserts_per_iteration = 8;
    closed.iterations = args.batches > 0
                            ? static_cast<std::size_t>(args.batches)
                            : 300;

    std::printf("workload: preset:%s  (1 client/session, ingest "
                "only)\n\n",
                preset.name.c_str());

    std::vector<Point> paced_points =
        sweepSessions(program, paced, "paced");
    std::printf("\n");
    std::vector<Point> closed_points =
        sweepSessions(program, closed, "closed");

    const bool monotonic = monotonicThroughput(paced_points);
    const double closed_speedup =
        closed_points.front().result.requests_per_sec > 0
            ? closed_points.back().result.requests_per_sec /
                  closed_points.front().result.requests_per_sec
            : 0.0;
    std::printf("\npaced throughput monotonic 1->8 sessions: %s\n",
                monotonic ? "yes" : "NO");
    std::printf("closed-loop saturation speedup 8 vs 1: %.2fx\n",
                closed_speedup);

    psm::bench::JsonResult json("bench_serve");
    json.config("workload", "preset:" + preset.name);
    json.config("matcher", "rete");
    json.config("clients_per_session", 1);
    json.config("paced_rate_hz", paced.arrival_rate_hz);
    json.config("paced_iterations",
                static_cast<double>(paced.iterations));
    json.config("paced_asserts",
                static_cast<double>(paced.asserts_per_iteration));
    json.config("closed_iterations",
                static_cast<double>(closed.iterations));
    json.config("closed_asserts",
                static_cast<double>(closed.asserts_per_iteration));
    emitRows(json, "paced", paced_points);
    emitRows(json, "closed", closed_points);
    json.metric("paced_monotonic", monotonic ? 1.0 : 0.0);
    json.metric("paced_max_requests_per_sec",
                paced_points.back().result.requests_per_sec);
    json.metric("closed_max_requests_per_sec",
                std::max_element(closed_points.begin(),
                                 closed_points.end(),
                                 [](const Point &a, const Point &b) {
                                     return a.result.requests_per_sec <
                                            b.result.requests_per_sec;
                                 })
                    ->result.requests_per_sec);
    json.metric("closed_speedup_8v1", closed_speedup);
    psm::bench::finishJson(args, json);
    return 0;
}
