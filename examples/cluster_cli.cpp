/**
 * @file
 * cluster_cli: operator tool for the cluster layer.
 *
 *     cluster_cli MODE [program.ops] [options]
 *
 * Modes (docs/ARCHITECTURE.md §14):
 *
 *   worker    Serve session shards on a TCP port.
 *       --port N            listen port (0 = ephemeral, printed)
 *       --slot K            ring slot identity (default 0)
 *       --dir D             state root (shards persist under
 *                           D/shard-<gsid>/); empty = no durability
 *       --ship H:P          ship WAL frames to a standby
 *       --matcher KIND      rete|treat|naive|fullstate|parallel
 *       --wal POLICY        none|batch|always (default batch)
 *       --checkpoint-every N  snapshot every N committed batches
 *       --queue-capacity N / --shed-watermark N / --max-batch N
 *
 *   standby   WAL-shipping receiver + promotable worker, one process.
 *       --port N            serve (promote) listen port
 *       --ship-port N       shipping listen port
 *       --dir D             replica root (doubles as the promote
 *                           worker's state root)
 *       plus the worker matcher/admission flags above
 *
 *   router    Consistent-hash front end.
 *       --port N            client listen port
 *       --worker H:P        one per worker slot, in slot order
 *       --standby H:P       promote endpoint of the standby process
 *       --vnodes N          ring virtual nodes per slot (default 64)
 *       --stats-port N / --stats-host A
 *                           HTTP stats plane: /stats.json carries the
 *                           router's cluster overview, /metrics the
 *                           exposition counters
 *
 *   load      Cluster load driver (the E20 client side).
 *       --router H:P        router endpoint
 *       --sessions N --clients N --iterations N --asserts N
 *       --run-cycles N --deadline-us N
 *       --rate HZ           iterations per second per client
 *                           (default 0 = closed loop)
 *       --first-gsid G      first session id (default 1)
 *       --json FILE         shared bench JSON schema
 *
 *   migrate   Live-migrate one session to a target slot.
 *       --router H:P --gsid G --target K
 *
 *   scrape    Fetch stats through the router.
 *       --router H:P [--slot K] [--metrics]
 *                           without --slot: the router's own overview
 *
 * Server modes run until SIGTERM/SIGINT, then shut down cleanly
 * (workers drain and checkpoint their shards). Every bound port is
 * printed as `PORT <role> <n>` for scripts to scrape.
 *
 * Exits 0 on success, 1 on errors, 2 on bad flags.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cli_util.hpp"
#include "cluster/load_driver.hpp"
#include "cluster/router.hpp"
#include "cluster/standby.hpp"
#include "cluster/worker.hpp"
#include "core/telemetry.hpp"
#include "obs/hub.hpp"
#include "obs/stats_server.hpp"
#include "ops5/parser.hpp"
#include "serve/serve.hpp"
#include "workloads/presets.hpp"

namespace {

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " worker|standby|router|load|migrate|scrape [program.ops] "
           "[options]\n"
           "see the header comment of examples/cluster_cli.cpp for "
           "the per-mode flags\n";
    return 2;
}

/** Parses "host:port"; host may be omitted ("":"9000" is invalid,
 *  ":9000" and "9000" default the host to 127.0.0.1). */
bool
parseEndpoint(const std::string &text, std::string &host,
              std::uint16_t &port)
{
    std::string::size_type colon = text.rfind(':');
    std::string host_part =
        colon == std::string::npos ? "" : text.substr(0, colon);
    std::string port_part =
        colon == std::string::npos ? text : text.substr(colon + 1);
    try {
        unsigned long p = std::stoul(port_part);
        if (p > 65535)
            return false;
        port = static_cast<std::uint16_t>(p);
    } catch (const std::exception &) {
        return false;
    }
    host = host_part.empty() ? "127.0.0.1" : host_part;
    return true;
}

/** Blocks until SIGINT or SIGTERM. Server modes call this after
 *  binding; the signal set is blocked before any thread spawns so
 *  every thread inherits the mask and sigwait owns delivery. */
void
waitForShutdownSignal()
{
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    int sig = 0;
    sigwait(&set, &sig);
}

void
blockShutdownSignals()
{
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

struct CommonFlags
{
    std::string program_path;
    std::string preset_name = "tiny";

    std::shared_ptr<const psm::ops5::Program>
    load(std::string *name_out = nullptr) const
    {
        if (!program_path.empty()) {
            psm::ops5::ParsedProgram parsed;
            if (!psm::cli::loadProgramFile(program_path, parsed))
                throw std::runtime_error("cannot load " +
                                         program_path);
            if (name_out)
                *name_out = program_path;
            return parsed.program;
        }
        psm::workloads::SystemPreset preset =
            preset_name == "tiny"
                ? psm::workloads::tinyPreset()
                : psm::workloads::presetByName(preset_name);
        if (name_out)
            *name_out = "preset:" + preset.name;
        return psm::workloads::generateProgram(preset.config);
    }
};

int
runWorker(psm::cli::ArgReader &args, CommonFlags &common)
{
    psm::cluster::WorkerOptions opts;
    std::uint64_t port = 0;
    while (args.next()) {
        if (args.is("--preset")) {
            const char *v = args.value();
            if (!v)
                return 2;
            common.preset_name = v;
        } else if (args.is("--port")) {
            if (!args.valueUint(port) || port > 65535)
                return 2;
        } else if (args.is("--slot")) {
            std::uint64_t v;
            if (!args.valueUint(v))
                return 2;
            opts.slot = static_cast<std::uint32_t>(v);
        } else if (args.is("--dir")) {
            const char *v = args.value();
            if (!v)
                return 2;
            opts.dir = v;
        } else if (args.is("--ship")) {
            const char *v = args.value();
            if (!v ||
                !parseEndpoint(v, opts.ship_host, opts.ship_port))
                return 2;
        } else if (args.is("--matcher")) {
            const char *v = args.value();
            if (!v ||
                !psm::serve::parseMatcherKind(v, opts.matcher.kind))
                return 2;
        } else if (args.is("--wal")) {
            const char *v = args.value();
            if (!v || !psm::durable::parseFsyncPolicy(v, opts.fsync))
                return 2;
        } else if (args.is("--checkpoint-every")) {
            if (!args.valueUint(opts.checkpoint.every_batches))
                return 2;
        } else if (args.is("--queue-capacity")) {
            if (!args.valueSize(opts.queue_capacity))
                return 2;
        } else if (args.is("--shed-watermark")) {
            if (!args.valueSize(opts.shed_watermark))
                return 2;
        } else if (args.is("--max-batch")) {
            if (!args.valueSize(opts.max_batch))
                return 2;
        } else {
            return 2;
        }
    }
    opts.port = static_cast<std::uint16_t>(port);

    blockShutdownSignals();
    auto program = common.load();
    psm::cluster::Worker worker(program, opts);
    worker.start();
    std::printf("PORT worker %u\n", worker.port());
    std::fflush(stdout);
    waitForShutdownSignal();
    worker.stop();
    return 0;
}

int
runStandby(psm::cli::ArgReader &args, CommonFlags &common)
{
    psm::cluster::WorkerOptions wopts;
    psm::cluster::StandbyOptions sopts;
    std::uint64_t port = 0, ship_port = 0;
    while (args.next()) {
        if (args.is("--preset")) {
            const char *v = args.value();
            if (!v)
                return 2;
            common.preset_name = v;
        } else if (args.is("--port")) {
            if (!args.valueUint(port) || port > 65535)
                return 2;
        } else if (args.is("--ship-port")) {
            if (!args.valueUint(ship_port) || ship_port > 65535)
                return 2;
        } else if (args.is("--dir")) {
            const char *v = args.value();
            if (!v)
                return 2;
            wopts.dir = v;
        } else if (args.is("--slot")) {
            std::uint64_t v;
            if (!args.valueUint(v))
                return 2;
            wopts.slot = static_cast<std::uint32_t>(v);
        } else if (args.is("--matcher")) {
            const char *v = args.value();
            if (!v ||
                !psm::serve::parseMatcherKind(v, wopts.matcher.kind))
                return 2;
        } else if (args.is("--wal")) {
            const char *v = args.value();
            if (!v || !psm::durable::parseFsyncPolicy(v, wopts.fsync))
                return 2;
        } else if (args.is("--checkpoint-every")) {
            if (!args.valueUint(wopts.checkpoint.every_batches))
                return 2;
        } else {
            return 2;
        }
    }
    if (wopts.dir.empty()) {
        std::cerr << "error: standby needs --dir\n";
        return 2;
    }
    wopts.port = static_cast<std::uint16_t>(port);
    sopts.port = static_cast<std::uint16_t>(ship_port);
    sopts.dir = wopts.dir;

    blockShutdownSignals();
    auto program = common.load();
    psm::cluster::Standby standby(program, sopts);
    psm::cluster::Worker worker(program, wopts);
    // Promote-by-restore: the worker recovering a shard directory
    // must be its only writer, so the replica writer closes first.
    worker.on_open_shard = [&standby](std::uint64_t gsid) {
        standby.releaseShard(gsid);
    };
    worker.extra_stats_json = [&standby] {
        return standby.statsJson();
    };
    standby.start();
    worker.start();
    std::printf("PORT standby %u\nPORT ship %u\n", worker.port(),
                standby.port());
    std::fflush(stdout);
    waitForShutdownSignal();
    worker.stop();
    standby.stop();
    return 0;
}

int
runRouter(psm::cli::ArgReader &args)
{
    psm::cluster::RouterOptions opts;
    std::uint64_t port = 0;
    bool stats_port_set = false;
    std::uint64_t stats_port = 0;
    std::string stats_host = "127.0.0.1";
    while (args.next()) {
        if (args.is("--port")) {
            if (!args.valueUint(port) || port > 65535)
                return 2;
        } else if (args.is("--worker")) {
            const char *v = args.value();
            psm::cluster::Endpoint ep;
            if (!v || !parseEndpoint(v, ep.host, ep.port))
                return 2;
            opts.workers.push_back(ep);
        } else if (args.is("--standby")) {
            const char *v = args.value();
            if (!v || !parseEndpoint(v, opts.standby.host,
                                     opts.standby.port))
                return 2;
        } else if (args.is("--vnodes")) {
            if (!args.valueSize(opts.vnodes))
                return 2;
        } else if (args.is("--stats-port")) {
            if (!args.valueUint(stats_port) || stats_port > 65535)
                return 2;
            stats_port_set = true;
        } else if (args.is("--stats-host")) {
            const char *v = args.value();
            if (!v)
                return 2;
            stats_host = v;
        } else {
            return 2;
        }
    }
    if (opts.workers.empty()) {
        std::cerr << "error: router needs at least one --worker\n";
        return 2;
    }
    opts.port = static_cast<std::uint16_t>(port);

    blockShutdownSignals();
    psm::cluster::Router router(opts);
    router.start();

    // The router has no engine registry; the stats plane is an empty
    // registry plus the router's cluster overview extras.
    psm::telemetry::Registry registry(1);
    std::unique_ptr<psm::obs::MetricsHub> hub;
    std::unique_ptr<psm::obs::StatsServer> stats;
    if (stats_port_set) {
        hub = std::make_unique<psm::obs::MetricsHub>(registry);
        hub->setExtraJson([&router] { return router.extraJson(); });
        hub->setExtraExposition([&router](std::ostream &os) {
            os << router.extraExposition();
        });
        hub->start();
        // /workers/<slot>/metrics and /workers/<slot>/stats.json
        // proxy through the router's worker links, so one scrape
        // endpoint covers the whole cluster.
        auto extra_route = [&router](const std::string &target,
                                     std::string &body,
                                     std::string &content_type) {
            if (target.rfind("/workers/", 0) != 0)
                return false;
            std::string rest = target.substr(9);
            std::size_t slash = rest.find('/');
            if (slash == std::string::npos)
                return false;
            std::uint32_t slot = 0;
            try {
                slot = static_cast<std::uint32_t>(
                    std::stoul(rest.substr(0, slash)));
            } catch (const std::exception &) {
                return false;
            }
            std::string leaf = rest.substr(slash + 1);
            if (leaf == "metrics") {
                body = router.scrapeWorker(
                    slot, psm::cluster::ScrapeKind::Metrics);
                content_type =
                    "text/plain; version=0.0.4; charset=utf-8";
                return true;
            }
            if (leaf == "stats.json") {
                body = router.scrapeWorker(
                    slot, psm::cluster::ScrapeKind::StatsJson);
                content_type = "application/json";
                return true;
            }
            return false;
        };
        psm::obs::StatsServerOptions sopts;
        sopts.port = static_cast<std::uint16_t>(stats_port);
        sopts.bind_addr = stats_host;
        stats = std::make_unique<psm::obs::StatsServer>(*hub, sopts);
        stats->setExtraRoute(extra_route);
        if (stats->start()) {
            std::printf("PORT stats %u\n", stats->port());
        } else {
            std::cerr << "warning: stats server: " << stats->error()
                      << "\n";
            stats.reset();
        }
    }
    std::printf("PORT router %u\n", router.port());
    std::fflush(stdout);
    waitForShutdownSignal();
    stats.reset();
    hub.reset();
    router.stop();
    return 0;
}

int
runLoad(psm::cli::ArgReader &args, CommonFlags &common)
{
    psm::serve::LoadConfig cfg;
    std::string host;
    std::uint16_t port = 0;
    std::uint64_t first_gsid = 1;
    std::string json_path;
    std::uint64_t deadline_us = 0;
    bool have_router = false;
    while (args.next()) {
        if (args.is("--preset")) {
            const char *v = args.value();
            if (!v)
                return 2;
            common.preset_name = v;
        } else if (args.is("--router")) {
            const char *v = args.value();
            if (!v || !parseEndpoint(v, host, port))
                return 2;
            have_router = true;
        } else if (args.is("--sessions")) {
            if (!args.valueSize(cfg.sessions))
                return 2;
        } else if (args.is("--clients")) {
            if (!args.valueSize(cfg.clients_per_session))
                return 2;
        } else if (args.is("--iterations")) {
            if (!args.valueSize(cfg.iterations))
                return 2;
        } else if (args.is("--asserts")) {
            if (!args.valueSize(cfg.asserts_per_iteration))
                return 2;
        } else if (args.is("--run-cycles")) {
            if (!args.valueUint(cfg.run_cycles))
                return 2;
        } else if (args.is("--deadline-us")) {
            if (!args.valueUint(deadline_us))
                return 2;
        } else if (args.is("--rate")) {
            if (!args.valueDouble(cfg.arrival_rate_hz))
                return 2;
        } else if (args.is("--first-gsid")) {
            if (!args.valueUint(first_gsid))
                return 2;
        } else if (args.is("--json")) {
            const char *v = args.value();
            if (!v)
                return 2;
            json_path = v;
        } else {
            return 2;
        }
    }
    if (!have_router) {
        std::cerr << "error: load needs --router H:P\n";
        return 2;
    }
    cfg.deadline = std::chrono::microseconds(deadline_us);

    std::string workload_name;
    auto program = common.load(&workload_name);
    psm::serve::LoadResult r = psm::serve::runLoad(program, cfg, [&] {
        return std::make_unique<psm::cluster::ClientChannel>(
            host, port, first_gsid, *program);
    });

    std::printf("workload:    %s\n", workload_name.c_str());
    std::printf("sessions:    %zu  (clients/s %zu)\n", cfg.sessions,
                cfg.clients_per_session);
    std::printf("elapsed:     %.3f s\n", r.elapsed_seconds);
    std::printf("completed:   %llu  (expired %llu)\n",
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.expired));
    std::printf("rejected:    %llu   errors: %llu\n",
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(r.errors));
    std::printf("throughput:  %.0f req/s\n", r.requests_per_sec);
    std::printf("latency(us): p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
                r.p50_us, r.p95_us, r.p99_us, r.max_us);

    if (!json_path.empty()) {
        psm::bench::JsonResult json("cluster_load");
        json.config("workload", workload_name);
        json.config("sessions", static_cast<double>(cfg.sessions));
        json.config("clients_per_session",
                    static_cast<double>(cfg.clients_per_session));
        json.config("iterations",
                    static_cast<double>(cfg.iterations));
        json.config("arrival_rate_hz", cfg.arrival_rate_hz);
        json.beginRow();
        json.col("name", std::string("load"));
        json.col("elapsed_seconds", r.elapsed_seconds);
        json.col("completed", static_cast<double>(r.completed));
        json.col("rejected", static_cast<double>(r.rejected));
        json.col("expired", static_cast<double>(r.expired));
        json.col("errors", static_cast<double>(r.errors));
        json.col("requests_per_sec", r.requests_per_sec);
        json.col("p50_us", r.p50_us);
        json.col("p95_us", r.p95_us);
        json.col("p99_us", r.p99_us);
        json.col("max_us", r.max_us);
        json.metric("requests_per_sec", r.requests_per_sec);
        json.metric("p99_us", r.p99_us);
        if (!json.save(json_path))
            return 1;
        std::printf("json saved:  %s\n", json_path.c_str());
    }
    return 0;
}

int
runMigrate(psm::cli::ArgReader &args)
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::uint64_t gsid = 0, target = 0;
    bool have_router = false, have_gsid = false, have_target = false;
    while (args.next()) {
        if (args.is("--router")) {
            const char *v = args.value();
            if (!v || !parseEndpoint(v, host, port))
                return 2;
            have_router = true;
        } else if (args.is("--gsid")) {
            if (!args.valueUint(gsid))
                return 2;
            have_gsid = true;
        } else if (args.is("--target")) {
            if (!args.valueUint(target))
                return 2;
            have_target = true;
        } else {
            return 2;
        }
    }
    if (!have_router || !have_gsid || !have_target) {
        std::cerr << "error: migrate needs --router, --gsid, "
                     "--target\n";
        return 2;
    }
    psm::cluster::Client client(host, port);
    std::cout << client.migrate(gsid,
                                static_cast<std::uint32_t>(target))
              << "\n";
    return 0;
}

int
runScrape(psm::cli::ArgReader &args)
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::uint64_t slot = psm::cluster::Client::kRouterScrape;
    psm::cluster::ScrapeKind kind =
        psm::cluster::ScrapeKind::StatsJson;
    bool have_router = false;
    while (args.next()) {
        if (args.is("--router")) {
            const char *v = args.value();
            if (!v || !parseEndpoint(v, host, port))
                return 2;
            have_router = true;
        } else if (args.is("--slot")) {
            if (!args.valueUint(slot))
                return 2;
        } else if (args.is("--metrics")) {
            kind = psm::cluster::ScrapeKind::Metrics;
        } else {
            return 2;
        }
    }
    if (!have_router) {
        std::cerr << "error: scrape needs --router H:P\n";
        return 2;
    }
    psm::cluster::Client client(host, port);
    std::cout << client.scrape(slot, kind) << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    std::string mode = argv[1];

    CommonFlags common;
    int first = 2;
    if (argc > 2 && argv[2][0] != '-') {
        common.program_path = argv[2];
        first = 3;
    }
    psm::cli::ArgReader args(argc, argv, first);

    try {
        int rc;
        if (mode == "worker")
            rc = runWorker(args, common);
        else if (mode == "standby")
            rc = runStandby(args, common);
        else if (mode == "router")
            rc = runRouter(args);
        else if (mode == "load")
            rc = runLoad(args, common);
        else if (mode == "migrate")
            rc = runMigrate(args);
        else if (mode == "scrape")
            rc = runScrape(args);
        else
            return usage(argv[0]);
        return rc == 2 ? usage(argv[0]) : rc;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
