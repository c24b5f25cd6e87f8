/**
 * @file
 * serve_cli: closed-loop load driver for the serving layer.
 *
 *     serve_cli [program.ops] [options]
 *
 * Runs sessions × threads × clients against a SessionPool and prints
 * throughput, latency percentiles, and the admission-control ledger.
 * Without a program file it generates a synthetic workload preset
 * (the programs must have initial working memory — the client uses
 * its WME templates as the assert vocabulary).
 *
 * Options:
 *     --preset NAME        synthetic workload: tiny (default) or a
 *                          paper system (vt, ilog, mud, daa, r1-soar,
 *                          eps-soar); ignored with a program file
 *     --sessions N         independent engine sessions (default 1)
 *     --threads N          server threads (default 1)
 *     --clients N          client threads per session (default 1)
 *     --iterations N       iterations per client (default 100)
 *     --asserts N          asserts per iteration (default 4)
 *     --run-cycles N       add a Run request per iteration, budgeted
 *                          to N firings (default 0 = ingest only)
 *     --deadline-us N      per-request deadline in µs (default 0 = none)
 *     --rate HZ            per-client arrival rate in iterations/sec
 *                          (default 0 = closed loop)
 *     --matcher KIND       rete|treat|naive|fullstate|parallel
 *     --workers N          parallel matcher workers per session
 *     --queue-capacity N   per-session queue bound (default 1024)
 *     --shed-watermark N   pool-wide pending high-watermark
 *                          (default 0 = no shedding)
 *     --max-batch N        max WM changes folded per match batch
 *     --json FILE          write the shared bench JSON schema
 *     --metrics FILE       write the pool telemetry registry as JSON
 *     --lint               reject the program at pool construction
 *                          if the static analyzer (src/analysis)
 *                          finds error-severity defects
 *
 * Observability (docs/ARCHITECTURE.md §12):
 *     --stats-port N       serve GET /metrics (Prometheus text),
 *                          GET /stats.json and GET /healthz on
 *                          --stats-host:N while the load runs (0
 *                          picks an ephemeral port, printed at
 *                          startup)
 *     --stats-host A       stats server bind address (default
 *                          127.0.0.1; 0.0.0.0 exposes the stats
 *                          plane beyond loopback)
 *     --metrics-interval S dump a one-line JSON metrics summary to
 *                          stderr every S seconds during the run
 *     --flight-recorder F  record serve/durable events in the crash
 *                          flight recorder; dump them to F on
 *                          SIGSEGV/SIGABRT, periodically (survives
 *                          SIGKILL), and at clean shutdown
 *
 * Durability (per-session state under DIR/session-<id>; see
 * docs/ARCHITECTURE.md §10):
 *     --snapshot-dir DIR   enable the WAL + drain-time checkpoints
 *     --wal POLICY         fsync policy: none | batch | always
 *     --restore            warm-start sessions from existing state
 *     --checkpoint-every N snapshot every N committed batches
 *     --checkpoint-ms N    snapshot every N milliseconds
 *     --recover-check      before serving, recover every session's
 *                          on-disk state twice — once preferring the
 *                          Rete state-restore path, once forcing
 *                          replay restore — and fail unless both
 *                          agree on working memory and conflict set
 *
 * Exits 0 on success, 1 on errors (including a --recover-check
 * mismatch), 2 on bad flags.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cli_util.hpp"
#include "durable/durable.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hub.hpp"
#include "obs/stats_server.hpp"
#include "ops5/parser.hpp"
#include "rete/matcher.hpp"
#include "serve/serve.hpp"
#include "workloads/presets.hpp"

namespace {

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [program.ops] [--preset NAME] [--sessions N] "
           "[--threads N] [--clients N]\n"
           "       [--iterations N] [--asserts N] [--run-cycles N] "
           "[--deadline-us N] [--rate HZ]\n"
           "       [--matcher rete|treat|naive|fullstate|parallel] "
           "[--workers N] [--queue-capacity N]\n"
           "       [--shed-watermark N] [--max-batch N] "
           "[--json FILE] [--metrics FILE]\n"
           "       [--snapshot-dir DIR] [--wal none|batch|always] "
           "[--restore]\n"
           "       [--checkpoint-every N] [--checkpoint-ms N] "
           "[--recover-check] [--lint]\n"
           "       [--stats-port N] [--stats-host A] [--metrics-interval SEC] "
           "[--flight-recorder FILE]\n";
    return 2;
}

/** Canonical, order-independent image of one engine's durable state:
 *  every live WME (tag, class, fields) and every live conflict-set
 *  instantiation key — the two things recovery must reproduce. */
struct EngineImage
{
    std::vector<psm::durable::SnapshotWme> wmes;
    std::vector<psm::ops5::InstantiationKey> conflict;

    bool
    operator==(const EngineImage &o) const
    {
        if (wmes.size() != o.wmes.size() ||
            conflict.size() != o.conflict.size())
            return false;
        for (std::size_t i = 0; i < wmes.size(); ++i)
            if (wmes[i].tag != o.wmes[i].tag ||
                wmes[i].cls != o.wmes[i].cls ||
                wmes[i].fields != o.wmes[i].fields)
                return false;
        return conflict == o.conflict;
    }
};

EngineImage
imageOf(psm::core::Engine &engine)
{
    EngineImage img;
    for (const psm::ops5::Wme *w :
         engine.workingMemory().liveElements()) {
        psm::durable::SnapshotWme sw;
        sw.tag = w->timeTag();
        sw.cls = w->className();
        for (int f = 0; f < w->fieldCount(); ++f)
            sw.fields.push_back(w->field(f));
        img.wmes.push_back(std::move(sw));
    }
    std::sort(img.wmes.begin(), img.wmes.end(),
              [](const auto &a, const auto &b) { return a.tag < b.tag; });
    for (const psm::ops5::Instantiation &inst :
         engine.matcher().conflictSet().contents())
        img.conflict.push_back(psm::ops5::InstantiationKey::of(inst));
    std::sort(img.conflict.begin(), img.conflict.end(),
              [](const auto &a, const auto &b) {
                  return a.production_id != b.production_id
                             ? a.production_id < b.production_id
                             : a.tags < b.tags;
              });
    return img;
}

/**
 * Recovers one session directory into a fresh serial-Rete engine.
 * @p force_replay strips the snapshot's match-state section so the
 * replay path runs even when state restore is available; the WAL tail
 * is applied identically on both paths.
 */
EngineImage
recoverImage(std::shared_ptr<const psm::ops5::Program> program,
             const std::string &dir, bool force_replay,
             bool &used_state)
{
    namespace fs = std::filesystem;
    psm::rete::ReteMatcher matcher(program);
    psm::core::Engine engine(program, matcher);

    // Newest parseable snapshot, same preference order as recovery.
    std::vector<std::pair<std::uint64_t, std::string>> snaps;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("snap-", 0) == 0 &&
            name.size() > 11 &&
            name.compare(name.size() - 6, 6, ".psnap") == 0)
            snaps.emplace_back(
                std::stoull(name.substr(5, name.size() - 11)),
                entry.path().string());
    }
    std::sort(snaps.begin(), snaps.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });

    used_state = false;
    for (const auto &[seq, path] : snaps) {
        try {
            psm::durable::SnapshotData snap =
                psm::durable::readSnapshotFile(path);
            if (force_replay)
                snap.rete.present = false;
            used_state = psm::durable::restoreSnapshot(engine, snap);
            break;
        } catch (const psm::durable::DurableError &) {
            // Corrupt newest: fall back, exactly like Manager.
        }
    }

    psm::durable::WalReadResult wal = psm::durable::readWal(
        dir + "/wal.plog", psm::durable::programFingerprint(*program));
    for (const psm::core::LoggedBatch &record : wal.records) {
        if (record.seq <= engine.batchSeq())
            continue;
        engine.applyLoggedBatch(record);
    }
    return imageOf(engine);
}

/** The --recover-check pass; returns false on any mismatch. */
bool
recoverCheck(std::shared_ptr<const psm::ops5::Program> program,
             const std::string &pool_dir, std::size_t sessions)
{
    bool all_ok = true;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < sessions; ++i) {
        std::string dir =
            psm::serve::SessionPool::sessionDir(pool_dir, i);
        if (!psm::durable::Manager::hasState(dir))
            continue;
        bool state_a = false, state_b = false;
        EngineImage a = recoverImage(program, dir, false, state_a);
        EngineImage b = recoverImage(program, dir, true, state_b);
        ++checked;
        if (!(a == b)) {
            std::cerr << "recover-check: session " << i
                      << " MISMATCH between "
                      << (state_a ? "state" : "replay")
                      << " restore and forced replay (wm " << a.wmes.size()
                      << " vs " << b.wmes.size() << ", conflict "
                      << a.conflict.size() << " vs " << b.conflict.size()
                      << ")\n";
            all_ok = false;
            continue;
        }
        std::printf("recover-check: session %zu ok (%s restore, "
                    "wm %zu, conflict %zu)\n",
                    i, state_a ? "state" : "replay", a.wmes.size(),
                    a.conflict.size());
    }
    std::printf("recover-check: %zu session(s) checked\n", checked);
    return all_ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string program_path, preset_name = "tiny";
    std::string json_path, metrics_path;
    psm::serve::LoadConfig cfg;
    psm::serve::PoolOptions popts;
    std::uint64_t deadline_us = 0;
    psm::cli::DurableFlags durable_flags;
    bool recover_check = false;
    bool stats_port_set = false;
    std::uint64_t stats_port = 0;
    std::string stats_host = "127.0.0.1";
    std::uint64_t metrics_interval_s = 0;
    std::string flight_path;

    int first = 1;
    if (argc > 1 && argv[1][0] != '-') {
        program_path = argv[1];
        first = 2;
    }

    psm::cli::ArgReader args(argc, argv, first);
    while (args.next()) {
        bool flag_ok = true;
        if (psm::cli::parseDurableFlag(args, durable_flags, flag_ok)) {
            if (!flag_ok)
                return usage(argv[0]);
        } else if (args.is("--recover-check")) {
            recover_check = true;
        } else if (args.is("--lint")) {
            popts.lint = true;
        } else if (args.is("--preset")) {
            const char *v = args.value();
            if (!v)
                return usage(argv[0]);
            preset_name = v;
        } else if (args.is("--sessions")) {
            if (!args.valueSize(cfg.sessions))
                return usage(argv[0]);
        } else if (args.is("--threads")) {
            if (!args.valueSize(popts.n_threads))
                return usage(argv[0]);
        } else if (args.is("--clients")) {
            if (!args.valueSize(cfg.clients_per_session))
                return usage(argv[0]);
        } else if (args.is("--iterations")) {
            if (!args.valueSize(cfg.iterations))
                return usage(argv[0]);
        } else if (args.is("--asserts")) {
            if (!args.valueSize(cfg.asserts_per_iteration))
                return usage(argv[0]);
        } else if (args.is("--run-cycles")) {
            if (!args.valueUint(cfg.run_cycles))
                return usage(argv[0]);
        } else if (args.is("--deadline-us")) {
            if (!args.valueUint(deadline_us))
                return usage(argv[0]);
        } else if (args.is("--rate")) {
            if (!args.valueDouble(cfg.arrival_rate_hz))
                return usage(argv[0]);
        } else if (args.is("--matcher")) {
            const char *v = args.value();
            if (!v ||
                !psm::serve::parseMatcherKind(v, popts.matcher.kind)) {
                std::cerr << "error: --matcher needs rete, treat, "
                             "naive, fullstate, or parallel\n";
                return 2;
            }
        } else if (args.is("--workers")) {
            if (!args.valueSize(popts.matcher.workers))
                return usage(argv[0]);
        } else if (args.is("--queue-capacity")) {
            if (!args.valueSize(popts.queue_capacity))
                return usage(argv[0]);
        } else if (args.is("--shed-watermark")) {
            if (!args.valueSize(popts.shed_watermark))
                return usage(argv[0]);
        } else if (args.is("--max-batch")) {
            if (!args.valueSize(popts.max_batch))
                return usage(argv[0]);
        } else if (args.is("--json")) {
            const char *v = args.value();
            if (!v)
                return usage(argv[0]);
            json_path = v;
        } else if (args.is("--metrics")) {
            const char *v = args.value();
            if (!v)
                return usage(argv[0]);
            metrics_path = v;
        } else if (args.is("--stats-host")) {
            const char *v = args.value();
            if (!v)
                return usage(argv[0]);
            stats_host = v;
        } else if (args.is("--stats-port")) {
            if (!args.valueUint(stats_port) || stats_port > 65535)
                return usage(argv[0]);
            stats_port_set = true;
        } else if (args.is("--metrics-interval")) {
            if (!args.valueUint(metrics_interval_s) ||
                metrics_interval_s == 0)
                return usage(argv[0]);
        } else if (args.is("--flight-recorder")) {
            const char *v = args.value();
            if (!v)
                return usage(argv[0]);
            flight_path = v;
        } else {
            return usage(argv[0]);
        }
    }
    if (deadline_us > 0)
        cfg.deadline = std::chrono::microseconds(deadline_us);
    popts.n_sessions = cfg.sessions;
    popts.durability = durable_flags.options;
    popts.restore = durable_flags.restore;
    if (recover_check && !popts.durability.enabled()) {
        std::cerr << "error: --recover-check needs --snapshot-dir\n";
        return 2;
    }

    try {
        std::shared_ptr<const psm::ops5::Program> program;
        std::string workload_name;
        if (!program_path.empty()) {
            psm::ops5::ParsedProgram parsed;
            if (!psm::cli::loadProgramFile(program_path, parsed))
                return 2;
            program = parsed.program;
            workload_name = program_path;
        } else {
            psm::workloads::SystemPreset preset =
                preset_name == "tiny"
                    ? psm::workloads::tinyPreset()
                    : psm::workloads::presetByName(preset_name);
            program = psm::workloads::generateProgram(preset.config);
            workload_name = "preset:" + preset.name;
        }

        // Verify recovery determinism against the raw on-disk state
        // BEFORE the pool opens it (begin() truncates torn tails).
        if (recover_check &&
            !recoverCheck(program, popts.durability.dir, cfg.sessions))
            return 1;

        // Observability plane: the crash flight recorder is armed
        // before the pool exists (recovery already records events);
        // the hub + stats server attach to the pool's registry for
        // the run and detach after the drain, while the pool is alive.
        if (!flight_path.empty())
            psm::obs::FlightRecorder::instance().installCrashDump(
                flight_path.c_str());
        psm::serve::SessionPool pool(program, popts);
        std::unique_ptr<psm::obs::MetricsHub> hub;
        std::unique_ptr<psm::obs::StatsServer> stats_server;
        if (stats_port_set || metrics_interval_s > 0 ||
            !flight_path.empty()) {
            psm::obs::HubOptions hopts;
            if (metrics_interval_s > 0) {
                hopts.dump_to = &std::cerr;
                hopts.dump_every_ticks = metrics_interval_s;
            }
            hopts.flight_path = flight_path;
            hub = std::make_unique<psm::obs::MetricsHub>(
                pool.metrics(), hopts);
            hub->setExtraJson([&pool] {
                std::ostringstream os;
                pool.writeSessionStatsJson(os);
                return os.str();
            });
            hub->setExtraExposition([&pool](std::ostream &os) {
                pool.writeSessionExposition(os, "psm");
            });
            hub->start();
            if (stats_port_set) {
                psm::obs::StatsServerOptions sopts;
                sopts.port = static_cast<std::uint16_t>(stats_port);
                sopts.bind_addr = stats_host;
                stats_server = std::make_unique<psm::obs::StatsServer>(
                    *hub, sopts);
                if (stats_server->start()) {
                    std::printf("stats server:    http://%s:%u"
                                "  (/metrics, /stats.json)\n",
                                stats_host.c_str(),
                                stats_server->port());
                    std::fflush(stdout);
                } else {
                    std::cerr << "warning: stats server: "
                              << stats_server->error() << "\n";
                    stats_server.reset();
                }
            }
        }

        psm::serve::LoadResult r =
            psm::serve::runLoad(program, cfg, [&] {
                return std::make_unique<psm::serve::PoolChannel>(
                    pool, *program);
            });
        pool.shutdown();
        // Last scrapeable moment: drain is done, pool still alive.
        // Stop the server before the hub it reads.
        stats_server.reset();
        hub.reset();
        const psm::serve::SessionPool::Stats stats = pool.stats();
        std::size_t recovered_sessions = 0;
        std::uint64_t wal_replayed = 0;
        for (std::size_t i = 0; i < pool.sessionCount(); ++i) {
            const auto &rs = pool.recoveryStats(i);
            if (rs.recovered)
                ++recovered_sessions;
            wal_replayed += rs.wal_records_replayed;
        }
        if (!metrics_path.empty()) {
            std::ofstream out(metrics_path);
            if (!out)
                throw std::runtime_error("cannot write " +
                                         metrics_path);
            pool.metrics().writeJson(out);
        }

        if (!flight_path.empty()) {
            psm::obs::flightRecord(
                psm::obs::FlightEvent::CleanShutdown);
            psm::obs::FlightRecorder::instance().dumpToFile(
                flight_path.c_str(), "clean_shutdown");
            std::printf("flight recorder: %s\n", flight_path.c_str());
        }

        std::printf("workload:        %s\n", workload_name.c_str());
        std::printf("matcher:         %s\n",
                    psm::serve::matcherKindName(popts.matcher.kind));
        std::printf("sessions:        %zu  (threads %zu, clients/s %zu)\n",
                    cfg.sessions, popts.n_threads, cfg.clients_per_session);
        std::printf("elapsed:         %.3f s\n", r.elapsed_seconds);
        std::printf("completed:       %llu  (expired %llu)\n",
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.expired));
        std::printf("rejected:        %llu  (full %llu, overload %llu, "
                    "shutdown %llu)\n",
                    static_cast<unsigned long long>(r.rejected),
                    static_cast<unsigned long long>(stats.rejected_full),
                    static_cast<unsigned long long>(
                        stats.rejected_overload),
                    static_cast<unsigned long long>(
                        stats.rejected_shutdown));
        std::printf("batches:         %llu\n",
                    static_cast<unsigned long long>(stats.batches));
        std::printf("throughput:      %.0f req/s  (%.0f wme-changes/s)\n",
                    r.requests_per_sec, r.wme_changes_per_sec);
        std::printf("latency (us):    p50 %.1f  p95 %.1f  p99 %.1f  "
                    "max %.1f\n",
                    r.p50_us, r.p95_us, r.p99_us, r.max_us);
        if (popts.durability.enabled())
            std::printf("durability:      %s (wal %s); recovered "
                        "%zu/%zu sessions, %llu WAL records replayed\n",
                        popts.durability.dir.c_str(),
                        psm::durable::fsyncPolicyName(
                            popts.durability.fsync),
                        recovered_sessions, cfg.sessions,
                        static_cast<unsigned long long>(wal_replayed));
        if (!metrics_path.empty())
            std::printf("metrics saved:   %s\n", metrics_path.c_str());

        if (!json_path.empty()) {
            psm::bench::JsonResult json("serve_cli");
            json.config("workload", workload_name);
            json.config("matcher", psm::serve::matcherKindName(
                                       popts.matcher.kind));
            json.config("sessions", static_cast<double>(cfg.sessions));
            json.config("threads", static_cast<double>(popts.n_threads));
            json.config("clients_per_session",
                        static_cast<double>(cfg.clients_per_session));
            json.config("iterations",
                        static_cast<double>(cfg.iterations));
            json.config("asserts_per_iteration",
                        static_cast<double>(cfg.asserts_per_iteration));
            json.config("run_cycles",
                        static_cast<double>(cfg.run_cycles));
            json.config("deadline_us",
                        static_cast<double>(deadline_us));
            json.config("arrival_rate_hz", cfg.arrival_rate_hz);
            json.beginRow();
            json.col("name", std::string("load"));
            json.col("elapsed_seconds", r.elapsed_seconds);
            json.col("completed", static_cast<double>(r.completed));
            json.col("rejected", static_cast<double>(r.rejected));
            json.col("expired", static_cast<double>(r.expired));
            json.col("batches", static_cast<double>(stats.batches));
            json.col("requests_per_sec", r.requests_per_sec);
            json.col("wme_changes_per_sec", r.wme_changes_per_sec);
            json.col("p50_us", r.p50_us);
            json.col("p95_us", r.p95_us);
            json.col("p99_us", r.p99_us);
            json.col("max_us", r.max_us);
            json.metric("requests_per_sec", r.requests_per_sec);
            json.metric("p99_us", r.p99_us);
            if (!json.save(json_path))
                return 1;
            std::printf("json saved:      %s\n", json_path.c_str());
        }
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
