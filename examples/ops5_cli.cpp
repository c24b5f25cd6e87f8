/**
 * @file
 * ops5_cli: run an OPS5 program from a file.
 *
 *     ops5_cli <program.ops> [options]
 *
 * Options:
 *     --matcher rete|treat|naive|fullstate|parallel   (default rete)
 *     --workers N          worker threads for --matcher parallel
 *     --max-cycles N       firing limit (default 10000)
 *     --trace FILE         save the activation trace (rete only;
 *                          other matchers are an error)
 *     --metrics FILE       write the telemetry registry as JSON,
 *                          including the paper-stats block
 *                          (rete/parallel only)
 *     --chrome-trace FILE  write real task spans as a Chrome/Perfetto
 *                          trace (rete/parallel only)
 *     --stats              print match statistics
 *     --validate           run the full Rete invariant validator
 *                          (structure, memories, conflict set) after
 *                          every match fixpoint (rete/parallel only)
 *     --quiet              suppress (write ...) output
 *     --lint               run the static analyzer (src/analysis)
 *                          before executing; findings go to stderr
 *                          and error-severity findings abort the run
 *                          (see the ops5_lint tool for the full
 *                          reporting surface)
 *
 * Observability (see docs/ARCHITECTURE.md §12):
 *     --stats-port N       serve GET /metrics and GET /stats.json on
 *                          --stats-host:N while the run executes (0
 *                          picks an ephemeral port; needs a telemetry
 *                          matcher, i.e. rete or parallel)
 *     --stats-host A       stats server bind address (default
 *                          127.0.0.1; 0.0.0.0 exposes the stats
 *                          plane beyond loopback — scrape-through
 *                          setups like the cluster router need it)
 *     --metrics-interval S dump a one-line JSON metrics summary to
 *                          stderr every S seconds (rete/parallel)
 *     --flight-recorder F  record engine-cycle and durability events;
 *                          dump them to F on a crash signal,
 *                          periodically, and at clean exit
 *
 * Durability (see docs/ARCHITECTURE.md §10):
 *     --snapshot-dir DIR   persist a WAL + snapshots under DIR; a
 *                          final snapshot is cut when the run ends
 *     --wal POLICY         fsync policy: none | batch | always
 *                          (default batch; the CLI syncs at exit)
 *     --restore            recover from existing state in DIR instead
 *                          of loading the program's initial WM
 *     --checkpoint-every N snapshot every N committed batches
 *     --checkpoint-ms N    snapshot every N milliseconds
 *
 * Exits 0 on halt or quiescence, 1 on errors (including any
 * invariant violation under --validate).
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "analysis/lint.hpp"
#include "cli_util.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hub.hpp"
#include "obs/stats_server.hpp"
#include "core/engine.hpp"
#include "durable/durable.hpp"
#include "core/parallel_matcher.hpp"
#include "core/telemetry.hpp"
#include "ops5/parser.hpp"
#include "psm/analysis.hpp"
#include "psm/trace_io.hpp"
#include "rete/matcher.hpp"
#include "rete/trace_export.hpp"
#include "rete/validate.hpp"
#include "treat/fullstate.hpp"
#include "treat/naive.hpp"
#include "treat/treat.hpp"

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " <program.ops> [--matcher rete|treat|naive|fullstate|"
                 "parallel] [--workers N]\n"
                 "       [--max-cycles N] [--trace FILE]\n"
                 "       [--metrics FILE] [--chrome-trace FILE] "
                 "[--stats] [--validate] [--quiet]\n"
                 "       [--snapshot-dir DIR] [--wal none|batch|always] "
                 "[--restore]\n"
                 "       [--checkpoint-every N] [--checkpoint-ms N] "
                 "[--lint]\n"
                 "       [--stats-port N] [--stats-host A] [--metrics-interval SEC] "
                 "[--flight-recorder FILE]\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);

    std::string path = argv[1];
    std::string matcher_name = "rete";
    std::string trace_path, metrics_path, chrome_trace_path;
    std::uint64_t max_cycles = 10000;
    std::size_t workers = 0;
    bool stats = false, quiet = false, validate = false, lint = false;
    bool stats_port_set = false;
    std::uint64_t stats_port = 0;
    std::string stats_host = "127.0.0.1";
    std::uint64_t metrics_interval_s = 0;
    std::string flight_path;
    psm::cli::DurableFlags durable_flags;

    psm::cli::ArgReader args(argc, argv, 2);
    while (args.next()) {
        bool flag_ok = true;
        if (psm::cli::parseDurableFlag(args, durable_flags, flag_ok)) {
            if (!flag_ok)
                return usage(argv[0]);
        } else if (args.is("--matcher")) {
            const char *v = args.value();
            if (!v)
                return usage(argv[0]);
            matcher_name = v;
        } else if (args.is("--workers")) {
            if (!args.valueSize(workers))
                return usage(argv[0]);
        } else if (args.is("--max-cycles")) {
            if (!args.valueUint(max_cycles))
                return usage(argv[0]);
        } else if (args.is("--trace")) {
            const char *v = args.value();
            if (!v)
                return usage(argv[0]);
            trace_path = v;
        } else if (args.is("--metrics")) {
            const char *v = args.value();
            if (!v)
                return usage(argv[0]);
            metrics_path = v;
        } else if (args.is("--chrome-trace")) {
            const char *v = args.value();
            if (!v)
                return usage(argv[0]);
            chrome_trace_path = v;
        } else if (args.is("--stats")) {
            stats = true;
        } else if (args.is("--validate")) {
            validate = true;
        } else if (args.is("--quiet")) {
            quiet = true;
        } else if (args.is("--lint")) {
            lint = true;
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

    psm::ops5::ParsedProgram parsed;
    if (!psm::cli::loadProgramFile(path, parsed))
        return 2;

    try {
        auto program = parsed.program;

        if (lint) {
            psm::analysis::LintResult lint_result =
                psm::analysis::lintProgram(*program);
            psm::analysis::writeLintText(std::cerr, lint_result, path);
            if (lint_result.gate(false)) {
                std::cerr << "error: lint found "
                          << lint_result.count(
                                 psm::analysis::Severity::Error)
                          << " error(s); not running " << path << "\n";
                return 1;
            }
        }

        // --trace needs the serial Rete matcher's activation recorder;
        // every other matcher would silently produce an empty file.
        if (!trace_path.empty() && matcher_name != "rete") {
            std::cerr << "error: --trace is only supported by "
                         "--matcher rete (got --matcher "
                      << matcher_name << ")\n";
            return 1;
        }
        if (!chrome_trace_path.empty() && matcher_name != "rete" &&
            matcher_name != "parallel") {
            std::cerr << "error: --chrome-trace is only supported by "
                         "--matcher rete or parallel (got --matcher "
                      << matcher_name << ")\n";
            return 1;
        }

        std::unique_ptr<psm::core::Matcher> matcher;
        psm::rete::TraceRecorder trace;
        std::unique_ptr<psm::rete::SpanRecorder> spans;
        psm::rete::Network *net = nullptr;
        if (matcher_name == "rete") {
            auto m = std::make_unique<psm::rete::ReteMatcher>(program);
            if (!trace_path.empty())
                m->setTraceSink(&trace);
            if (!chrome_trace_path.empty()) {
                spans = std::make_unique<psm::rete::SpanRecorder>(1);
                m->setSpanRecorder(spans.get());
            }
            net = &m->network();
            matcher = std::move(m);
        } else if (matcher_name == "treat") {
            matcher = std::make_unique<psm::treat::TreatMatcher>(program);
        } else if (matcher_name == "naive") {
            matcher = std::make_unique<psm::treat::NaiveMatcher>(program);
        } else if (matcher_name == "fullstate") {
            matcher =
                std::make_unique<psm::treat::FullStateMatcher>(program);
        } else if (matcher_name == "parallel") {
            psm::core::ParallelOptions opt;
            opt.n_workers = workers;
            // Redundant ownership checking is cheap next to a CLI run.
            opt.access_check = true;
            auto m = std::make_unique<psm::core::ParallelReteMatcher>(
                program, opt);
            if (!chrome_trace_path.empty()) {
                spans = std::make_unique<psm::rete::SpanRecorder>(
                    m->options().n_workers + 1);
                m->setSpanRecorder(spans.get());
            }
            net = &m->network();
            matcher = std::move(m);
        } else {
            return usage(argv[0]);
        }
        psm::telemetry::Registry *metrics = nullptr;
        const bool want_live_metrics =
            stats_port_set || metrics_interval_s > 0;
        if (!metrics_path.empty() || want_live_metrics) {
            metrics = matcher->enableTelemetry();
            if (!metrics) {
                std::cerr << "error: --metrics, --stats-port and "
                             "--metrics-interval are only supported "
                             "by --matcher rete or parallel (got "
                             "--matcher "
                          << matcher_name << ")\n";
                return 1;
            }
        }
        if (validate && !net) {
            std::cerr << "error: --validate needs a network-based "
                         "matcher (rete or parallel)\n";
            return 1;
        }

        psm::core::Engine engine(program, *matcher,
                                 parsed.strategy ==
                                         psm::ops5::StrategyKind::Mea
                                     ? psm::ops5::Strategy::Mea
                                     : psm::ops5::Strategy::Lex);
        if (!quiet)
            engine.setOutput(&std::cout);

        const bool flight_on = !flight_path.empty();
        if (flight_on)
            psm::obs::FlightRecorder::instance().installCrashDump(
                flight_path.c_str());

        std::uint64_t validated = 0;
        std::uint64_t fixpoints = 0;
        if (validate || flight_on) {
            engine.setCycleCheck([&] {
                if (flight_on)
                    psm::obs::flightRecord(
                        psm::obs::FlightEvent::EngineCycle, 0,
                        fixpoints++);
                if (!validate)
                    return;
                psm::rete::ValidationResult r =
                    psm::rete::validateMatcherState(
                        *net, engine.workingMemory().liveElements(),
                        matcher->conflictSet());
                if (!r.ok())
                    throw std::runtime_error(
                        "invariant violation after match fixpoint " +
                        std::to_string(validated) + ": " + r.summary());
                ++validated;
            });
        }

        std::unique_ptr<psm::durable::Manager> durable;
        psm::durable::RecoveryStats recovery;
        if (durable_flags.options.enabled()) {
            durable = std::make_unique<psm::durable::Manager>(
                engine, durable_flags.options, metrics);
            if (durable_flags.restore &&
                psm::durable::Manager::hasState(
                    durable_flags.options.dir))
                recovery = durable->recover();
            durable->begin();
        }
        if (recovery.recovered) {
            std::cout << "restored: "
                      << (recovery.state_restored ? "state" : "replay")
                      << " from snapshot seq " << recovery.snapshot_seq
                      << " + " << recovery.wal_records_replayed
                      << " WAL records ("
                      << recovery.recovery_ms << " ms)\n";
            if (recovery.wal_truncated)
                std::cout << "wal tail cut: "
                          << recovery.wal_truncation_reason << "\n";
        } else {
            engine.loadInitialWorkingMemory();
        }
        std::unique_ptr<psm::obs::MetricsHub> hub;
        std::unique_ptr<psm::obs::StatsServer> stats_server;
        if (metrics && (want_live_metrics || flight_on)) {
            psm::obs::HubOptions hopts;
            if (metrics_interval_s > 0) {
                hopts.dump_to = &std::cerr;
                hopts.dump_every_ticks = metrics_interval_s;
            }
            hopts.flight_path = flight_path;
            hub = std::make_unique<psm::obs::MetricsHub>(*metrics,
                                                         hopts);
            hub->start();
            if (stats_port_set) {
                psm::obs::StatsServerOptions sopts;
                sopts.port = static_cast<std::uint16_t>(stats_port);
                sopts.bind_addr = stats_host;
                stats_server = std::make_unique<psm::obs::StatsServer>(
                    *hub, sopts);
                if (stats_server->start()) {
                    std::cout << "stats server: http://" << stats_host
                              << ":" << stats_server->port()
                              << "  (/metrics, /stats.json)\n"
                              << std::flush;
                } else {
                    std::cerr << "warning: stats server: "
                              << stats_server->error() << "\n";
                    stats_server.reset();
                }
            }
        }

        psm::core::RunResult result = engine.run(max_cycles);
        if (durable) {
            durable->sync();
            durable->checkpoint();
        }
        stats_server.reset();
        hub.reset();
        if (flight_on) {
            psm::obs::flightRecord(
                psm::obs::FlightEvent::CleanShutdown);
            psm::obs::FlightRecorder::instance().dumpToFile(
                flight_path.c_str(), "clean_shutdown");
            std::cout << "flight recorder: " << flight_path << "\n";
        }

        std::cout << "---\n"
                  << "matcher:     " << matcher->name() << "\n"
                  << "firings:     " << result.firings << "\n"
                  << "wme changes: " << result.wme_changes << "\n"
                  << "end state:   "
                  << (result.halted ? "halt"
                                    : result.quiescent ? "quiescent"
                                                       : "cycle limit")
                  << "\n";
        if (validate)
            std::cout << "validated:   " << validated
                      << " match fixpoints, all invariants hold\n";
        if (durable)
            std::cout << "durable:     " << durable->walRecords()
                      << " WAL records, snapshot at seq "
                      << engine.batchSeq() << " in "
                      << durable_flags.options.dir << "\n";
        if (stats) {
            auto s = matcher->stats();
            std::cout << "activations: " << s.activations << "\n"
                      << "comparisons: " << s.comparisons << "\n"
                      << "instructions (cost model): " << s.instructions
                      << "\n";
        }
        if (!trace_path.empty()) {
            if (psm::sim::saveTraceFile(trace, trace_path))
                std::cout << "trace saved: " << trace_path << "\n";
            else
                std::cerr << "error: failed writing " << trace_path
                          << "\n";
        }
        if (metrics && !metrics_path.empty()) {
            std::ofstream out(metrics_path);
            if (out) {
                metrics->writeJson(
                    out, psm::sim::paperStatsJson(
                             psm::sim::paperStatsFromTelemetry(*metrics)));
                std::cout << "metrics saved: " << metrics_path << "\n";
            } else {
                std::cerr << "error: failed writing " << metrics_path
                          << "\n";
                return 1;
            }
        }
        if (spans) {
            if (psm::rete::saveChromeTrace(
                    chrome_trace_path,
                    psm::rete::chromeEventsFromReal(*spans)))
                std::cout << "chrome trace saved: " << chrome_trace_path
                          << "\n";
            else {
                std::cerr << "error: failed writing "
                          << chrome_trace_path << "\n";
                return 1;
            }
        }
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
