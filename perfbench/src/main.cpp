/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--corrupt-oracle] [--work-dir DIR]
 *
 * Workloads: match-batch, fire-cycle, serve-mixed, cluster-mixed (see
 * perfbench/NOTES.md). With --trace 0 the run measures the end-to-end
 * metrics by wall clock, untraced. With --trace 1 it runs the workload
 * untraced and then traced (half the time each) for the tracing
 * overhead and a Chrome trace, then the layer probes, and prints the
 * per-layer metrics. Output ends with one JSON line:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Exit status is 0 only when every output check passed.
 */

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/** The end-to-end metrics every workload reports (BENCHMARK.json). */
const std::vector<std::string> kEndToEnd = {
    "setup_s",        "wme_changes_per_s", "requests_per_s",
    "latency_p50_us", "latency_p99_us",    "peak_rss_mb",
};

const std::vector<std::string> kWorkloads = {
    "match-batch", "fire-cycle", "serve-mixed", "cluster-mixed"};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "match-batch|fire-cycle|serve-mixed|cluster-mixed\n"
                 "         --seed N --seconds S --trace 0|1 "
                 "[--corrupt-oracle] [--work-dir DIR]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const bool has_value = i + 1 < argc;
        if (k == "--corrupt-oracle") {
            a.corrupt_oracle = true;
        } else if (k == "--workload" && has_value) {
            a.workload = argv[++i];
        } else if (k == "--seed" && has_value) {
            a.seed = std::stoull(argv[++i]);
        } else if (k == "--seconds" && has_value) {
            a.seconds = std::stod(argv[++i]);
        } else if (k == "--trace" && has_value) {
            a.trace = std::string(argv[++i]) == "1";
        } else if (k == "--work-dir" && has_value) {
            a.work_dir = argv[++i];
        } else {
            return false;
        }
    }
    for (const std::string &w : kWorkloads)
        if (w == a.workload)
            return a.seconds > 0;
    return false;
}

/** Fork-time of the cluster's worker processes, median of three. */
double
measureFleetSetup(const std::shared_ptr<const ops5::Program> &program)
{
    std::vector<double> s;
    for (int rep = 0; rep < 3; ++rep) {
        const Clock::time_point t0 = Clock::now();
        WorkerFleet f(program, 2);
        s.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(s);
}

RunOutcome
runWorkload(const Args &args, double seconds, Tracer *tr,
            const WorkerFleet *fleet, std::uint64_t first_gsid,
            double fleet_setup_s)
{
    if (args.workload == "match-batch")
        return runMatchBatch(args, seconds, tr);
    if (args.workload == "fire-cycle")
        return runFireCycle(args, seconds, tr);
    if (args.workload == "serve-mixed")
        return runServeMixed(args, seconds, tr);
    return runClusterMixed(args, seconds, tr, *fleet, first_gsid,
                           fleet_setup_s);
}

void
merge(RunOutcome &into, const RunOutcome &from)
{
    into.attempted += from.attempted;
    into.failed += from.failed;
    for (const std::string &f : from.check_failures)
        into.fail(f);
}

/** Prints the self-time table and returns the span coverage. */
double
printSelfTimes(const Tracer &tr)
{
    const auto self = tr.selfSeconds();
    const double root = tr.rootSeconds();
    std::printf("self time by span (traced phase, %zu spans):\n",
                tr.spanCount());
    for (const auto &[name, s] : self)
        std::printf("  %-24s %10.4f s  %6.2f%%\n", name.c_str(), s,
                    root > 0 ? 100.0 * s / root : 0.0);
    const double wall = tr.laneWallSeconds();
    return wall > 0 ? root / wall : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        if (!parseArgs(argc, argv, args))
            return usage();
    } catch (const std::exception &) {
        return usage();
    }
    std::printf("# host %s\n", hostJson().c_str());
    std::printf("# workload %s seed %llu seconds %.3g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    try {
        std::filesystem::create_directories(args.work_dir);

        // Worker processes fork before this process starts a thread.
        const bool cluster = args.workload == "cluster-mixed";
        double fleet_setup_s = 0;
        std::unique_ptr<WorkerFleet> fleet;
        if (cluster || args.trace) {
            if (cluster && !args.trace)
                fleet_setup_s = measureFleetSetup(serveProgram());
            fleet = std::make_unique<WorkerFleet>(serveProgram(), 2);
        }

        RunOutcome result;
        Report out;
        if (!args.trace) {
            result = runWorkload(args, args.seconds, nullptr, fleet.get(),
                                 1, fleet_setup_s);
            double rss = selfPeakRssMb();
            if (fleet)
                rss += fleet->peakRssMb();
            result.metrics.add("peak_rss_mb", rss, "MiB");
            const double attempted =
                static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
            result.metrics.add("error_rate",
                               static_cast<double>(result.failed) / attempted,
                               "fraction");
            result.metrics.print("end-to-end metrics:");
            out = result.metrics.select(kEndToEnd);
        } else {
            const double half = args.seconds / 2;
            result = runWorkload(args, half, nullptr, fleet.get(), 1, 0);
            Tracer tr;
            RunOutcome traced =
                runWorkload(args, half, &tr, fleet.get(), 100001, 0);
            merge(result, traced);
            const double overhead =
                1.0 - traced.primary_rate / result.primary_rate;
            const double coverage = printSelfTimes(tr);
            const std::string trace_path =
                args.work_dir + "/trace-" + args.workload + "-" +
                std::to_string(args.seed) + ".json";
            if (tr.save(trace_path))
                std::printf("chrome trace: %s\n", trace_path.c_str());
            std::printf("span coverage of traced wall time: %.4f "
                        "(tracing overhead %.4f)\n",
                        coverage, overhead);

            RunOutcome probes;
            double gen_late = traced.gen_late_us_p99;
            probeMatcher(args, out, probes);
            probeEngine(out, probes);
            probeServe(args, out, probes, gen_late);
            probeLadder(*fleet, out, probes);
            merge(result, probes);
            out.add("gen.late_us_p99", gen_late, "us");
            out.add("trace.overhead_frac", overhead, "fraction");
            out.add("trace.coverage_frac", coverage, "fraction");
            out.print("per-layer metrics:");
        }
        fleet.reset();
        std::filesystem::remove_all(args.work_dir + "/serve-" +
                                    std::to_string(::getpid()));

        for (const std::string &f : result.check_failures)
            std::printf("CHECK FAILED: %s\n", f.c_str());
        const bool ok = result.correct();
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    ok ? "true" : "false",
                    static_cast<unsigned long long>(
                        std::max<std::uint64_t>(result.attempted, 1)),
                    static_cast<unsigned long long>(result.failed),
                    out.json().c_str());
        return ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
