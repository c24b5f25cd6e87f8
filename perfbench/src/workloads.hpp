/**
 * @file
 * The benchmark's workloads and the layer probes of the traced run.
 *
 * Each run function measures for @p seconds of wall clock, checks the
 * system's outputs against an oracle, and returns the end-to-end
 * metrics. With a tracer it also records a span around every public
 * call it makes. Probes measure single layers for the traced run.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "ops5/production.hpp"

namespace perfbench {

RunOutcome runMatchBatch(const Args &args, double seconds, Tracer *tr);
RunOutcome runFireCycle(const Args &args, double seconds, Tracer *tr);

/** Matcher-layer probe: serial shared/private Rete and the parallel
 *  matcher at 0 and nproc-1 workers on one growth stream, plus
 *  processChanges time by batch size. */
void probeMatcher(const Args &args, Report &out, RunOutcome &checks);

/** Engine-layer probe: daa recognize-act cycles on the parallel
 *  matcher, split by phase, with per-batch match times. */
void probeEngine(Report &out, RunOutcome &checks);

/**
 * Cluster worker processes, forked before the benchmark starts any
 * thread (a fork after threads exist may inherit held locks). Each
 * worker reports its port through a pipe. The destructor kills and
 * reaps every worker.
 */
class WorkerFleet
{
  public:
    WorkerFleet(std::shared_ptr<const ops5::Program> program,
                std::size_t n_workers);
    ~WorkerFleet();
    WorkerFleet(const WorkerFleet &) = delete;
    WorkerFleet &operator=(const WorkerFleet &) = delete;

    const std::vector<std::uint16_t> &ports() const { return ports_; }
    const std::vector<pid_t> &pids() const { return pids_; }

    /** Sum of the workers' peak RSS (MiB). */
    double peakRssMb() const;

  private:
    std::vector<pid_t> pids_;
    std::vector<std::uint16_t> ports_;
};

/** The program every serve/cluster workload and probe runs. */
std::shared_ptr<const ops5::Program> serveProgram();

RunOutcome runServeMixed(const Args &args, double seconds, Tracer *tr);
RunOutcome runClusterMixed(const Args &args, double seconds, Tracer *tr,
                           const WorkerFleet &fleet,
                           std::uint64_t first_gsid,
                           double fleet_setup_s);

/** Serve + durable probe: closed loop with durability on and off,
 *  checkpoint, snapshot size and recovery. */
void probeServe(const Args &args, Report &out, RunOutcome &checks,
                double &gen_late_us_p99);

/** The four-rung ladder (engine, pool, worker, router), one request
 *  in flight, plus worker process facts under load. */
void probeLadder(const WorkerFleet &fleet, Report &out, RunOutcome &checks);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
