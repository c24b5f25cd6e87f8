/**
 * @file
 * Shared pieces of the repository benchmark: arguments, the metric
 * report, the span tracer, sample statistics, host facts and the
 * digests the output checks compare.
 *
 * The benchmark drives each layer only through its public API and
 * times those calls from outside; nothing here instruments src/.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ops5/conflict.hpp"
#include "ops5/wme.hpp"

namespace perfbench {

// The library's layers (ops5, rete, core, serve, durable, cluster,
// workloads) by their short names.
using namespace psm;

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Command-line arguments. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 8.0;
    bool trace = false;
    /** Feed the output check a deliberately wrong oracle input; the
     *  run must then fail (self-check mode). */
    bool corrupt_oracle = false;
    /** Scratch space inside the checkout (state dirs, trace files). */
    std::string work_dir = ".bench_build/perfbench-work";
};

/** Number of hardware threads, at least 1. */
std::size_t hostThreads();

/** Named metrics with units, in insertion order. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** The entries named in @p names, in that order. */
    Report select(const std::vector<std::string> &names) const;

    /** Prints `name = value unit` lines under @p title. */
    void print(const char *title) const;

    /** The `"metrics": {...}` object body. */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Outcome of one workload run. */
struct RunOutcome
{
    Report metrics;              ///< the workload's end-to-end metrics
    double primary_rate = 0.0;   ///< the throughput trace overhead uses
    std::uint64_t attempted = 0; ///< operations attempted
    std::uint64_t failed = 0;    ///< rejected/expired/lost/wrong
    std::vector<std::string> check_failures;
    /** Open-loop generator lateness p99 (µs); < 0 when no open loop. */
    double gen_late_us_p99 = -1.0;

    bool correct() const { return check_failures.empty(); }
    void
    fail(const std::string &what)
    {
        check_failures.push_back(what);
    }
};

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

/** Nearest-rank percentile (0 for an empty sample); sorts a copy. */
double percentile(std::vector<double> v, double pct);
inline double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

/**
 * Per-pass (or per-window) figures are summarised by the quartile on
 * the undisturbed side: the upper quartile of rates and the lower
 * quartile of latencies. On a shared host, interference only ever
 * slows a pass down, so this side moves with the code and much less
 * with the neighbours; medians of the same code moved 25% between runs.
 */
inline double
undisturbedRate(const std::vector<double> &rates)
{
    return percentile(rates, 75);
}

inline double
undisturbedLatency(const std::vector<double> &latencies)
{
    return percentile(latencies, 25);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/**
 * In-memory span recorder. A span is {name, start, end, id, parent,
 * request id, lane}; the parent is the innermost span open on the same
 * thread. Spans are kept per thread and exported at the end as Chrome
 * trace events (rete::saveChromeTrace), the format the repository's
 * matcher span export already uses.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t req = 0;
    };

    Tracer();

    /** RAII span; a null tracer makes it a no-op. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, std::uint64_t req = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        Span span_;
        std::uint64_t saved_parent_ = 0;
    };

    /** Self time (span minus the time its child spans cover) summed
     *  per span name, in seconds. */
    std::map<std::string, double> selfSeconds() const;

    /** Total duration of root spans (no parent), in seconds. */
    double rootSeconds() const;

    /** Sum over threads of first-span-start to last-span-end. */
    double laneWallSeconds() const;

    /** Writes the Chrome trace JSON. */
    bool save(const std::string &path) const;

    std::size_t spanCount() const;

  private:
    struct Lane
    {
        std::vector<Span> spans;
    };
    Lane &lane();

    const std::uint64_t generation_;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Lane>> lanes_;
};

// ---------------------------------------------------------------------------
// Host and process facts
// ---------------------------------------------------------------------------

/** One-line JSON host block: nproc, CPU, compiler, build type,
 *  telemetry, commit, and whether the build is comparable. */
std::string hostJson();

/** Peak RSS of this process in MiB. */
double selfPeakRssMb();

/** VmHWM (MiB) and thread count of @p pid from /proc; 0 if gone. */
double procPeakRssMb(pid_t pid);
int procThreads(pid_t pid);

// ---------------------------------------------------------------------------
// Digests for the output checks
// ---------------------------------------------------------------------------

class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
        h_ *= 0x100000001b3ULL;
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Order-independent digest of a conflict set (keys sorted). */
std::uint64_t conflictDigest(const ops5::ConflictSet &cs);

/** Digest of every live element: tag, class and field values. */
std::uint64_t wmDigest(const ops5::WorkingMemory &wm);

/** Adds one fired instantiation's identity to @p d. */
void addFiring(Digest &d, const ops5::Instantiation &inst);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
