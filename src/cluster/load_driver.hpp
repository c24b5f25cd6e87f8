/**
 * @file
 * Cluster client and load driver.
 *
 * Client: a blocking connection to the router (or directly to a
 * worker — same protocol) with synchronous RPCs and a pipelined
 * submit path. Submit outcomes are three-valued: a typed WireResponse
 * (possibly an admission rejection), a routed Error (e.g. "slot 2
 * died" mid-failover), or transport loss — the load driver counts
 * all three rather than conflating them, because E20's failover
 * experiment is precisely about their proportions over time.
 *
 * Load driver: extends the serve layer's closed/paced mix across the
 * process boundary. Each client thread owns one connection, is bound
 * to one global session id, and plays the E15 iteration (assert
 * burst → optional Run → retract by tag). Every response is recorded
 * as a timestamped sample so callers can compute windowed
 * percentiles — p99 before vs after a shard kill — not just
 * whole-run aggregates.
 */

#ifndef PSM_CLUSTER_LOAD_DRIVER_HPP
#define PSM_CLUSTER_LOAD_DRIVER_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/socket.hpp"
#include "ops5/production.hpp"
#include "serve/wire.hpp"

namespace psm::cluster {

/** One blocking protocol connection. Not thread safe. */
class Client
{
  public:
    Client(const std::string &host, std::uint16_t port);

    /** Outcome of one submit (or pipelined reply). */
    struct Reply
    {
        std::uint64_t req_id = 0;
        bool error = false; ///< routed Error (dead slot, bad frame)
        std::string error_text;
        serve::WireResponse resp; ///< valid when !error
    };

    /** Synchronous submit round-trip. ClusterError on transport
     *  loss; routed errors come back in the Reply. */
    Reply submit(std::uint64_t gsid, const serve::WireRequest &req);

    /** Pipelined path: send now, collect with readReply() later.
     *  Accepted requests of one gsid reply in send order, but a
     *  typed rejection or Error may overtake them: match replies by
     *  the returned req_id. ClusterError on transport loss. */
    std::uint64_t sendSubmit(std::uint64_t gsid,
                             const serve::WireRequest &req);
    Reply readReply();

    /** Ensures a shard exists (restore = warm-start from existing
     *  state); returns the worker's ShardInfo JSON. */
    std::string openShard(std::uint64_t gsid, bool restore);

    /** Live-migrates a session (router only). Returns ShardInfo. */
    std::string migrate(std::uint64_t gsid, std::uint32_t target_slot);

    /** Scrapes one worker slot, or the router itself with
     *  slot == kRouterScrape. */
    static constexpr std::uint64_t kRouterScrape = ~0ULL;
    std::string scrape(std::uint64_t slot, ScrapeKind kind);

    void ping();

  private:
    Frame rpc(Frame frame);

    Fd fd_;
    std::uint64_t next_req_id_ = 1;
};

struct ClusterLoadConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    std::size_t sessions = 2;      ///< gsids first_gsid..+sessions-1
    std::uint64_t first_gsid = 1;
    std::size_t clients_per_session = 1;
    std::size_t iterations = 100; ///< per client
    std::size_t asserts_per_iteration = 4;
    std::uint64_t run_cycles = 0; ///< 0 = no Run per iteration

    std::chrono::microseconds deadline{0};
    double arrival_rate_hz = 0.0; ///< per client; 0 = closed loop
};

/** One response, stamped relative to load start. */
struct ClusterSample
{
    double t_ms = 0.0;
    double latency_us = 0.0;
    std::uint64_t gsid = 0;
};

struct ClusterLoadResult
{
    double elapsed_seconds = 0.0;
    std::uint64_t completed = 0; ///< typed responses received
    std::uint64_t rejected = 0;  ///< admission rejections
    std::uint64_t expired = 0;   ///< deadline-expired completions
    std::uint64_t errors = 0;    ///< routed errors + transport loss
    double requests_per_sec = 0.0;

    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;

    std::vector<ClusterSample> samples;
};

/**
 * Percentile of sample latencies within [from_ms, to_ms), optionally
 * restricted by a gsid filter (nullptr = all). The E20 harness uses
 * this for "surviving shards' p99 after the kill".
 */
double windowPercentile(
    const std::vector<ClusterSample> &samples, double from_ms,
    double to_ms, double pct,
    const std::function<bool(std::uint64_t)> &gsid_filter = {});

/** Runs the load against a router endpoint. The program supplies the
 *  request vocabulary (its initial WMEs are the class/field
 *  templates), exactly like the in-process driver. */
ClusterLoadResult
runClusterLoad(const std::shared_ptr<const ops5::Program> &program,
               const ClusterLoadConfig &config);

} // namespace psm::cluster

#endif // PSM_CLUSTER_LOAD_DRIVER_HPP
