/**
 * @file
 * Cluster router: the front-end process that owns session placement.
 *
 * Clients speak the same framed protocol as workers; the router
 * switches Submit frames on the gsid prefix without decoding bodies
 * (it is program-agnostic by construction), multiplexing every
 * session onto one connection per worker and correlating replies by
 * re-written req_id.
 *
 * Placement: a consistent-hash ring over worker slots, plus a pin
 * map for sessions that migration moved off their ring position.
 * Failover re-points a dead slot's traffic at the standby:
 *
 *   1. the worker link's reader sees EOF/error (SIGKILL closes the
 *      socket) and marks the link down;
 *   2. every pending request on that link is answered with Error —
 *      typed failure, never a hang;
 *   3. every gsid placed on the dead slot is re-opened on the
 *      standby with restore=true (bounded replay from the shipped
 *      snapshot + frames) and pinned there;
 *   4. the ring swaps the dead slot for the standby slot, so new
 *      sessions hash onto the survivor set.
 *
 * Live migration of one session: quiesce (buffer new submits, wait
 * out in-flight ones), DropShard on the source (drain + checkpoint),
 * OpenShard(restore) on the target, pin the ring entry, replay the
 * buffer. Requests admitted before the migration complete on the
 * source; requests buffered during it complete on the target; none
 * are dropped.
 */

#ifndef PSM_CLUSTER_ROUTER_HPP
#define PSM_CLUSTER_ROUTER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/protocol.hpp"
#include "cluster/socket.hpp"

namespace psm::cluster {

struct Endpoint
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

struct RouterOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< client listen port; 0 = ephemeral

    /** Worker endpoints; index = ring slot. */
    std::vector<Endpoint> workers;

    /** Standby endpoint (slot = workers.size()); port 0 = none. */
    Endpoint standby{};

    std::size_t vnodes = 64;

    /** Milliseconds to wait for a session to quiesce in migrate(). */
    int quiesce_timeout_ms = 30000;
};

/** Router-level counters (exposed via /stats.json extras). */
struct RouterStats
{
    std::uint64_t forwarded = 0;
    std::uint64_t replies = 0;
    std::uint64_t errors = 0;    ///< Error replies sent to clients
    std::uint64_t failovers = 0; ///< dead links failed over
    std::uint64_t failover_sessions = 0;
    std::uint64_t failover_replayed_frames = 0;
    std::uint64_t migrations = 0;
    std::size_t sessions = 0; ///< placements known
    std::size_t links_up = 0;
};

class Router
{
  public:
    explicit Router(RouterOptions options);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    std::uint16_t port() const { return server_.port(); }

    /** Connects worker links and starts serving (background). */
    void start();
    void stop();

    /**
     * Migrates @p gsid to @p target_slot (quiesce → drop → restore →
     * pin). Returns the target's ShardInfo JSON. ClusterError when
     * the target is down or quiescing times out.
     */
    std::string migrate(std::uint64_t gsid, std::uint32_t target_slot);

    /** Proxies a Scrape to one worker slot. ClusterError when the
     *  slot is down. */
    std::string scrapeWorker(std::uint32_t slot, ScrapeKind kind);

    RouterStats stats() const;

    /** Cluster overview as `"key": value` JSON members (the
     *  MetricsHub extra-JSON contract). */
    std::string extraJson() const;

    /** Cluster overview as exposition text lines. */
    std::string extraExposition() const;

  private:
    struct PendingCall;
    struct Link;

    void serveClient(const std::shared_ptr<Connection> &client);
    void linkReader(Link *link);
    void connectLink(Link &link);
    void failover(Link &link);
    void forwardSubmit(const std::shared_ptr<Connection> &client,
                       const Frame &frame);
    bool sendOnLink(Link &link, Frame frame, PendingCall pending,
                    std::uint64_t *out_req_id = nullptr);
    Frame call(Link &link, Frame frame);
    std::uint32_t slotForSession(std::uint64_t gsid);
    Link *linkForSlot(std::uint32_t slot);
    void replyError(const std::shared_ptr<Connection> &client,
                    std::uint64_t req_id, std::uint64_t gsid,
                    const std::string &what);
    void finishOutstanding(std::uint64_t gsid);

    RouterOptions options_;

    std::vector<std::unique_ptr<Link>> links_; ///< index = slot

    mutable std::mutex place_mu_;
    HashRing ring_;
    std::unordered_map<std::uint64_t, std::uint32_t> placements_;
    std::unordered_map<std::uint64_t, std::uint64_t> outstanding_;
    std::condition_variable quiesced_cv_;
    /** Sessions mid-migration; their submits buffer here. */
    std::map<std::uint64_t,
             std::vector<std::pair<std::shared_ptr<Connection>,
                                   Frame>>>
        migrating_;

    std::atomic<std::uint64_t> next_req_id_{1};
    std::atomic<std::uint64_t> n_forwarded_{0};
    std::atomic<std::uint64_t> n_replies_{0};
    std::atomic<std::uint64_t> n_errors_{0};
    std::atomic<std::uint64_t> n_failovers_{0};
    std::atomic<std::uint64_t> n_failover_sessions_{0};
    std::atomic<std::uint64_t> n_failover_replayed_{0};
    std::atomic<std::uint64_t> n_migrations_{0};

    std::atomic<bool> stopping_{false};

    ConnectionServer server_; ///< last: its threads use the above
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_ROUTER_HPP
