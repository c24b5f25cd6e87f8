/**
 * @file
 * Cluster worker: one process serving a set of session shards.
 *
 * A shard is one global session id (gsid) backed by a single-session
 * SessionPool over `<dir>/shard-<gsid>/` — the same drain→snapshot→
 * restore machinery the serving layer already has, which is what
 * makes migration and failover "free": opening a shard with restore
 * IS recovery, dropping one with checkpoint IS the migration source
 * side.
 *
 * Connection model: one thread per connection (ConnectionServer).
 * That thread decodes each Submit and hands it straight to its
 * shard's pool with a completion callback; the pool's server thread
 * encodes the Reply and sends it under the connection's write lock.
 * No thread waits per request, and a pipelined session's requests
 * reach the pool together, so they fold into one match batch and
 * one WAL sync. OpenShard and DropShard run on the connection thread
 * itself (the router sends them one at a time and quiesces a gsid
 * before dropping it); a drop drains the pool, which returns only
 * after every accepted request's callback has run.
 *
 * Ordering: accepted requests of one gsid reply in arrival order —
 * the session queue is a FIFO and the pool completes it in queue
 * order. A typed admission rejection, or an Error for a frame that
 * does not decode, is answered at once from the connection thread
 * and may overtake replies still owed to the same gsid; clients that
 * pipeline match replies by req_id.
 *
 * WAL shipping: when a standby endpoint is configured, every shard's
 * durable::Manager gets a WalShipSink that forwards committed frames
 * and checkpoint snapshots over one shared TCP connection. Shipping
 * is asynchronous replication — a send failure marks the channel down
 * and DROPS frames (never blocks or fails the primary); the channel
 * reconnects and resyncs at the next checkpoint, when a fresh
 * snapshot makes dropped frames redundant.
 */

#ifndef PSM_CLUSTER_WORKER_HPP
#define PSM_CLUSTER_WORKER_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/socket.hpp"
#include "durable/manager.hpp"
#include "serve/session_pool.hpp"

namespace psm::cluster {

struct WorkerOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral; read back with port()

    /** Ring slot this worker fills (identity in scrapes/shipping). */
    std::uint32_t slot = 0;

    /** State root; shards persist under `<dir>/shard-<gsid>/`.
     *  Empty disables durability (and with it shipping). */
    std::string dir;

    serve::MatcherSpec matcher{};
    ops5::Strategy strategy = ops5::Strategy::Lex;
    std::size_t queue_capacity = 1024;
    std::size_t shed_watermark = 0;
    std::size_t max_batch = 64;
    std::uint64_t default_run_cycles = 10000;

    durable::FsyncPolicy fsync = durable::FsyncPolicy::Batch;
    durable::CheckpointPolicy checkpoint{};

    /** Standby to ship WAL frames to; empty host disables. */
    std::string ship_host;
    std::uint16_t ship_port = 0;
};

/** Shipping-channel health counters (scraped via /metrics). */
struct ShipStats
{
    std::uint64_t frames = 0;    ///< WAL frames shipped
    std::uint64_t snapshots = 0; ///< checkpoint snapshots shipped
    std::uint64_t dropped = 0;   ///< frames dropped while down
    std::uint64_t reconnects = 0;
    bool connected = false;
};

class Worker
{
  public:
    Worker(std::shared_ptr<const ops5::Program> program,
           WorkerOptions options);
    ~Worker();

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    /** The bound listen port (after construction). */
    std::uint16_t port() const { return server_.port(); }

    /** Serves on background threads until stop(). */
    void start();

    /** Stops the accept loop, closes connections, drains shards. */
    void stop();

    /** Invoked (if set) right before a shard directory is opened —
     *  the standby composition closes its replica writers here so
     *  promote-by-restore never has two writers on one WAL. Set
     *  before start(). */
    std::function<void(std::uint64_t)> on_open_shard;

    /** Extra JSON object spliced into the scrape stats as
     *  `"standby": ...` — the standby composition reports its
     *  replica plane here. Set before start(). */
    std::function<std::string()> extra_stats_json;

    ShipStats shipStats() const;

    static std::string shardDir(const std::string &root,
                                std::uint64_t gsid);

  private:
    struct Shard;
    struct ShipChannel;
    class ShipSink;

    void serveConn(const std::shared_ptr<Connection> &conn);
    void submit(const std::shared_ptr<Connection> &conn,
                const Frame &frame);
    std::shared_ptr<Shard> openShard(std::uint64_t gsid,
                                     bool restore);
    void dropShard(Connection &conn, const Frame &frame);
    std::vector<std::pair<std::uint64_t, std::shared_ptr<Shard>>>
    shardList();
    std::string shardInfoJson(std::uint64_t gsid, const Shard &shard);
    std::string statsJson();
    std::string metricsText();

    std::shared_ptr<const ops5::Program> program_;
    WorkerOptions options_;

    std::mutex shards_mu_;
    std::map<std::uint64_t, std::shared_ptr<Shard>> shards_;

    std::unique_ptr<ShipChannel> ship_;

    ConnectionServer server_; ///< last: its threads use the above
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_WORKER_HPP
