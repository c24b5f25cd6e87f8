/**
 * @file
 * Standby: the receiving end of WAL shipping.
 *
 * Listens for worker ship connections and maintains, per shard, a
 * replica state directory with exactly the layout a worker's shard
 * dir has (`<dir>/shard-<gsid>/session-0/{wal.plog, snap-*.psnap}`).
 * Promote is therefore not a special code path at all: a Worker
 * serving over the same root directory opens the shard with
 * restore=true and durable::Manager::recover() does the rest —
 * torn-tail truncation, seq-gap rejection, bounded replay, verbatim.
 *
 * Replication discipline (asynchronous, checkpoint-anchored):
 *  - a shipped snapshot installs atomically, resets the replica WAL
 *    and re-anchors the accepted sequence;
 *  - a frame must extend the replica contiguously (seq == last+1);
 *    duplicates (seq <= last) are dropped silently — the primary may
 *    resend across reconnects — and a GAP marks the replica lagging:
 *    frames are dropped until the next snapshot re-anchors it, so a
 *    lossy stream degrades recovery freshness, never correctness;
 *  - every received frame is CRC-revalidated by WalWriter's
 *    appendRawFrame before touching the replica log, and a replica
 *    WAL reopened after a standby crash is torn-tail-truncated
 *    exactly like local recovery.
 */

#ifndef PSM_CLUSTER_STANDBY_HPP
#define PSM_CLUSTER_STANDBY_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/socket.hpp"
#include "durable/wal.hpp"
#include "ops5/production.hpp"

namespace psm::cluster {

struct StandbyOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< ship listen port; 0 = ephemeral

    /** Replica root; doubles as the promote Worker's state dir. */
    std::string dir;

    /** Replica snapshots retained per shard. */
    std::size_t keep_snapshots = 2;
};

/** One shard's replica health (for scrapes and the failover bound:
 *  promote replays at most `frames_since_snapshot` records). */
struct ReplicaStats
{
    std::uint64_t gsid = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t frames_applied = 0;
    std::uint64_t frames_since_snapshot = 0;
    std::uint64_t gap_drops = 0;
    std::uint64_t snapshots_installed = 0;
    bool lagging = false;
};

class Standby
{
  public:
    Standby(std::shared_ptr<const ops5::Program> program,
            StandbyOptions options);
    ~Standby();

    Standby(const Standby &) = delete;
    Standby &operator=(const Standby &) = delete;

    std::uint16_t port() const { return server_.port(); }

    void start();
    void stop();

    /** Closes the replica writer for @p gsid so a promoting Worker
     *  can recover the directory exclusively (Worker::on_open_shard
     *  hook). Frames arriving afterwards are dropped. */
    void releaseShard(std::uint64_t gsid);

    std::vector<ReplicaStats> replicaStats() const;

    /** Replica-plane summary as a JSON object string. */
    std::string statsJson() const;

  private:
    struct Replica;

    void serveConn(Connection &conn);
    void handleSnapshot(const Frame &frame);
    void handleFrame(const Frame &frame);
    Replica *openReplica(std::uint64_t gsid);
    std::string sessionDir(std::uint64_t gsid) const;

    std::shared_ptr<const ops5::Program> program_;
    StandbyOptions options_;
    std::uint64_t fingerprint_;

    mutable std::mutex mu_;
    std::map<std::uint64_t, std::unique_ptr<Replica>> replicas_;
    std::set<std::uint64_t> released_;

    ConnectionServer server_; ///< last: its threads use the above
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_STANDBY_HPP
