/**
 * @file
 * Cluster client and the load driver's protocol channel.
 *
 * Client: a blocking connection to the router (or directly to a
 * worker — same protocol) with synchronous RPCs and a pipelined
 * submit path. Submit outcomes are three-valued: a typed WireResponse
 * (possibly an admission rejection), a routed Error (e.g. "slot 2
 * died" mid-failover), or transport loss — the load driver counts
 * them apart, because E20's failover experiment is precisely about
 * their proportions over time.
 *
 * ClientChannel: carries serve::runLoad's E15 iteration across the
 * process boundary, one connection per client thread.
 */

#ifndef PSM_CLUSTER_LOAD_DRIVER_HPP
#define PSM_CLUSTER_LOAD_DRIVER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/socket.hpp"
#include "ops5/production.hpp"
#include "serve/load_driver.hpp"
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

/**
 * serve::runLoad's channel over one protocol connection: session s is
 * gsid first_gsid + s, replies match tokens by req_id, and done_at is
 * stamped when the reply frame is read. A routed Error answers Lost.
 * Transport loss answers everything in flight Lost and drops the
 * connection; the next send makes one connection attempt, and once
 * an attempt fails every later send answers Lost. Nothing is resent.
 */
class ClientChannel : public serve::Channel
{
  public:
    ClientChannel(std::string host, std::uint16_t port,
                  std::uint64_t first_gsid,
                  const ops5::Program &program);

    std::uint64_t send(std::size_t session,
                       const serve::Op &op) override;
    serve::Answer wait(std::uint64_t token) override;

  private:
    /** Answers everything in flight Lost and drops the connection. */
    void lose();

    std::string host_;
    std::uint16_t port_;
    std::uint64_t first_gsid_;
    std::vector<serve::WireRequest> templates_;
    std::unique_ptr<Client> client_;
    bool dead_ = false; ///< a connection attempt failed
    std::uint64_t next_token_ = 1;
    std::unordered_map<std::uint64_t, std::uint64_t>
        in_flight_; ///< req_id -> token
    std::unordered_map<std::uint64_t, serve::Answer> answered_;
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_LOAD_DRIVER_HPP
