#include "cluster/worker.hpp"

#include <sstream>

#include "durable/format.hpp"
#include "serve/wire.hpp"

namespace psm::cluster {

namespace {

void
appendU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

} // namespace

/** One standby connection shared by every shard's sink. */
struct Worker::ShipChannel
{
    std::string host;
    std::uint16_t port;
    std::uint32_t slot;

    std::mutex mu;
    Fd fd;
    bool connected = false;
    std::uint64_t frames = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t dropped = 0;
    std::uint64_t reconnects = 0;

    ShipChannel(std::string h, std::uint16_t p, std::uint32_t s)
        : host(std::move(h)), port(p), slot(s)
    {}

    /** Connects and says hello; caller holds mu. */
    bool
    ensureConnected()
    {
        if (connected)
            return true;
        try {
            fd = connectTcp(host, port);
        } catch (const ClusterError &) {
            return false;
        }
        Frame hello;
        hello.msg = Msg::ShipHello;
        hello.gsid = 0;
        appendU64(hello.body, slot);
        if (!sendFrame(fd.get(), hello)) {
            fd.reset();
            return false;
        }
        connected = true;
        ++reconnects;
        return true;
    }

    /** Best-effort send; a failure marks the channel down. Caller
     *  holds mu. */
    bool
    sendLocked(const Frame &frame)
    {
        if (!connected)
            return false;
        if (!sendFrame(fd.get(), frame)) {
            connected = false;
            fd.reset();
            return false;
        }
        return true;
    }
};

/**
 * Per-shard WalShipSink: forwards frames over the shared channel.
 * Frames are dropped while the channel is down (asynchronous
 * replication never fails the primary); checkpoints reconnect,
 * because a fresh snapshot supersedes everything dropped before it.
 */
class Worker::ShipSink : public durable::WalShipSink
{
  public:
    ShipSink(ShipChannel &chan, std::uint64_t gsid)
        : chan_(chan), gsid_(gsid)
    {}

    void
    onWalFrame(std::uint64_t seq,
               std::span<const std::uint8_t> frame) override
    {
        Frame f;
        f.msg = Msg::WalFrame;
        f.gsid = gsid_;
        f.body.reserve(8 + frame.size());
        appendU64(f.body, seq);
        f.body.insert(f.body.end(), frame.begin(), frame.end());
        std::lock_guard<std::mutex> lk(chan_.mu);
        if (chan_.sendLocked(f))
            ++chan_.frames;
        else
            ++chan_.dropped;
    }

    void
    onCheckpoint(std::uint64_t seq,
                 const std::string &snapshot_path) override
    {
        std::vector<std::uint8_t> snap;
        try {
            snap = durable::readFileAll(snapshot_path);
        } catch (const durable::DurableError &) {
            return; // pruned already? nothing to ship
        }
        Frame f;
        f.msg = Msg::WalSnapshot;
        f.gsid = gsid_;
        f.body.reserve(8 + snap.size());
        appendU64(f.body, seq);
        f.body.insert(f.body.end(), snap.begin(), snap.end());
        std::lock_guard<std::mutex> lk(chan_.mu);
        // The checkpoint boundary is the resync point: right after a
        // local checkpoint the WAL is empty, so a reconnect here
        // leaves the standby exactly one snapshot behind nothing.
        if (!chan_.connected)
            chan_.ensureConnected();
        if (chan_.sendLocked(f))
            ++chan_.snapshots;
        else
            ++chan_.dropped;
    }

  private:
    ShipChannel &chan_;
    std::uint64_t gsid_;
};

struct Worker::Shard
{
    std::unique_ptr<ShipSink> ship; ///< must outlive the pool
    std::unique_ptr<serve::SessionPool> pool;
    durable::RecoveryStats recovery;
    bool restored = false;
};

Worker::Worker(std::shared_ptr<const ops5::Program> program,
               WorkerOptions options)
    : program_(std::move(program)), options_(std::move(options)),
      server_(options_.host, options_.port,
              [this](const std::shared_ptr<Connection> &conn) {
                  serveConn(conn);
              })
{
    if (!options_.ship_host.empty() && !options_.dir.empty())
        ship_ = std::make_unique<ShipChannel>(
            options_.ship_host, options_.ship_port, options_.slot);
}

Worker::~Worker() { stop(); }

std::string
Worker::shardDir(const std::string &root, std::uint64_t gsid)
{
    return root + "/shard-" + std::to_string(gsid);
}

void
Worker::start()
{
    server_.start();
}

void
Worker::stop()
{
    server_.stop();
    // Pools drain (and, per policy, checkpoint) in their destructors;
    // replies still owed go to connections that are shut down.
    std::map<std::uint64_t, std::shared_ptr<Shard>> shards;
    {
        std::lock_guard<std::mutex> lk(shards_mu_);
        shards.swap(shards_);
    }
}

void
Worker::serveConn(const std::shared_ptr<Connection> &conn)
{
    Frame frame;
    for (;;) {
        bool ok;
        try {
            ok = recvFrame(conn->fd.get(), frame);
        } catch (const ClusterError &e) {
            sendFrame(conn->fd.get(),
                      Frame::text(Msg::Error, 0, 0, e.what()),
                      &conn->write_mu);
            break;
        }
        if (!ok)
            break;
        try {
            switch (frame.msg) {
              case Msg::Submit: submit(conn, frame); break;
              case Msg::OpenShard: {
                const bool restore =
                    !frame.body.empty() && frame.body[0] != 0;
                std::shared_ptr<Shard> shard =
                    openShard(frame.gsid, restore);
                sendFrame(conn->fd.get(),
                          Frame::text(Msg::ShardInfo, frame.req_id,
                                      frame.gsid,
                                      shardInfoJson(frame.gsid,
                                                    *shard)),
                          &conn->write_mu);
                break;
              }
              case Msg::DropShard: dropShard(*conn, frame); break;
              case Msg::Scrape: {
                const ScrapeKind kind =
                    !frame.body.empty() &&
                            frame.body[0] ==
                                static_cast<std::uint8_t>(
                                    ScrapeKind::Metrics)
                        ? ScrapeKind::Metrics
                        : ScrapeKind::StatsJson;
                std::string text = kind == ScrapeKind::Metrics
                                       ? metricsText()
                                       : statsJson();
                sendFrame(conn->fd.get(),
                          Frame::text(Msg::ScrapeText, frame.req_id, 0,
                                      text),
                          &conn->write_mu);
                break;
              }
              case Msg::Ping: {
                Frame pong;
                pong.msg = Msg::Pong;
                pong.req_id = frame.req_id;
                sendFrame(conn->fd.get(), pong, &conn->write_mu);
                break;
              }
              default:
                throw ClusterError(std::string("unexpected ") +
                                   msgName(frame.msg));
            }
        } catch (const std::exception &e) {
            sendFrame(conn->fd.get(),
                      Frame::text(Msg::Error, frame.req_id, frame.gsid,
                                  e.what()),
                      &conn->write_mu);
        }
    }
}

void
Worker::submit(const std::shared_ptr<Connection> &conn,
               const Frame &frame)
{
    serve::WireRequest wreq = serve::decodeRequest(frame.body);
    serve::Request req = serve::fromWire(wreq, program_->symbols());
    // Auto-open: a submit to a shard this worker has never seen
    // warm-starts it when state exists (failover) and creates it
    // fresh otherwise.
    std::shared_ptr<Shard> shard = openShard(frame.gsid, true);
    auto reply = [conn, req_id = frame.req_id,
                  gsid = frame.gsid](const serve::WireResponse &w) {
        Frame out;
        out.msg = Msg::Reply;
        out.req_id = req_id;
        out.gsid = gsid;
        out.body = serve::encodeResponse(w);
        sendFrame(conn->fd.get(), out, &conn->write_mu);
    };
    // The reply leaves from the pool's server thread, in the gsid's
    // queue order; a rejection is answered from here, at once.
    const serve::RejectReason why = shard->pool->submit(
        0, std::move(req), [reply](serve::Response &&resp) {
            reply(serve::toWire(resp));
        });
    if (why != serve::RejectReason::None)
        reply(serve::rejectionResponse(wreq.kind, why));
}

std::shared_ptr<Worker::Shard>
Worker::openShard(std::uint64_t gsid, bool restore)
{
    // Held across construction so one gsid never gets two pools (two
    // WAL writers on one directory). A new pool has no requests yet,
    // so nothing here can wait on a completion.
    std::lock_guard<std::mutex> lk(shards_mu_);
    auto it = shards_.find(gsid);
    if (it != shards_.end())
        return it->second;

    if (on_open_shard)
        on_open_shard(gsid);

    auto shard = std::make_shared<Shard>();
    serve::PoolOptions po;
    po.n_sessions = 1;
    po.n_threads = 1;
    po.queue_capacity = options_.queue_capacity;
    po.shed_watermark = options_.shed_watermark;
    po.max_batch = options_.max_batch;
    po.default_run_cycles = options_.default_run_cycles;
    po.matcher = options_.matcher;
    po.strategy = options_.strategy;
    if (!options_.dir.empty()) {
        po.durability.dir = shardDir(options_.dir, gsid);
        po.durability.fsync = options_.fsync;
        po.durability.checkpoint = options_.checkpoint;
        if (ship_) {
            shard->ship =
                std::make_unique<ShipSink>(*ship_, gsid);
            po.durability.ship = shard->ship.get();
        }
        po.restore = restore;
    }
    shard->pool =
        std::make_unique<serve::SessionPool>(program_, po);
    if (!options_.dir.empty()) {
        shard->recovery = shard->pool->recoveryStats(0);
        shard->restored = shard->recovery.recovered;
        // Baseline ship: a checkpoint right after open puts a full
        // snapshot on the standby before any live frame refers to it.
        if (ship_)
            shard->pool->checkpointAll();
    }
    shards_.emplace(gsid, shard);
    return shard;
}

void
Worker::dropShard(Connection &conn, const Frame &frame)
{
    const std::uint64_t gsid = frame.gsid;
    std::shared_ptr<Shard> shard;
    {
        std::lock_guard<std::mutex> lk(shards_mu_);
        auto it = shards_.find(gsid);
        if (it != shards_.end()) {
            shard = std::move(it->second);
            shards_.erase(it);
        }
    }
    std::ostringstream info;
    if (shard) {
        // drain() returns once every admitted request's reply has
        // left and, with the default on_drain policy, checkpoints —
        // the migration source's handoff snapshot.
        shard->pool->drain();
        serve::SessionPool::Stats st = shard->pool->stats();
        shard.reset();
        info << "{\"gsid\": " << gsid << ", \"dropped\": true"
             << ", \"completed\": " << st.completed << "}";
    } else {
        info << "{\"gsid\": " << gsid << ", \"dropped\": false}";
    }
    sendFrame(conn.fd.get(),
              Frame::text(Msg::ShardInfo, frame.req_id, gsid,
                          info.str()),
              &conn.write_mu);
}

std::vector<std::pair<std::uint64_t, std::shared_ptr<Worker::Shard>>>
Worker::shardList()
{
    std::lock_guard<std::mutex> lk(shards_mu_);
    return {shards_.begin(), shards_.end()};
}

std::string
Worker::shardInfoJson(std::uint64_t gsid, const Shard &shard)
{
    std::ostringstream os;
    os << "{\"gsid\": " << gsid
       << ", \"restored\": " << (shard.restored ? "true" : "false")
       << ", \"snapshot_seq\": " << shard.recovery.snapshot_seq
       << ", \"wal_records_replayed\": "
       << shard.recovery.wal_records_replayed
       << ", \"wal_truncated\": "
       << (shard.recovery.wal_truncated ? "true" : "false") << "}";
    return os.str();
}

ShipStats
Worker::shipStats() const
{
    ShipStats out;
    if (!ship_)
        return out;
    std::lock_guard<std::mutex> lk(ship_->mu);
    out.frames = ship_->frames;
    out.snapshots = ship_->snapshots;
    out.dropped = ship_->dropped;
    out.reconnects = ship_->reconnects;
    out.connected = ship_->connected;
    return out;
}

std::string
Worker::statsJson()
{
    std::ostringstream os;
    os << "{\"worker_slot\": " << options_.slot << ", \"shards\": [";
    bool first = true;
    for (const auto &[gsid, shard] : shardList()) {
        serve::SessionPool::Stats st = shard->pool->stats();
        os << (first ? "" : ", ") << "{\"gsid\": " << gsid
           << ", \"admitted\": " << st.admitted
           << ", \"completed\": " << st.completed
           << ", \"expired\": " << st.expired
           << ", \"rejected_full\": " << st.rejected_full
           << ", \"rejected_overload\": " << st.rejected_overload
           << ", \"rejected_shutdown\": " << st.rejected_shutdown
           << ", \"batches\": " << st.batches
           << ", \"restored\": "
           << (shard->restored ? "true" : "false")
           << ", \"wal_records_replayed\": "
           << shard->recovery.wal_records_replayed << "}";
        first = false;
    }
    ShipStats ship = shipStats();
    os << "], \"ship\": {\"connected\": "
       << (ship.connected ? "true" : "false")
       << ", \"frames\": " << ship.frames
       << ", \"snapshots\": " << ship.snapshots
       << ", \"dropped\": " << ship.dropped
       << ", \"reconnects\": " << ship.reconnects << "}";
    if (extra_stats_json)
        os << ", \"standby\": " << extra_stats_json();
    os << "}";
    return os.str();
}

std::string
Worker::metricsText()
{
    std::ostringstream os;
    os << "# HELP psm_worker_shards Shards open on this worker.\n"
       << "# TYPE psm_worker_shards gauge\n"
       << "psm_worker_shards{slot=\"" << options_.slot << "\"} ";
    const auto shards = shardList();
    os << shards.size() << "\n";
    struct Col
    {
        const char *name;
        const char *help;
        std::uint64_t serve::SessionPool::Stats::*field;
    };
    static const Col cols[] = {
        {"psm_worker_shard_admitted_total",
         "Requests admitted per shard.",
         &serve::SessionPool::Stats::admitted},
        {"psm_worker_shard_completed_total",
         "Responses delivered per shard.",
         &serve::SessionPool::Stats::completed},
        {"psm_worker_shard_expired_total",
         "Deadline-expired completions per shard.",
         &serve::SessionPool::Stats::expired},
        {"psm_worker_shard_batches_total",
         "Match batches committed per shard.",
         &serve::SessionPool::Stats::batches},
    };
    for (const Col &col : cols) {
        os << "# HELP " << col.name << " " << col.help << "\n"
           << "# TYPE " << col.name << " counter\n";
        for (const auto &[gsid, shard] : shards) {
            serve::SessionPool::Stats st = shard->pool->stats();
            os << col.name << "{slot=\"" << options_.slot
               << "\",gsid=\"" << gsid << "\"} " << st.*(col.field)
               << "\n";
        }
    }
    ShipStats ship = shipStats();
    os << "# HELP psm_worker_ship_frames_total WAL frames shipped.\n"
       << "# TYPE psm_worker_ship_frames_total counter\n"
       << "psm_worker_ship_frames_total " << ship.frames << "\n"
       << "# HELP psm_worker_ship_snapshots_total Snapshots shipped.\n"
       << "# TYPE psm_worker_ship_snapshots_total counter\n"
       << "psm_worker_ship_snapshots_total " << ship.snapshots << "\n"
       << "# HELP psm_worker_ship_dropped_total Frames dropped while "
          "the ship channel was down.\n"
       << "# TYPE psm_worker_ship_dropped_total counter\n"
       << "psm_worker_ship_dropped_total " << ship.dropped << "\n"
       << "# HELP psm_worker_ship_connected Ship channel liveness.\n"
       << "# TYPE psm_worker_ship_connected gauge\n"
       << "psm_worker_ship_connected " << (ship.connected ? 1 : 0)
       << "\n";
    return os.str();
}

} // namespace psm::cluster
