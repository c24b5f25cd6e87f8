#include "cluster/standby.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "durable/format.hpp"
#include "durable/manager.hpp"
#include "durable/snapshot.hpp"

namespace psm::cluster {

namespace fs = std::filesystem;

namespace {

std::uint64_t
bodyU64(const std::vector<std::uint8_t> &body, std::size_t at)
{
    if (body.size() < at + 8)
        throw ClusterError("ship frame body too short");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(body[at + i]) << (8 * i);
    return v;
}

} // namespace

struct Standby::Replica
{
    std::string dir; ///< the session directory
    std::unique_ptr<durable::WalWriter> wal;
    std::uint64_t last_seq = 0;
    std::uint64_t frames_applied = 0;
    std::uint64_t frames_since_snapshot = 0;
    std::uint64_t gap_drops = 0;
    std::uint64_t snapshots_installed = 0;
    bool lagging = false;
};

Standby::Standby(std::shared_ptr<const ops5::Program> program,
                 StandbyOptions options)
    : program_(std::move(program)), options_(std::move(options)),
      fingerprint_(durable::programFingerprint(*program_)),
      server_(options_.host, options_.port,
              [this](const std::shared_ptr<Connection> &conn) {
                  serveConn(*conn);
              })
{}

Standby::~Standby() { stop(); }

void
Standby::start()
{
    server_.start();
}

void
Standby::stop()
{
    server_.stop();
    std::lock_guard<std::mutex> lk(mu_);
    replicas_.clear();
}

void
Standby::serveConn(Connection &conn)
{
    Frame frame;
    for (;;) {
        bool ok;
        try {
            ok = recvFrame(conn.fd.get(), frame);
        } catch (const ClusterError &) {
            break; // not our protocol / corrupt stream: drop the peer
        }
        if (!ok)
            break;
        try {
            switch (frame.msg) {
              case Msg::ShipHello: break; // identity only, no state
              case Msg::WalSnapshot: handleSnapshot(frame); break;
              case Msg::WalFrame: handleFrame(frame); break;
              default: break; // shipping is one-way; ignore the rest
            }
        } catch (const std::exception &) {
            // A bad shard stream must not kill the whole channel;
            // the shard re-anchors at its next shipped snapshot.
        }
    }
}

std::string
Standby::sessionDir(std::uint64_t gsid) const
{
    return options_.dir + "/shard-" + std::to_string(gsid) +
           "/session-0";
}

Standby::Replica *
Standby::openReplica(std::uint64_t gsid)
{
    // Caller holds mu_.
    auto it = replicas_.find(gsid);
    if (it != replicas_.end())
        return it->second.get();

    auto rep = std::make_unique<Replica>();
    rep->dir = sessionDir(gsid);
    std::error_code ec;
    fs::create_directories(rep->dir, ec);
    if (ec)
        throw ClusterError("cannot create replica dir " + rep->dir +
                           ": " + ec.message());

    // A replica reopened after a standby crash may hold a torn tail
    // (we died mid-append) — cut it exactly like local recovery
    // does, then resume from the last intact record.
    const std::string wal_path = rep->dir + "/wal.plog";
    if (fs::exists(wal_path, ec)) {
        durable::WalReadResult scan =
            durable::readWal(wal_path, fingerprint_);
        std::error_code size_ec;
        auto on_disk = fs::file_size(wal_path, size_ec);
        if (!size_ec && on_disk > scan.valid_bytes)
            durable::truncateWal(wal_path, scan.valid_bytes);
        if (!scan.records.empty())
            rep->last_seq = scan.records.back().seq;
    }
    for (const auto &[seq, path] :
         durable::Manager::snapshots(rep->dir)) {
        rep->last_seq = std::max(rep->last_seq, seq);
        break; // newest first
    }
    // Replicas never fsync: standby durability is re-established at
    // every shipped checkpoint, and a lost tail only widens replay.
    rep->wal = std::make_unique<durable::WalWriter>(
        wal_path, durable::FsyncPolicy::None, fingerprint_);

    Replica *raw = rep.get();
    replicas_.emplace(gsid, std::move(rep));
    return raw;
}

void
Standby::handleSnapshot(const Frame &frame)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (released_.count(frame.gsid) != 0)
        return; // promoted: the Worker owns this directory now
    Replica *rep = openReplica(frame.gsid);
    const std::uint64_t seq = bodyU64(frame.body, 0);
    std::vector<std::uint8_t> snap(frame.body.begin() + 8,
                                   frame.body.end());
    durable::writeFileAtomic(rep->dir + "/snap-" +
                                 std::to_string(seq) + ".psnap",
                             snap);
    // Mirror Manager::checkpoint: the log behind a durable snapshot
    // is redundant, and the snapshot re-anchors the sequence (this
    // is what ends a lagging stretch after dropped frames).
    rep->wal->reset();
    rep->last_seq = seq;
    rep->lagging = false;
    rep->frames_since_snapshot = 0;
    ++rep->snapshots_installed;

    auto snaps = durable::Manager::snapshots(rep->dir);
    for (std::size_t i =
             std::max<std::size_t>(options_.keep_snapshots, 1);
         i < snaps.size(); ++i) {
        std::error_code ec;
        fs::remove(snaps[i].second, ec);
    }
}

void
Standby::handleFrame(const Frame &frame)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (released_.count(frame.gsid) != 0)
        return;
    Replica *rep = openReplica(frame.gsid);
    const std::uint64_t seq = bodyU64(frame.body, 0);
    if (seq <= rep->last_seq)
        return; // duplicate across a reconnect resend
    if (rep->lagging || seq != rep->last_seq + 1) {
        // A gap can never be appended — recovery would reject it —
        // so the replica goes lagging until the next snapshot.
        rep->lagging = true;
        ++rep->gap_drops;
        return;
    }
    std::span<const std::uint8_t> raw(frame.body.data() + 8,
                                      frame.body.size() - 8);
    try {
        rep->wal->appendRawFrame(raw);
    } catch (const durable::DurableError &) {
        // Corrupt on the wire: treat like a gap.
        rep->lagging = true;
        ++rep->gap_drops;
        return;
    }
    rep->last_seq = seq;
    ++rep->frames_applied;
    ++rep->frames_since_snapshot;
}

void
Standby::releaseShard(std::uint64_t gsid)
{
    std::lock_guard<std::mutex> lk(mu_);
    released_.insert(gsid);
    replicas_.erase(gsid); // destroys the WalWriter, closing the fd
}

std::vector<ReplicaStats>
Standby::replicaStats() const
{
    std::vector<ReplicaStats> out;
    std::lock_guard<std::mutex> lk(mu_);
    out.reserve(replicas_.size());
    for (const auto &[gsid, rep] : replicas_) {
        ReplicaStats st;
        st.gsid = gsid;
        st.last_seq = rep->last_seq;
        st.frames_applied = rep->frames_applied;
        st.frames_since_snapshot = rep->frames_since_snapshot;
        st.gap_drops = rep->gap_drops;
        st.snapshots_installed = rep->snapshots_installed;
        st.lagging = rep->lagging;
        out.push_back(st);
    }
    return out;
}

std::string
Standby::statsJson() const
{
    std::ostringstream os;
    os << "{\"replicas\": [";
    bool first = true;
    for (const ReplicaStats &st : replicaStats()) {
        os << (first ? "" : ", ") << "{\"gsid\": " << st.gsid
           << ", \"last_seq\": " << st.last_seq
           << ", \"frames_applied\": " << st.frames_applied
           << ", \"frames_since_snapshot\": "
           << st.frames_since_snapshot
           << ", \"gap_drops\": " << st.gap_drops
           << ", \"snapshots_installed\": " << st.snapshots_installed
           << ", \"lagging\": " << (st.lagging ? "true" : "false")
           << "}";
        first = false;
    }
    os << "]}";
    return os.str();
}

} // namespace psm::cluster
