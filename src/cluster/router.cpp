#include "cluster/router.hpp"

#include <chrono>
#include <sstream>

namespace psm::cluster {

namespace {

/** Pulls an unsigned JSON member out of flat ShardInfo text; 0 when
 *  absent (the info schemas are produced by our own workers). */
std::uint64_t
jsonUint(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    auto at = text.find(needle);
    if (at == std::string::npos)
        return 0;
    at += needle.size();
    std::uint64_t v = 0;
    while (at < text.size() && text[at] >= '0' && text[at] <= '9')
        v = v * 10 + static_cast<std::uint64_t>(text[at++] - '0');
    return v;
}

} // namespace

struct Router::PendingCall
{
    std::shared_ptr<Connection> client;
    std::uint64_t client_req_id = 0;
    std::uint64_t gsid = 0;
    bool tracked = false; ///< counted in outstanding_
    std::shared_ptr<std::promise<Frame>> internal;
};

struct Router::Link
{
    std::uint32_t slot = 0;
    Endpoint endpoint;

    std::mutex mu; ///< guards up + pending
    bool up = false;
    Fd fd;
    std::mutex write_mu;
    std::unordered_map<std::uint64_t, PendingCall> pending;
    std::thread reader;
};

Router::Router(RouterOptions options)
    : options_(std::move(options)), ring_(options_.vnodes),
      server_(options_.host, options_.port,
              [this](const std::shared_ptr<Connection> &client) {
                  serveClient(client);
              })
{
    for (std::size_t i = 0; i < options_.workers.size(); ++i) {
        auto link = std::make_unique<Link>();
        link->slot = static_cast<std::uint32_t>(i);
        link->endpoint = options_.workers[i];
        links_.push_back(std::move(link));
        ring_.addSlot(static_cast<std::uint32_t>(i));
    }
    if (options_.standby.port != 0) {
        auto link = std::make_unique<Link>();
        link->slot = static_cast<std::uint32_t>(links_.size());
        link->endpoint = options_.standby;
        links_.push_back(std::move(link));
        // The standby joins the ring only at failover.
    }
}

Router::~Router() { stop(); }

void
Router::connectLink(Link &link)
{
    link.fd = connectTcp(link.endpoint.host, link.endpoint.port);
    link.up = true;
    link.reader = std::thread(&Router::linkReader, this, &link);
}

void
Router::start()
{
    for (auto &link : links_)
        connectLink(*link);
    server_.start();
}

void
Router::stop()
{
    if (stopping_.exchange(true))
        return;
    // Links first: a client thread blocked in call() then fails fast.
    for (auto &link : links_)
        link->fd.shutdownBoth();
    server_.stop();
    for (auto &link : links_)
        if (link->reader.joinable())
            link->reader.join();
}

Router::Link *
Router::linkForSlot(std::uint32_t slot)
{
    if (slot >= links_.size())
        return nullptr;
    return links_[slot].get();
}

std::uint32_t
Router::slotForSession(std::uint64_t gsid)
{
    // Caller holds place_mu_.
    auto it = placements_.find(gsid);
    if (it != placements_.end())
        return it->second;
    std::uint32_t slot = ring_.slotFor(gsid);
    placements_.emplace(gsid, slot);
    return slot;
}

void
Router::finishOutstanding(std::uint64_t gsid)
{
    std::lock_guard<std::mutex> lk(place_mu_);
    auto it = outstanding_.find(gsid);
    if (it == outstanding_.end())
        return;
    if (--it->second == 0) {
        outstanding_.erase(it);
        quiesced_cv_.notify_all();
    }
}

void
Router::replyError(const std::shared_ptr<Connection> &client,
                   std::uint64_t req_id, std::uint64_t gsid,
                   const std::string &what)
{
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    if (!client)
        return;
    sendFrame(client->fd.get(),
              Frame::text(Msg::Error, req_id, gsid, what),
              &client->write_mu);
}

bool
Router::sendOnLink(Link &link, Frame frame, PendingCall pending,
                   std::uint64_t *out_req_id)
{
    const std::uint64_t req_id =
        next_req_id_.fetch_add(1, std::memory_order_relaxed);
    if (out_req_id)
        *out_req_id = req_id;
    frame.req_id = req_id;
    {
        std::lock_guard<std::mutex> lk(link.mu);
        if (!link.up)
            return false;
        link.pending.emplace(req_id, std::move(pending));
    }
    if (!sendFrame(link.fd.get(), frame, &link.write_mu)) {
        std::lock_guard<std::mutex> lk(link.mu);
        link.pending.erase(req_id);
        return false;
    }
    return true;
}

Frame
Router::call(Link &link, Frame frame)
{
    auto promise = std::make_shared<std::promise<Frame>>();
    std::future<Frame> future = promise->get_future();
    PendingCall pending;
    pending.internal = promise;
    pending.gsid = frame.gsid;
    std::uint64_t req_id = 0;
    if (!sendOnLink(link, std::move(frame), std::move(pending),
                    &req_id))
        throw ClusterError("slot " + std::to_string(link.slot) +
                           " is down");
    if (future.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
        std::lock_guard<std::mutex> lk(link.mu);
        link.pending.erase(req_id);
        throw ClusterError("slot " + std::to_string(link.slot) +
                           " timed out");
    }
    Frame reply = future.get();
    if (reply.msg == Msg::Error)
        throw ClusterError("slot " + std::to_string(link.slot) +
                           ": " + reply.bodyText());
    return reply;
}

void
Router::forwardSubmit(const std::shared_ptr<Connection> &client,
                      const Frame &frame)
{
    std::uint32_t slot;
    {
        std::lock_guard<std::mutex> lk(place_mu_);
        auto mig = migrating_.find(frame.gsid);
        if (mig != migrating_.end()) {
            // Quiesced for migration: park the request; the migrate
            // flow replays the buffer against the target.
            mig->second.emplace_back(client, frame);
            return;
        }
        slot = slotForSession(frame.gsid);
        ++outstanding_[frame.gsid];
    }
    Link *link = linkForSlot(slot);
    PendingCall pending;
    pending.client = client;
    pending.client_req_id = frame.req_id;
    pending.gsid = frame.gsid;
    pending.tracked = true;
    // Counted before the send: the worker's reply (and a stats
    // scrape racing it) may arrive before this thread resumes.
    n_forwarded_.fetch_add(1, std::memory_order_relaxed);
    if (!link || !sendOnLink(*link, frame, std::move(pending))) {
        n_forwarded_.fetch_sub(1, std::memory_order_relaxed);
        finishOutstanding(frame.gsid);
        replyError(client, frame.req_id, frame.gsid,
                   "slot " + std::to_string(slot) + " is down");
        return;
    }
}

void
Router::linkReader(Link *link)
{
    Frame frame;
    for (;;) {
        bool ok;
        try {
            ok = recvFrame(link->fd.get(), frame);
        } catch (const ClusterError &) {
            ok = false;
        }
        if (!ok)
            break;
        PendingCall pending;
        bool found = false;
        {
            std::lock_guard<std::mutex> lk(link->mu);
            auto it = link->pending.find(frame.req_id);
            if (it != link->pending.end()) {
                pending = std::move(it->second);
                link->pending.erase(it);
                found = true;
            }
        }
        if (!found)
            continue; // orphaned reply (client or call gave up)
        if (pending.tracked)
            finishOutstanding(pending.gsid);
        if (pending.internal) {
            pending.internal->set_value(frame);
            continue;
        }
        if (pending.client) {
            Frame out = frame;
            out.req_id = pending.client_req_id;
            sendFrame(pending.client->fd.get(), out,
                      &pending.client->write_mu);
            if (frame.msg == Msg::Error)
                n_errors_.fetch_add(1, std::memory_order_relaxed);
            else
                n_replies_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    failover(*link);
}

void
Router::failover(Link &link)
{
    std::unordered_map<std::uint64_t, PendingCall> orphans;
    {
        std::lock_guard<std::mutex> lk(link.mu);
        if (!link.up)
            return;
        link.up = false;
        orphans.swap(link.pending);
    }
    // Outstanding requests on the dead link fail typed — clients see
    // Error, internal callers see ClusterError — never a hang.
    for (auto &[req_id, pending] : orphans) {
        if (pending.tracked)
            finishOutstanding(pending.gsid);
        if (pending.internal) {
            pending.internal->set_exception(
                std::make_exception_ptr(ClusterError(
                    "slot " + std::to_string(link.slot) + " died")));
        } else {
            replyError(pending.client, pending.client_req_id,
                       pending.gsid,
                       "slot " + std::to_string(link.slot) +
                           " died");
        }
    }
    if (stopping_.load())
        return;

    const std::uint32_t standby_slot =
        static_cast<std::uint32_t>(options_.workers.size());
    Link *standby = options_.standby.port != 0
                        ? linkForSlot(standby_slot)
                        : nullptr;
    const bool standby_usable = standby != nullptr &&
                                standby != &link &&
                                [&] {
                                    std::lock_guard<std::mutex> lk(
                                        standby->mu);
                                    return standby->up;
                                }();

    // Collect the dead slot's sessions and rewire the ring.
    std::vector<std::uint64_t> failed_sessions;
    {
        std::lock_guard<std::mutex> lk(place_mu_);
        ring_.removeSlot(link.slot);
        if (standby_usable && !ring_.hasSlot(standby_slot))
            ring_.addSlot(standby_slot);
        for (const auto &[gsid, slot] : placements_)
            if (slot == link.slot)
                failed_sessions.push_back(gsid);
    }
    if (!standby_usable) {
        // No survivor can hold the state; drop the placements so
        // future submits re-hash (fresh sessions) rather than hang.
        std::lock_guard<std::mutex> lk(place_mu_);
        for (std::uint64_t gsid : failed_sessions)
            placements_.erase(gsid);
        return;
    }

    for (std::uint64_t gsid : failed_sessions) {
        Frame open;
        open.msg = Msg::OpenShard;
        open.gsid = gsid;
        open.body.push_back(1); // restore
        try {
            Frame info = call(*standby, std::move(open));
            n_failover_replayed_.fetch_add(
                jsonUint(info.bodyText(), "wal_records_replayed"),
                std::memory_order_relaxed);
            n_failover_sessions_.fetch_add(
                1, std::memory_order_relaxed);
        } catch (const ClusterError &) {
            continue; // standby died too; nothing left to do
        }
        std::lock_guard<std::mutex> lk(place_mu_);
        placements_[gsid] = standby_slot;
        ring_.pin(gsid, standby_slot);
    }
    // Counted only once the failover is complete (release pairs with
    // the acquire in stats()): a scrape that sees the failover also
    // sees every session it moved.
    n_failovers_.fetch_add(1, std::memory_order_release);
}

std::string
Router::migrate(std::uint64_t gsid, std::uint32_t target_slot)
{
    Link *target = linkForSlot(target_slot);
    if (!target)
        throw ClusterError("no such slot " +
                           std::to_string(target_slot));
    std::uint32_t source_slot;
    {
        std::unique_lock<std::mutex> lk(place_mu_);
        if (!ring_.hasSlot(target_slot))
            throw ClusterError("slot " +
                               std::to_string(target_slot) +
                               " is not in the ring");
        if (migrating_.count(gsid) != 0)
            throw ClusterError("session already migrating");
        source_slot = slotForSession(gsid);
        if (source_slot == target_slot)
            return "{\"gsid\": " + std::to_string(gsid) +
                   ", \"migrated\": false, \"reason\": "
                   "\"already there\"}";
        migrating_.emplace(gsid, decltype(migrating_)::mapped_type{});

        // Quiesce: wait out every in-flight request of this session.
        const bool quiet = quiesced_cv_.wait_for(
            lk,
            std::chrono::milliseconds(options_.quiesce_timeout_ms),
            [&] { return outstanding_.count(gsid) == 0; });
        if (!quiet) {
            migrating_.erase(gsid); // buffered entries: none yet
            throw ClusterError("session did not quiesce");
        }
    }

    auto unwind = [&](const std::string &why) -> std::string {
        // Replay anything buffered back onto the source and unmark.
        std::lock_guard<std::mutex> lk(place_mu_);
        migrating_.erase(gsid);
        throw ClusterError(why);
    };

    // Source side: drain + checkpoint + destroy. A dead source link
    // is fine — that is the failover-then-migrate shape, and the
    // state on disk is whatever shipping/checkpointing left.
    Link *source = linkForSlot(source_slot);
    if (source) {
        Frame drop;
        drop.msg = Msg::DropShard;
        drop.gsid = gsid;
        drop.body.push_back(1);
        try {
            call(*source, std::move(drop));
        } catch (const ClusterError &) {
            bool up;
            {
                std::lock_guard<std::mutex> lk(source->mu);
                up = source->up;
            }
            if (up)
                return unwind("source drop failed");
            // else: dead source, proceed to restore on the target
        }
    }

    Frame open;
    open.msg = Msg::OpenShard;
    open.gsid = gsid;
    open.body.push_back(1); // restore
    std::string info;
    try {
        info = call(*target, std::move(open)).bodyText();
    } catch (const ClusterError &e) {
        return unwind(std::string("target restore failed: ") +
                      e.what());
    }

    // Flip the ring entry, then replay the parked submits in order.
    // The migrating_ flag stays up during the replay so late
    // arrivals keep appending behind the parked ones.
    {
        std::lock_guard<std::mutex> lk(place_mu_);
        placements_[gsid] = target_slot;
        ring_.pin(gsid, target_slot);
    }
    for (;;) {
        std::vector<std::pair<std::shared_ptr<Connection>, Frame>>
            parked;
        {
            std::lock_guard<std::mutex> lk(place_mu_);
            auto it = migrating_.find(gsid);
            if (it->second.empty()) {
                migrating_.erase(it);
                break;
            }
            parked.swap(it->second);
        }
        for (auto &[client, frame] : parked) {
            PendingCall pending;
            pending.client = client;
            pending.client_req_id = frame.req_id;
            pending.gsid = gsid;
            pending.tracked = true;
            {
                std::lock_guard<std::mutex> lk(place_mu_);
                ++outstanding_[gsid];
            }
            n_forwarded_.fetch_add(1, std::memory_order_relaxed);
            if (!sendOnLink(*target, frame, std::move(pending))) {
                n_forwarded_.fetch_sub(1,
                                       std::memory_order_relaxed);
                finishOutstanding(gsid);
                replyError(client, frame.req_id, gsid,
                           "target died during migration");
            }
        }
    }
    n_migrations_.fetch_add(1, std::memory_order_relaxed);
    return info;
}

std::string
Router::scrapeWorker(std::uint32_t slot, ScrapeKind kind)
{
    Link *link = linkForSlot(slot);
    if (!link)
        throw ClusterError("no such slot " + std::to_string(slot));
    Frame scrape;
    scrape.msg = Msg::Scrape;
    scrape.body.push_back(static_cast<std::uint8_t>(kind));
    return call(*link, std::move(scrape)).bodyText();
}

void
Router::serveClient(const std::shared_ptr<Connection> &client)
{
    Frame frame;
    for (;;) {
        bool ok;
        try {
            ok = recvFrame(client->fd.get(), frame);
        } catch (const ClusterError &e) {
            sendFrame(client->fd.get(),
                      Frame::text(Msg::Error, 0, 0, e.what()),
                      &client->write_mu);
            break;
        }
        if (!ok)
            break;
        switch (frame.msg) {
          case Msg::Submit:
          case Msg::OpenShard:
            forwardSubmit(client, frame);
            break;
          case Msg::Migrate: {
            std::uint32_t target = 0;
            for (std::size_t i = 0;
                 i < 4 && i < frame.body.size(); ++i)
                target |= static_cast<std::uint32_t>(frame.body[i])
                          << (8 * i);
            std::string text;
            try {
                text = migrate(frame.gsid, target);
            } catch (const std::exception &e) {
                replyError(client, frame.req_id, frame.gsid,
                           e.what());
                break;
            }
            sendFrame(client->fd.get(),
                      Frame::text(Msg::ShardInfo, frame.req_id,
                                  frame.gsid, text),
                      &client->write_mu);
            break;
          }
          case Msg::Scrape: {
            const ScrapeKind kind =
                !frame.body.empty() &&
                        frame.body[0] ==
                            static_cast<std::uint8_t>(
                                ScrapeKind::Metrics)
                    ? ScrapeKind::Metrics
                    : ScrapeKind::StatsJson;
            std::string text;
            try {
                if (frame.gsid == ~0ULL)
                    text = "{" + extraJson() + "}";
                else
                    text = scrapeWorker(
                        static_cast<std::uint32_t>(frame.gsid),
                        kind);
            } catch (const std::exception &e) {
                replyError(client, frame.req_id, frame.gsid,
                           e.what());
                break;
            }
            sendFrame(client->fd.get(),
                      Frame::text(Msg::ScrapeText, frame.req_id,
                                  frame.gsid, text),
                      &client->write_mu);
            break;
          }
          case Msg::Ping: {
            Frame pong;
            pong.msg = Msg::Pong;
            pong.req_id = frame.req_id;
            sendFrame(client->fd.get(), pong, &client->write_mu);
            break;
          }
          default:
            replyError(client, frame.req_id, frame.gsid,
                       std::string("unexpected ") +
                           msgName(frame.msg));
            break;
        }
    }
}

RouterStats
Router::stats() const
{
    RouterStats st;
    st.forwarded = n_forwarded_.load(std::memory_order_relaxed);
    st.replies = n_replies_.load(std::memory_order_relaxed);
    st.errors = n_errors_.load(std::memory_order_relaxed);
    st.failovers = n_failovers_.load(std::memory_order_acquire);
    st.failover_sessions =
        n_failover_sessions_.load(std::memory_order_relaxed);
    st.failover_replayed_frames =
        n_failover_replayed_.load(std::memory_order_relaxed);
    st.migrations = n_migrations_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(place_mu_);
        st.sessions = placements_.size();
    }
    for (const auto &link : links_) {
        std::lock_guard<std::mutex> lk(link->mu);
        if (link->up)
            ++st.links_up;
    }
    return st;
}

std::string
Router::extraJson() const
{
    RouterStats st = stats();
    std::ostringstream os;
    os << "\"cluster\": {\"forwarded\": " << st.forwarded
       << ", \"replies\": " << st.replies
       << ", \"errors\": " << st.errors
       << ", \"failovers\": " << st.failovers
       << ", \"failover_sessions\": " << st.failover_sessions
       << ", \"failover_replayed_frames\": "
       << st.failover_replayed_frames
       << ", \"migrations\": " << st.migrations
       << ", \"sessions\": " << st.sessions
       << ", \"links\": [";
    for (std::size_t i = 0; i < links_.size(); ++i) {
        bool up;
        {
            std::lock_guard<std::mutex> lk(links_[i]->mu);
            up = links_[i]->up;
        }
        os << (i == 0 ? "" : ", ") << "{\"slot\": " << i
           << ", \"up\": " << (up ? "true" : "false") << "}";
    }
    os << "]}";
    return os.str();
}

std::string
Router::extraExposition() const
{
    RouterStats st = stats();
    std::ostringstream os;
    os << "# HELP psm_router_forwarded_total Requests forwarded.\n"
       << "# TYPE psm_router_forwarded_total counter\n"
       << "psm_router_forwarded_total " << st.forwarded << "\n"
       << "# HELP psm_router_errors_total Error replies to clients.\n"
       << "# TYPE psm_router_errors_total counter\n"
       << "psm_router_errors_total " << st.errors << "\n"
       << "# HELP psm_router_failovers_total Dead links failed over.\n"
       << "# TYPE psm_router_failovers_total counter\n"
       << "psm_router_failovers_total " << st.failovers << "\n"
       << "# HELP psm_router_failover_replayed_frames_total WAL "
          "frames replayed by failover restores.\n"
       << "# TYPE psm_router_failover_replayed_frames_total counter\n"
       << "psm_router_failover_replayed_frames_total "
       << st.failover_replayed_frames << "\n"
       << "# HELP psm_router_migrations_total Live migrations.\n"
       << "# TYPE psm_router_migrations_total counter\n"
       << "psm_router_migrations_total " << st.migrations << "\n"
       << "# HELP psm_router_sessions Known session placements.\n"
       << "# TYPE psm_router_sessions gauge\n"
       << "psm_router_sessions " << st.sessions << "\n"
       << "# HELP psm_router_links_up Worker links currently up.\n"
       << "# TYPE psm_router_links_up gauge\n"
       << "psm_router_links_up " << st.links_up << "\n";
    for (std::size_t i = 0; i < links_.size(); ++i) {
        bool up;
        {
            std::lock_guard<std::mutex> lk(links_[i]->mu);
            up = links_[i]->up;
        }
        os << "psm_router_link_up{slot=\"" << i << "\"} "
           << (up ? 1 : 0) << "\n";
    }
    return os.str();
}

} // namespace psm::cluster
