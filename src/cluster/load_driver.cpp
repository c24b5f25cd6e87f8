#include "cluster/load_driver.hpp"

#include <stdexcept>

namespace psm::cluster {

using Clock = std::chrono::steady_clock;

Client::Client(const std::string &host, std::uint16_t port)
    : fd_(connectTcp(host, port))
{}

Frame
Client::rpc(Frame frame)
{
    frame.req_id = next_req_id_++;
    if (!sendFrame(fd_.get(), frame))
        throw ClusterError("peer closed connection on send");
    Frame reply;
    if (!recvFrame(fd_.get(), reply))
        throw ClusterError("peer closed connection awaiting reply");
    if (reply.msg == Msg::Error)
        throw ClusterError(reply.bodyText());
    return reply;
}

std::uint64_t
Client::sendSubmit(std::uint64_t gsid, const serve::WireRequest &req)
{
    Frame frame;
    frame.msg = Msg::Submit;
    frame.req_id = next_req_id_++;
    frame.gsid = gsid;
    frame.body = serve::encodeRequest(req);
    if (!sendFrame(fd_.get(), frame))
        throw ClusterError("peer closed connection on send");
    return frame.req_id;
}

Client::Reply
Client::readReply()
{
    Frame frame;
    if (!recvFrame(fd_.get(), frame))
        throw ClusterError("peer closed connection awaiting reply");
    Reply r;
    r.req_id = frame.req_id;
    if (frame.msg == Msg::Error) {
        r.error = true;
        r.error_text = frame.bodyText();
        return r;
    }
    r.resp = serve::decodeResponse(frame.body);
    return r;
}

Client::Reply
Client::submit(std::uint64_t gsid, const serve::WireRequest &req)
{
    sendSubmit(gsid, req);
    return readReply();
}

std::string
Client::openShard(std::uint64_t gsid, bool restore)
{
    Frame frame;
    frame.msg = Msg::OpenShard;
    frame.gsid = gsid;
    frame.body.push_back(restore ? 1 : 0);
    return rpc(std::move(frame)).bodyText();
}

std::string
Client::migrate(std::uint64_t gsid, std::uint32_t target_slot)
{
    Frame frame;
    frame.msg = Msg::Migrate;
    frame.gsid = gsid;
    for (int i = 0; i < 4; ++i)
        frame.body.push_back(
            static_cast<std::uint8_t>(target_slot >> (8 * i)));
    return rpc(std::move(frame)).bodyText();
}

std::string
Client::scrape(std::uint64_t slot, ScrapeKind kind)
{
    Frame frame;
    frame.msg = Msg::Scrape;
    frame.gsid = slot;
    frame.body.push_back(static_cast<std::uint8_t>(kind));
    return rpc(std::move(frame)).bodyText();
}

void
Client::ping()
{
    Frame frame;
    frame.msg = Msg::Ping;
    rpc(std::move(frame));
}

ClientChannel::ClientChannel(std::string host, std::uint16_t port,
                             std::uint64_t first_gsid,
                             const ops5::Program &program)
    : host_(std::move(host)), port_(port), first_gsid_(first_gsid)
{
    // Lift the assert templates to wire form once.
    const ops5::SymbolTable &syms = program.symbols();
    for (const auto &tmpl : program.initialWmes()) {
        serve::WireRequest w;
        w.kind = serve::RequestKind::Assert;
        w.cls = std::string(syms.name(tmpl.cls));
        for (const ops5::Value &v : tmpl.fields)
            w.fields.push_back(serve::WireValue::of(v, syms));
        templates_.push_back(std::move(w));
    }
}

std::uint64_t
ClientChannel::send(std::size_t session, const serve::Op &op)
{
    const std::uint64_t token = next_token_++;
    if (!client_ && !dead_) {
        try {
            client_ = std::make_unique<Client>(host_, port_);
        } catch (const ClusterError &) {
            dead_ = true;
        }
    }
    if (!client_) {
        answered_[token].done_at = Clock::now(); // Lost
        return token;
    }

    serve::WireRequest w;
    if (op.kind == serve::RequestKind::Assert) {
        w = templates_[op.tmpl];
    } else if (op.kind == serve::RequestKind::Retract) {
        w.kind = serve::RequestKind::Retract;
        w.tag = op.tag;
    } else {
        w.kind = serve::RequestKind::Run;
        w.max_cycles = op.cycles;
    }
    w.deadline_us = static_cast<std::uint64_t>(op.deadline.count());
    try {
        in_flight_.emplace(client_->sendSubmit(first_gsid_ + session, w),
                           token);
    } catch (const ClusterError &) {
        answered_[token].done_at = Clock::now(); // Lost
        lose();
    }
    return token;
}

serve::Answer
ClientChannel::wait(std::uint64_t token)
{
    using Status = serve::Answer::Status;
    for (;;) {
        auto it = answered_.find(token);
        if (it != answered_.end()) {
            serve::Answer a = it->second;
            answered_.erase(it);
            return a;
        }
        if (!client_) // never sent, or already collected
            return serve::Answer{};
        try {
            Client::Reply r = client_->readReply();
            serve::Answer a;
            a.done_at = Clock::now();
            if (r.error)
                a.status = Status::Lost; // routed: a shard died
            else if (!r.resp.accepted())
                a.status = Status::Rejected;
            else if (r.resp.deadline_expired)
                a.status = Status::Expired;
            else
                a.status = Status::Ok;
            a.tag = r.resp.tag;
            auto f = in_flight_.find(r.req_id);
            if (f != in_flight_.end()) {
                answered_.emplace(f->second, a);
                in_flight_.erase(f);
            }
        } catch (const std::runtime_error &) {
            // Transport loss, or a reply that does not decode.
            lose();
        }
    }
}

void
ClientChannel::lose()
{
    const Clock::time_point now = Clock::now();
    for (const auto &[req_id, token] : in_flight_)
        answered_[token].done_at = now; // Lost
    in_flight_.clear();
    client_.reset();
}

} // namespace psm::cluster
