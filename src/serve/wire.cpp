#include "serve/wire.hpp"

#include <algorithm>
#include <chrono>

#include "durable/format.hpp"

namespace psm::serve {

namespace {

/** Bumped when the payload layout changes incompatibly. */
constexpr std::uint8_t kWireVersion = 1;

void
putValue(durable::ByteWriter &w, const WireValue &v)
{
    w.u8(static_cast<std::uint8_t>(v.kind));
    switch (v.kind) {
      case ops5::ValueKind::Nil: break;
      case ops5::ValueKind::Symbol: w.str(v.sym); break;
      case ops5::ValueKind::Int:
        w.u64(static_cast<std::uint64_t>(v.i));
        break;
      case ops5::ValueKind::Float: w.f64(v.f); break;
    }
}

WireValue
getValue(durable::ByteReader &r)
{
    WireValue v;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(ops5::ValueKind::Float))
        throw WireError("wire value has unknown kind " +
                        std::to_string(kind));
    v.kind = static_cast<ops5::ValueKind>(kind);
    switch (v.kind) {
      case ops5::ValueKind::Nil: break;
      case ops5::ValueKind::Symbol: v.sym = r.str(); break;
      case ops5::ValueKind::Int:
        v.i = static_cast<std::int64_t>(r.u64());
        break;
      case ops5::ValueKind::Float: v.f = r.f64(); break;
    }
    return v;
}

void
checkVersion(durable::ByteReader &r, const char *what)
{
    const std::uint8_t ver = r.u8();
    if (ver != kWireVersion)
        throw WireError(std::string(what) + " has wire version " +
                        std::to_string(ver) + ", expected " +
                        std::to_string(kWireVersion));
}

RequestKind
checkKind(std::uint8_t kind, const char *what)
{
    if (kind > static_cast<std::uint8_t>(RequestKind::Run))
        throw WireError(std::string(what) +
                        " has unknown request kind " +
                        std::to_string(kind));
    return static_cast<RequestKind>(kind);
}

} // namespace

WireValue
WireValue::of(const ops5::Value &v, const ops5::SymbolTable &syms)
{
    WireValue out;
    out.kind = v.kind();
    switch (v.kind()) {
      case ops5::ValueKind::Nil: break;
      case ops5::ValueKind::Symbol:
        out.sym = syms.name(v.asSymbol());
        break;
      case ops5::ValueKind::Int: out.i = v.asInt(); break;
      case ops5::ValueKind::Float: out.f = v.asDouble(); break;
    }
    return out;
}

ops5::Value
WireValue::resolve(const ops5::SymbolTable &syms) const
{
    switch (kind) {
      case ops5::ValueKind::Nil: return ops5::Value();
      case ops5::ValueKind::Symbol: {
        if (sym == "nil")
            return ops5::Value();
        ops5::SymbolId id = syms.find(sym);
        if (id == ops5::kNilSymbol)
            throw WireError("symbol '" + sym +
                            "' is not part of the program");
        return ops5::Value::symbol(id);
      }
      case ops5::ValueKind::Int: return ops5::Value::integer(i);
      case ops5::ValueKind::Float: return ops5::Value::real(f);
    }
    throw WireError("wire value has unknown kind");
}

Request
fromWire(const WireRequest &w, const ops5::SymbolTable &syms)
{
    Request req;
    req.kind = w.kind;
    switch (w.kind) {
      case RequestKind::Assert: {
        ops5::SymbolId cls = syms.find(w.cls);
        if (cls == ops5::kNilSymbol)
            throw WireError("class '" + w.cls +
                            "' is not part of the program");
        req.cls = cls;
        req.fields.reserve(w.fields.size());
        for (const WireValue &v : w.fields)
            req.fields.push_back(v.resolve(syms));
        break;
      }
      case RequestKind::Retract: req.tag = w.tag; break;
      case RequestKind::Run: req.max_cycles = w.max_cycles; break;
    }
    if (w.deadline_us != 0)
        req.deadline = ServeClock::now() +
                       std::chrono::microseconds(w.deadline_us);
    return req;
}

WireResponse
toWire(const Response &resp)
{
    WireResponse w;
    w.kind = resp.kind;
    w.tag = resp.tag;
    w.retracted = resp.retracted;
    w.run = resp.run;
    w.deadline_expired = resp.deadline_expired;
    w.latency_us = static_cast<std::uint64_t>(
        std::max<std::int64_t>(resp.latency.count(), 0));
    return w;
}

WireResponse
rejectionResponse(RequestKind kind, RejectReason why)
{
    WireResponse w;
    w.kind = kind;
    w.rejected = why;
    return w;
}

std::vector<std::uint8_t>
encodeRequest(const WireRequest &w)
{
    durable::ByteWriter out;
    out.u8(kWireVersion);
    out.u8(static_cast<std::uint8_t>(w.kind));
    out.str(w.cls);
    out.u32(static_cast<std::uint32_t>(w.fields.size()));
    for (const WireValue &v : w.fields)
        putValue(out, v);
    out.u64(w.tag);
    out.u64(w.max_cycles);
    out.u64(w.deadline_us);
    return out.take();
}

WireRequest
decodeRequest(std::span<const std::uint8_t> payload)
{
    try {
        durable::ByteReader r(payload);
        checkVersion(r, "request");
        WireRequest w;
        w.kind = checkKind(r.u8(), "request");
        w.cls = r.str();
        const std::uint32_t n = r.u32();
        w.fields.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
            w.fields.push_back(getValue(r));
        w.tag = r.u64();
        w.max_cycles = r.u64();
        w.deadline_us = r.u64();
        if (!r.atEnd())
            throw WireError("request has trailing bytes");
        return w;
    } catch (const durable::DurableError &e) {
        throw WireError(std::string("malformed request: ") + e.what());
    }
}

std::vector<std::uint8_t>
encodeResponse(const WireResponse &w)
{
    durable::ByteWriter out;
    out.u8(kWireVersion);
    out.u8(static_cast<std::uint8_t>(w.kind));
    out.u8(static_cast<std::uint8_t>(w.rejected));
    out.u64(w.tag);
    out.u8(w.retracted ? 1 : 0);
    out.u64(w.run.cycles);
    out.u64(w.run.firings);
    out.u64(w.run.wme_changes);
    out.u8((w.run.halted ? 1U : 0U) | (w.run.quiescent ? 2U : 0U) |
           (w.run.stopped ? 4U : 0U));
    out.u8(w.deadline_expired ? 1 : 0);
    out.u64(w.latency_us);
    return out.take();
}

WireResponse
decodeResponse(std::span<const std::uint8_t> payload)
{
    try {
        durable::ByteReader r(payload);
        checkVersion(r, "response");
        WireResponse w;
        w.kind = checkKind(r.u8(), "response");
        const std::uint8_t rej = r.u8();
        if (rej > static_cast<std::uint8_t>(RejectReason::BadSession))
            throw WireError("response has unknown reject reason " +
                            std::to_string(rej));
        w.rejected = static_cast<RejectReason>(rej);
        w.tag = r.u64();
        w.retracted = r.u8() != 0;
        w.run.cycles = r.u64();
        w.run.firings = r.u64();
        w.run.wme_changes = r.u64();
        const std::uint8_t flags = r.u8();
        w.run.halted = (flags & 1U) != 0;
        w.run.quiescent = (flags & 2U) != 0;
        w.run.stopped = (flags & 4U) != 0;
        w.deadline_expired = r.u8() != 0;
        w.latency_us = r.u64();
        if (!r.atEnd())
            throw WireError("response has trailing bytes");
        return w;
    } catch (const durable::DurableError &e) {
        throw WireError(std::string("malformed response: ") + e.what());
    }
}

} // namespace psm::serve
