/**
 * @file
 * Process-independent request/response codec for remote serving.
 *
 * The in-process serve types carry interned SymbolId values, which
 * cannot cross a process boundary (table order differs between
 * processes). The wire forms carry symbols by NAME instead; element
 * handles are time tags in both forms. On the worker side symbols are resolved with
 * SymbolTable::find() and never interned — an unknown symbol is a
 * typed rejection, not a new table entry — so the worker's table
 * stays exactly the program's table and snapshot/WAL recovery's
 * symbol prefix check keeps holding across the cluster.
 *
 * Deadlines travel as *remaining* microseconds at encode time (wall
 * clocks of two hosts never compare; remaining budget does) and are
 * re-anchored against the receiver's monotonic clock at decode.
 *
 * Payloads here are position 2 of the cluster framing
 * (`u32 len | u32 crc | payload`); see cluster/protocol.hpp.
 */

#ifndef PSM_SERVE_WIRE_HPP
#define PSM_SERVE_WIRE_HPP

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ops5/symbol.hpp"
#include "ops5/value.hpp"
#include "ops5/wme.hpp"
#include "serve/request.hpp"

namespace psm::serve {

/** Malformed wire bytes or a symbol the program never interned. */
class WireError : public std::runtime_error
{
  public:
    explicit WireError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** One attribute value in wire form: symbols by name. */
struct WireValue
{
    ops5::ValueKind kind = ops5::ValueKind::Nil;
    std::string sym;     ///< Symbol payload
    std::int64_t i = 0;  ///< Int payload
    double f = 0.0;      ///< Float payload

    /** Lifts an in-process Value (symbol ids become names). */
    static WireValue of(const ops5::Value &v,
                        const ops5::SymbolTable &syms);

    /** Resolves back to an in-process Value. WireError when the
     *  symbol is not in @p syms — resolution never interns. */
    ops5::Value resolve(const ops5::SymbolTable &syms) const;
};

/** One request in wire form. */
struct WireRequest
{
    RequestKind kind = RequestKind::Assert;

    // Assert payload: class and fields by name.
    std::string cls;
    std::vector<WireValue> fields;

    // Retract payload: the tag from a previous assert's response.
    ops5::TimeTag tag = 0;

    // Run payload.
    std::uint64_t max_cycles = 0;

    /** Remaining deadline budget in microseconds; 0 = no deadline.
     *  An already-expired deadline encodes as 1 (still a deadline —
     *  the worker expires it, preserving end-to-end semantics). */
    std::uint64_t deadline_us = 0;
};

/** One response in wire form; also carries admission rejections so
 *  a single message type covers the whole submit outcome. */
struct WireResponse
{
    RequestKind kind = RequestKind::Assert;
    RejectReason rejected = RejectReason::None;
    ops5::TimeTag tag = 0; ///< assert handle (retract with this)
    bool retracted = false;
    core::RunResult run{};
    bool deadline_expired = false;
    std::uint64_t latency_us = 0;

    bool accepted() const { return rejected == RejectReason::None; }
};

/**
 * Lowers a wire request to the in-process form against @p syms.
 * Symbols resolve with find() only — WireError on any name the
 * program never interned. A retract keeps its tag; the session's
 * server thread resolves tag→element. A nonzero deadline_us
 * re-anchors to `ServeClock::now() + deadline_us`.
 */
Request fromWire(const WireRequest &w, const ops5::SymbolTable &syms);

/** Lifts a completed in-process Response. */
WireResponse toWire(const Response &resp);

/** Wraps an admission rejection as a wire response. */
WireResponse rejectionResponse(RequestKind kind, RejectReason why);

std::vector<std::uint8_t> encodeRequest(const WireRequest &w);
WireRequest decodeRequest(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeResponse(const WireResponse &w);
WireResponse decodeResponse(std::span<const std::uint8_t> payload);

} // namespace psm::serve

#endif // PSM_SERVE_WIRE_HPP
