#include "rete/nodes.hpp"

#include <algorithm>
#include <cassert>

namespace psm::rete {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t
combineHash(std::uint64_t h, const ops5::Value &v)
{
    return (h ^ v.hash()) * kFnvPrime;
}

} // namespace

const char *
nodeKindName(NodeKind k)
{
    switch (k) {
      case NodeKind::Root: return "root";
      case NodeKind::ConstTest: return "const-test";
      case NodeKind::AlphaMemory: return "alpha-mem";
      case NodeKind::Join: return "join";
      case NodeKind::Not: return "not";
      case NodeKind::BetaMemory: return "beta-mem";
      case NodeKind::Terminal: return "terminal";
    }
    return "?";
}

bool
AlphaTest::eval(const ops5::Wme &wme, const ops5::SymbolTable &syms) const
{
    const ops5::Value &actual = wme.field(field);
    switch (kind) {
      case Kind::Constant:
        return ops5::evalPredicate(pred, actual, constant, syms);
      case Kind::ConstantSet: {
        bool member = std::any_of(set.begin(), set.end(),
                                  [&](const ops5::Value &v) {
                                      return actual == v;
                                  });
        return pred == ops5::Predicate::Eq ? member : !member;
      }
      case Kind::IntraField:
        return ops5::evalPredicate(pred, actual, wme.field(other_field),
                                   syms);
    }
    return false;
}

bool
AlphaTest::operator==(const AlphaTest &o) const
{
    return kind == o.kind && pred == o.pred && field == o.field &&
           constant == o.constant && set == o.set &&
           other_field == o.other_field;
}

std::uint64_t
wmeKeyHash(const WmeKeySpec &spec, const ops5::Wme &wme)
{
    std::uint64_t h = kFnvOffset;
    for (std::int32_t f : spec)
        h = combineHash(h, wme.field(f));
    return h;
}

std::uint64_t
tokenKeyHash(const TokenKeySpec &spec, const Token &token)
{
    std::uint64_t h = kFnvOffset;
    for (const TokenKeyField &kf : spec)
        h = combineHash(h, token[kf.ce]->field(kf.field));
    return h;
}

std::uint64_t
probeHashFromToken(const FlatTests &flat, const Token &token)
{
    std::uint64_t h = kFnvOffset;
    for (std::uint32_t i = 0; i < flat.n; ++i)
        h = combineHash(
            h, token[flat.token_ces[i]]->field(flat.token_fields[i]));
    return h;
}

std::uint64_t
probeHashFromWme(const FlatTests &flat, const ops5::Wme &wme)
{
    std::uint64_t h = kFnvOffset;
    for (std::uint32_t i = 0; i < flat.n; ++i)
        h = combineHash(h, wme.field(flat.wme_fields[i]));
    return h;
}

void
AlphaMemoryNode::buildIndexes()
{
    pos.clear();
    pos.reserve(items.size() * 2);
    for (AlphaProbe &probe : probes) {
        probe.buckets.clear();
        probe.buckets.reserve(items.size() * 2);
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
        pos[items[i]] = static_cast<std::uint32_t>(i);
        for (AlphaProbe &probe : probes)
            probe.buckets.emplace(wmeKeyHash(probe.spec, *items[i]),
                                  items[i]);
    }
    idx_active = true;
}

void
AlphaMemoryNode::dropIndexes()
{
    pos.clear();
    for (AlphaProbe &probe : probes)
        probe.buckets.clear();
    idx_active = false;
}

void
AlphaMemoryNode::insertWme(const ops5::Wme *wme)
{
    std::lock_guard lock(mutex);
    items.push_back(wme);
    if (idx_active) {
        pos[wme] = static_cast<std::uint32_t>(items.size() - 1);
        for (AlphaProbe &probe : probes)
            probe.buckets.emplace(wmeKeyHash(probe.spec, *wme), wme);
    } else if (items.size() >= kMemIndexOn) {
        buildIndexes();
    }
}

bool
AlphaMemoryNode::removeWme(const ops5::Wme *wme, std::size_t *held)
{
    std::lock_guard lock(mutex);
    if (held)
        *held = items.size();
    if (!idx_active) {
        // Below the adaptive threshold the memory holds fewer than
        // kMemIndexOn entries, so the linear scan is bounded and
        // cheaper than maintaining the index maps.
        auto it = std::find(items.begin(), items.end(), wme);
        if (it == items.end()) {
            ++remove_misses;
            return false;
        }
        // Order-insensitive erase: memories are sets, not sequences.
        *it = items.back();
        items.pop_back();
        return true;
    }
    auto it = pos.find(wme);
    if (it == pos.end()) {
        ++remove_misses;
        return false;
    }
    for (AlphaProbe &probe : probes) {
        auto range = probe.buckets.equal_range(
            wmeKeyHash(probe.spec, *wme));
        for (auto b = range.first; b != range.second; ++b) {
            if (b->second == wme) {
                probe.buckets.erase(b);
                break;
            }
        }
    }
    std::uint32_t i = it->second;
    pos.erase(it);
    items[i] = items.back();
    items.pop_back();
    if (i < items.size())
        pos[items[i]] = i;
    if (items.size() < kMemIndexOff)
        dropIndexes();
    return true;
}

void
AlphaMemoryNode::clearState()
{
    std::lock_guard lock(mutex);
    items.clear();
    dropIndexes();
    remove_misses = 0;
}

void
AlphaMemoryNode::rebuildIndexes()
{
    std::lock_guard lock(mutex);
    if (items.size() >= kMemIndexOn)
        buildIndexes();
    else
        dropIndexes();
}

void
BetaMemoryNode::buildIndexes()
{
    by_token.clear();
    by_token.reserve(store.size() * 2);
    for (BetaProbe &probe : probes) {
        probe.buckets.clear();
        probe.buckets.reserve(store.size() * 2);
    }
    store.forEachSlot([&](std::uint32_t slot, const Token &token) {
        by_token.emplace(token.hash(), slot);
        for (BetaProbe &probe : probes)
            probe.buckets.emplace(tokenKeyHash(probe.spec, token),
                                  slot);
    });
    idx_active = true;
}

void
BetaMemoryNode::dropIndexes()
{
    by_token.clear();
    for (BetaProbe &probe : probes)
        probe.buckets.clear();
    idx_active = false;
}

bool
BetaMemoryNode::insertToken(Token token)
{
    std::lock_guard lock(mutex);
    if (tombstones_pending != 0) {
        auto ts = tombstones.find(token);
        if (ts != tombstones.end()) {
            if (--ts->second == 0)
                tombstones.erase(ts);
            --tombstones_pending;
            return false;
        }
    }
    std::uint64_t h = token.hash();
    std::uint32_t slot = store.insert(std::move(token));
    if (idx_active) {
        by_token.emplace(h, slot);
        const Token &stored = store.at(slot);
        for (BetaProbe &probe : probes)
            probe.buckets.emplace(tokenKeyHash(probe.spec, stored),
                                  slot);
    } else if (store.size() >= kMemIndexOn) {
        buildIndexes();
    }
    return true;
}

bool
BetaMemoryNode::removeToken(const Token &token, std::size_t *held)
{
    std::lock_guard lock(mutex);
    if (held)
        *held = store.size();
    if (!idx_active) {
        std::int32_t slot = store.findSlot(token);
        if (slot >= 0) {
            store.erase(static_cast<std::uint32_t>(slot));
            return true;
        }
    } else {
        auto range = by_token.equal_range(token.hash());
        for (auto it = range.first; it != range.second; ++it) {
            std::uint32_t slot = it->second;
            if (!(store.at(slot) == token))
                continue;
            for (BetaProbe &probe : probes) {
                auto pr = probe.buckets.equal_range(
                    tokenKeyHash(probe.spec, token));
                for (auto b = pr.first; b != pr.second; ++b) {
                    if (b->second == slot) {
                        probe.buckets.erase(b);
                        break;
                    }
                }
            }
            by_token.erase(it);
            store.erase(slot);
            if (store.size() < kMemIndexOff)
                dropIndexes();
            return true;
        }
    }
    // Remove raced ahead of its insert: park an anti-token. A
    // genuinely spurious remove would park forever, so the pending
    // count is capped — crossing the cap is a protocol bug, not load.
    ++tombstones[token];
    ++tombstones_pending;
    if (tombstones_pending > tombstone_high_water)
        tombstone_high_water = tombstones_pending;
    assert(tombstones_pending <= kTombstonePendingCap &&
           "tombstone flood: spurious removes are accumulating");
    return false;
}

void
BetaMemoryNode::clearTombstones()
{
    // Racy pre-check is fine: the barrier phase that calls this runs
    // single-threaded, and a memory that never parked a tombstone
    // this cycle has nothing to clear or sample.
    if (tombstones_pending == 0 && tombstone_high_water == 0)
        return;
    std::lock_guard lock(mutex);
    tombstones.clear();
    tombstones_pending = 0;
    tombstone_high_water = 0; // peak is per cycle; barriers sample it
}

void
BetaMemoryNode::clearState()
{
    std::lock_guard lock(mutex);
    store.clear();
    dropIndexes();
    tombstones.clear();
    tombstones_pending = 0;
    tombstone_high_water = 0;
}

void
BetaMemoryNode::rebuildIndexes()
{
    std::lock_guard lock(mutex);
    if (store.size() >= kMemIndexOn)
        buildIndexes();
    else
        dropIndexes();
}

bool
evalFlatTests(const FlatTests &flat, const Token &token,
              const ops5::Wme &wme, const ops5::SymbolTable &syms)
{
    if (flat.all_eq) {
        // Eq needs no symbol table and no predicate dispatch.
        for (std::uint32_t i = 0; i < flat.n; ++i) {
            if (!(wme.field(flat.wme_fields[i]) ==
                  token[flat.token_ces[i]]->field(flat.token_fields[i])))
                return false;
        }
        return true;
    }
    for (std::uint32_t i = 0; i < flat.n; ++i) {
        if (!ops5::evalPredicate(
                static_cast<ops5::Predicate>(flat.preds[i]),
                wme.field(flat.wme_fields[i]),
                token[flat.token_ces[i]]->field(flat.token_fields[i]),
                syms))
            return false;
    }
    return true;
}

bool
evalJoinTests(const std::vector<JoinTest> &tests, const Token &token,
              const ops5::Wme &wme, const ops5::SymbolTable &syms)
{
    for (const JoinTest &t : tests) {
        const ops5::Value &lhs = wme.field(t.wme_field);
        const ops5::Value &rhs =
            token[t.token_ce]->field(t.token_field);
        if (!ops5::evalPredicate(t.pred, lhs, rhs, syms))
            return false;
    }
    return true;
}

bool
evalJoinTests(const std::vector<JoinTest> &tests,
              const std::vector<const ops5::Wme *> &tuple,
              const ops5::Wme &wme, const ops5::SymbolTable &syms)
{
    for (const JoinTest &t : tests) {
        const ops5::Value &lhs = wme.field(t.wme_field);
        const ops5::Value &rhs =
            tuple[t.token_ce]->field(t.token_field);
        if (!ops5::evalPredicate(t.pred, lhs, rhs, syms))
            return false;
    }
    return true;
}

void
NotNode::buildIndexes()
{
    entry_index.clear();
    entry_index.reserve(entries.size() * 2);
    for (std::size_t i = 0; i < entries.size(); ++i)
        entry_index.emplace(entries[i].token.hash(),
                            static_cast<std::uint32_t>(i));
    idx_active = true;
}

void
NotNode::dropIndexes()
{
    entry_index.clear();
    idx_active = false;
}

void
NotNode::addEntry(Token token, int count)
{
    if (idx_active)
        entry_index.emplace(token.hash(),
                            static_cast<std::uint32_t>(entries.size()));
    entries.push_back({std::move(token), count});
    if (!idx_active && entries.size() >= kMemIndexOn)
        buildIndexes();
}

int
NotNode::removeEntry(const Token &token)
{
    if (!idx_active) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (!(entries[i].token == token))
                continue;
            int count = entries[i].count;
            entries[i] = std::move(entries.back());
            entries.pop_back();
            return count;
        }
        return -1;
    }
    auto range = entry_index.equal_range(token.hash());
    for (auto it = range.first; it != range.second; ++it) {
        std::uint32_t i = it->second;
        if (!(entries[i].token == token))
            continue;
        int count = entries[i].count;
        entry_index.erase(it);
        std::uint32_t last =
            static_cast<std::uint32_t>(entries.size() - 1);
        if (i != last) {
            entries[i] = std::move(entries[last]);
            // Re-point the moved entry's index record at slot i.
            auto moved = entry_index.equal_range(entries[i].token.hash());
            for (auto m = moved.first; m != moved.second; ++m) {
                if (m->second == last) {
                    m->second = i;
                    break;
                }
            }
        }
        entries.pop_back();
        if (entries.size() < kMemIndexOff)
            dropIndexes();
        return count;
    }
    return -1;
}

void
NotNode::clearState()
{
    std::lock_guard lock(mutex);
    entries.clear();
    dropIndexes();
}

void
NotNode::rebuildIndexes()
{
    std::lock_guard lock(mutex);
    if (entries.size() >= kMemIndexOn)
        buildIndexes();
    else
        dropIndexes();
}

} // namespace psm::rete
