/**
 * @file
 * Node types of the Rete network.
 *
 * The network follows Forgy's four node families (Section 2.2 of the
 * paper): constant-test nodes, memory nodes (alpha for single WMEs,
 * beta for tokens), two-input nodes (joins and negated-CE "not"
 * nodes), and terminal nodes. Memory contents carry their own small
 * mutexes and two-input nodes carry directional locks so the same
 * network object can be driven by the serial matcher or by the
 * fine-grain parallel matcher.
 *
 * Memory nodes are hash-indexed (PR 8): alpha memories keep an O(1)
 * position map plus per-key-spec probe buckets keyed on the fields
 * the downstream joins test, and beta memories keep their tokens in a
 * slot-stable TokenStore with an identity index and the same kind of
 * probe buckets over token key fields. Join right-/left-activations
 * probe a bucket instead of scanning the opposite memory, and
 * removals are keyed lookups instead of linear std::find scans. The
 * probe specs are registered once at network-build time
 * (Network::finalizeIndexes); index maintenance happens inside
 * insertWme/removeWme/insertToken/removeToken under each node's own
 * mutex, so every matcher config gets the indexes for free.
 *
 * Indexing is ADAPTIVE: a memory below kMemIndexOn entries keeps no
 * index at all — small memories are the overwhelming common case in
 * calibrated OPS5 workloads, and for them a linear scan beats the
 * per-update hashing and bucket allocation by a wide margin. The
 * first insert that reaches kMemIndexOn builds every index for the
 * memory in one O(n) pass (amortized O(1)); removal back below
 * kMemIndexOff tears them down (hysteresis prevents thrash around the
 * threshold). Probing callers must check indexed() before using a
 * probe slot and fall back to the scan path otherwise.
 */

#ifndef PSM_RETE_NODES_HPP
#define PSM_RETE_NODES_HPP

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ops5/condition.hpp"
#include "rete/sync.hpp"
#include "rete/token.hpp"

namespace psm::ops5 {
class Production;
}

namespace psm::rete {

/** Discriminator for Node. */
enum class NodeKind : std::uint8_t {
    Root, ///< pseudo-node: per-change class dispatch (trace records only)
    ConstTest,
    AlphaMemory,
    Join,
    Not,
    BetaMemory,
    Terminal,
};

const char *nodeKindName(NodeKind k);

/** Base of all network nodes. */
struct Node
{
    NodeKind kind;
    int id = -1;          ///< dense id within the Network
    int shared_by = 1;    ///< number of productions using this node

    explicit Node(NodeKind k) : kind(k) {}
    virtual ~Node() = default;

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;
};

/**
 * A test a constant-test node applies to one WME.
 *
 * IntraField implements within-CE variable consistency (the second
 * occurrence of a variable inside one condition element), which OPS5
 * compiles into the alpha network because it needs no join context.
 */
struct AlphaTest
{
    enum class Kind : std::uint8_t { Constant, ConstantSet, IntraField };

    Kind kind = Kind::Constant;
    ops5::Predicate pred = ops5::Predicate::Eq;
    int field = 0;
    ops5::Value constant{};
    std::vector<ops5::Value> set; ///< ConstantSet members
    int other_field = 0;          ///< IntraField: compare `field` vs this

    bool eval(const ops5::Wme &wme, const ops5::SymbolTable &syms) const;
    bool operator==(const AlphaTest &o) const;
};

/** Constant-test node: filters WMEs flowing down an alpha chain. */
struct ConstTestNode : Node
{
    ConstTestNode() : Node(NodeKind::ConstTest) {}

    AlphaTest test;
    std::vector<Node *> successors; ///< ConstTestNode or AlphaMemoryNode
};

/** Memory size at which a node builds its hash indexes. */
inline constexpr std::size_t kMemIndexOn = 32;
/** Memory size below which an indexed node drops them again. */
inline constexpr std::size_t kMemIndexOff = 8;

/** WME-side probe key: the right-input fields an all-eq join tests. */
using WmeKeySpec = std::vector<std::int32_t>;

/** Token-side probe key: (positive-CE ordinal, field) per test. */
struct TokenKeyField
{
    std::int32_t ce = 0;
    std::int32_t field = 0;

    bool operator==(const TokenKeyField &o) const = default;
};
using TokenKeySpec = std::vector<TokenKeyField>;

/** Hash of @p wme's fields named by @p spec (probe bucket key). */
std::uint64_t wmeKeyHash(const WmeKeySpec &spec, const ops5::Wme &wme);

/** Hash of @p token's fields named by @p spec (probe bucket key). */
std::uint64_t tokenKeyHash(const TokenKeySpec &spec, const Token &token);

/** One probe index over an alpha memory: key spec + hash buckets. */
struct AlphaProbe
{
    WmeKeySpec spec;
    std::unordered_multimap<std::uint64_t, const ops5::Wme *> buckets;
};

/** One probe index over a beta memory: key spec + slot buckets. */
struct BetaProbe
{
    TokenKeySpec spec;
    std::unordered_multimap<std::uint64_t, std::uint32_t> buckets;
};

/** Alpha memory: stores WMEs that pass one CE's constant tests. */
struct AlphaMemoryNode : Node
{
    AlphaMemoryNode() : Node(NodeKind::AlphaMemory) {}

    std::vector<const ops5::Wme *> items;
    /** items position of each WME — O(1) keyed removal when indexed. */
    std::unordered_map<const ops5::Wme *, std::uint32_t> pos;
    /** Probe indexes registered by Network::finalizeIndexes. */
    std::vector<AlphaProbe> probes;
    /** True while pos/probes are maintained (size-gated). */
    bool idx_active = false;
    /** Join successors with a probe (hashed-config cost parity). */
    int indexed_join_successors = 0;
    /** removeWme calls that found nothing — WM/alpha desync. */
    std::uint64_t remove_misses = 0;
    std::mutex mutex;                 ///< guards items (parallel mode)
    std::vector<Node *> successors;   ///< Join / Not, right side

    /** Appends @p wme and indexes it. Thread safe. */
    void insertWme(const ops5::Wme *wme);

    /**
     * Erases @p wme from items and every index. Thread safe. When
     * @p held is given it receives the size before the erase, the
     * length of the classic removal scan the cost model charges.
     * @return false when absent (also recorded in remove_misses so
     *         rete/validate can flag the desync even when callers
     *         cannot stop to report it).
     */
    [[nodiscard]] bool removeWme(const ops5::Wme *wme,
                                 std::size_t *held = nullptr);

    /** Unlocked snapshot size (approximate under concurrency). */
    std::size_t size() const { return items.size(); }

    /** True while probe buckets are live (probing callers must
     *  fall back to the scan path otherwise). */
    bool indexed() const { return idx_active; }

    /** Drops all contents and index entries (probe specs stay). */
    void clearState();

    /** Re-derives index state from items (e.g. after restore). */
    void rebuildIndexes();

  private:
    void buildIndexes(); ///< caller holds mutex
    void dropIndexes();  ///< caller holds mutex
};

/**
 * Beta memory: stores tokens matching a CE prefix, and absorbs
 * out-of-order insert/remove pairs with anti-token tombstones (see
 * DESIGN.md). Tombstones are cleared at every cycle barrier.
 *
 * Tokens live in a slot-stable TokenStore; by_token maps token hash
 * to slot for O(1) insert/remove, and per-key-spec probe buckets let
 * downstream joins enumerate only bucket-matching tokens.
 */
struct BetaMemoryNode : Node
{
    BetaMemoryNode() : Node(NodeKind::BetaMemory) {}

    /**
     * Pending-tombstone ceiling. Legitimate parks are bounded by the
     * in-flight removes of one cycle; crossing this means spurious
     * removes (e.g. replay of a foreign batch) are accumulating.
     */
    static constexpr std::uint64_t kTombstonePendingCap = 1u << 20;

    TokenStore store;
    /** token hash -> store slot (identity index, size-gated). */
    std::unordered_multimap<std::uint64_t, std::uint32_t> by_token;
    /** Probe indexes registered by Network::finalizeIndexes. */
    std::vector<BetaProbe> probes;
    /** True while by_token/probes are maintained (size-gated). */
    bool idx_active = false;
    /** Anti-tokens parked by early removes, with multiplicity. */
    std::unordered_map<Token, std::uint32_t, TokenHash> tombstones;
    std::uint64_t tombstones_pending = 0;    ///< sum of multiplicities
    std::uint64_t tombstone_high_water = 0;  ///< peak since last clear
    /** Join successors with a probe (hashed-config cost parity). */
    int indexed_join_successors = 0;
    std::mutex mutex;
    std::vector<Node *> successors; ///< Join / Not (left side), Terminal

    /**
     * Inserts @p token unless a tombstone annihilates it.
     * @return true when actually stored (callers forward downstream
     *         only in that case).
     */
    bool insertToken(Token token);

    /**
     * Removes @p token; parks a tombstone when absent. @p held, when
     * given, receives the size before the removal (as removeWme).
     * @return true when a live token was removed (forward downstream
     *         only then).
     */
    bool removeToken(const Token &token, std::size_t *held = nullptr);

    void clearTombstones();
    std::size_t size() const { return store.size(); }
    std::size_t tombstoneCount() const { return tombstones_pending; }

    /** True while probe buckets are live (probing callers must
     *  fall back to the scan path otherwise). */
    bool indexed() const { return idx_active; }

    /** Drops all contents and index entries (probe specs stay). */
    void clearState();

    /** Re-derives index state from the store (e.g. after restore). */
    void rebuildIndexes();

  private:
    void buildIndexes(); ///< caller holds mutex
    void dropIndexes();  ///< caller holds mutex
};

/** One consistency test a two-input node performs at join time. */
struct JoinTest
{
    ops5::Predicate pred = ops5::Predicate::Eq;
    int wme_field = 0;   ///< field of the WME on the right input
    int token_ce = 0;    ///< positive-CE ordinal within the left token
    int token_field = 0; ///< field within that WME

    bool operator==(const JoinTest &o) const = default;
};

/**
 * Join tests flattened at network-build time into structure-of-arrays
 * form. The common all-equality case skips predicate dispatch
 * entirely and runs a branch-light Value::operator== loop.
 */
struct FlatTests
{
    std::uint32_t n = 0;
    bool all_eq = true;
    std::vector<std::uint8_t> preds;        ///< ops5::Predicate values
    std::vector<std::int32_t> wme_fields;
    std::vector<std::int32_t> token_ces;
    std::vector<std::int32_t> token_fields;
};

/** Evaluates every flattened test on (token, wme). */
bool evalFlatTests(const FlatTests &flat, const Token &token,
                   const ops5::Wme &wme, const ops5::SymbolTable &syms);

/**
 * Probe-key hashes derived from a node's flattened tests. Probe
 * buckets are maintained from one side (alpha buckets hash WME
 * fields, beta buckets hash token fields); the OPPOSITE side probes
 * with the complementary field list — under all-Eq tests, matching
 * values hash identically, so the bucket holds every possible match.
 */
std::uint64_t probeHashFromToken(const FlatTests &flat,
                                 const Token &token);
std::uint64_t probeHashFromWme(const FlatTests &flat,
                               const ops5::Wme &wme);

/** Evaluates every test of @p tests on (token, wme). */
bool evalJoinTests(const std::vector<JoinTest> &tests, const Token &token,
                   const ops5::Wme &wme, const ops5::SymbolTable &syms);

/** Overload for callers holding a raw WME tuple (TREAT-family
 *  matchers enumerate tuples without ever materializing Tokens). */
bool evalJoinTests(const std::vector<JoinTest> &tests,
                   const std::vector<const ops5::Wme *> &tuple,
                   const ops5::Wme &wme, const ops5::SymbolTable &syms);

/**
 * Two-input join node ("and" node): pairs left tokens with right WMEs
 * whose variable bindings are consistent.
 */
struct JoinNode : Node
{
    JoinNode() : Node(NodeKind::Join) {}

    BetaMemoryNode *left = nullptr;   ///< left input memory
    AlphaMemoryNode *right = nullptr; ///< right input memory
    std::vector<JoinTest> tests;
    FlatTests flat;      ///< built by Network::finalizeIndexes
    int left_probe = -1; ///< probe slot in left->probes (-1: scan)
    int right_probe = -1;///< probe slot in right->probes (-1: scan)
    BetaMemoryNode *output = nullptr;

    /** Same-side concurrency, opposite-side exclusion. */
    DirectionalLock lock;
};

/**
 * Negated-CE node: forwards a left token only while no right WME
 * matches it; per-token match counts are the node's own state.
 */
struct NotNode : Node
{
    NotNode() : Node(NodeKind::Not) {}

    struct Entry
    {
        Token token;
        int count = 0;
    };

    BetaMemoryNode *left = nullptr;
    AlphaMemoryNode *right = nullptr;
    std::vector<JoinTest> tests;
    FlatTests flat;       ///< built by Network::finalizeIndexes
    int right_probe = -1; ///< probe slot in right->probes (-1: scan)
    BetaMemoryNode *output = nullptr;

    std::vector<Entry> entries;
    /** token hash -> entries position (size-gated O(1) left-remove). */
    std::unordered_multimap<std::uint64_t, std::uint32_t> entry_index;
    /** True while entry_index is maintained (size-gated). */
    bool idx_active = false;
    std::mutex mutex; ///< exclusive: counts are read-modify-write

    /** Appends an entry and indexes it. Caller holds mutex. */
    void addEntry(Token token, int count);

    /**
     * Erases the entry for @p token. Caller holds mutex.
     * @return its count, or -1 when absent.
     */
    int removeEntry(const Token &token);

    bool indexed() const { return idx_active; }

    /** Drops all entries and index entries. */
    void clearState();

    /** Re-derives entry_index from entries (e.g. after restore). */
    void rebuildIndexes();

  private:
    void buildIndexes(); ///< caller holds mutex
    void dropIndexes();  ///< caller holds mutex
};

/** Terminal node: reports conflict-set changes for one production. */
struct TerminalNode : Node
{
    TerminalNode() : Node(NodeKind::Terminal) {}

    const ops5::Production *production = nullptr;
};

} // namespace psm::rete

#endif // PSM_RETE_NODES_HPP
