/**
 * @file
 * Internal-consistency property tests: after random change streams,
 * every memory node of the serial matchers (shared and private
 * networks) and of the fine-grain parallel matcher must contain
 * exactly what a ground-truth recomputation says it should.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/parallel_matcher.hpp"
#include "ops5/conflict.hpp"
#include "ops5/parser.hpp"
#include "rete/matcher.hpp"
#include "rete/validate.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;

namespace {

std::vector<const ops5::Wme *>
liveOf(const ops5::WorkingMemory &wm)
{
    return wm.liveElements();
}

class ValidateTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ValidateTest, SerialNetworksStayInternallyConsistent)
{
    std::uint64_t seed = GetParam();
    auto preset = workloads::tinyPreset(seed);
    preset.config.negated_fraction = 0.25;
    auto program = workloads::generateProgram(preset.config);

    auto shared_net = std::make_shared<rete::Network>(program);
    auto private_net = std::make_shared<rete::Network>(
        program, rete::NetworkOptions::privateState());
    rete::ReteMatcher shared_m(shared_net);
    rete::ReteMatcher private_m(private_net);

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config,
                                   seed * 13 + 5);
    for (int b = 0; b < 15; ++b) {
        auto batch = stream.nextBatch(8, 0.45);
        shared_m.processChanges(batch);
        private_m.processChanges(batch);

        auto live = liveOf(wm);
        auto r1 = rete::validateNetworkState(*shared_net, live);
        auto r2 = rete::validateNetworkState(*private_net, live);
        EXPECT_TRUE(r1.ok())
            << "shared network, batch " << b << ": "
            << (r1.errors.empty() ? "" : r1.errors.front());
        EXPECT_TRUE(r2.ok())
            << "private network, batch " << b << ": "
            << (r2.errors.empty() ? "" : r2.errors.front());
    }
}

TEST_P(ValidateTest, ParallelMatcherStateStaysConsistent)
{
    std::uint64_t seed = GetParam();
    auto preset = workloads::tinyPreset(seed);
    preset.config.negated_fraction = 0.25;
    auto program = workloads::generateProgram(preset.config);

    // Both ways: small batches inline (the validator's tombstone
    // check is then the no-tombstone claim), and every batch through
    // the workers (floor 0).
    core::ParallelOptions opt;
    opt.n_workers = 3;
    core::ParallelReteMatcher inline_par(program, opt);
    core::ParallelReteMatcher par(program, opt,
                                  rete::CostModel{.worker_wake = 0});

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config,
                                   seed * 17 + 3);
    for (int b = 0; b < 15; ++b) {
        auto batch = stream.nextBatch(10, 0.45);
        for (core::ParallelReteMatcher *m : {&inline_par, &par}) {
            m->processChanges(batch);
            auto r = rete::validateNetworkState(m->network(),
                                                liveOf(wm));
            EXPECT_TRUE(r.ok())
                << (m == &par ? "fine-grain" : "inline")
                << " parallel network, batch " << b << ", seed " << seed
                << ": " << (r.errors.empty() ? "" : r.errors.front());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidateTest,
                         ::testing::Values(31, 32, 33, 34, 35),
                         [](const auto &info) {
                             return "seed" +
                                    std::to_string(info.param);
                         });

/** The validator itself must detect corruption when it exists. */
TEST(ValidateOracleTest, DetectsInjectedCorruption)
{
    auto program = ops5::parse(R"(
(literalize a x)
(p p1 (a ^x <v>) (a ^x <v>) --> (halt))
)");
    auto net = std::make_shared<rete::Network>(program);
    rete::ReteMatcher m(net);
    ops5::WorkingMemory wm;
    const ops5::Wme *w =
        wm.insert(program->symbols().find("a"), {ops5::Value::integer(1)});
    ops5::WmeChange c{ops5::ChangeKind::Insert, w};
    m.processChanges({&c, 1});

    auto live = wm.liveElements();
    ASSERT_TRUE(rete::validateNetworkState(*net, live).ok());

    // Corrupt an alpha memory: drop its contents behind the
    // matcher's back.
    for (const auto &node : net->nodes()) {
        if (node->kind == rete::NodeKind::AlphaMemory)
            static_cast<rete::AlphaMemoryNode *>(node.get())
                ->items.clear();
    }
    auto r = rete::validateNetworkState(*net, live);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.errors.empty());
}

bool
mentions(const rete::ValidationResult &r, const char *needle)
{
    for (const std::string &e : r.errors)
        if (e.find(needle) != std::string::npos)
            return true;
    return false;
}

/**
 * Seeded-corruption harness: build a small matched network, verify it
 * validates clean, then apply one specific corruption and assert the
 * validator names it. Each corruption mimics a distinct class of
 * parallel-interference bug (lost update, phantom update, count
 * skew, miswired edge, leaked tombstone, conflict-set drift).
 */
class CorruptionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        program_ = ops5::parse(R"(
(literalize a x)
(literalize b y)
(p p1 (a ^x <v>) (b ^y <v>) --> (halt))
)");
        net_ = std::make_shared<rete::Network>(program_);
        matcher_ = std::make_unique<rete::ReteMatcher>(net_);
        insert("a", 1);
        insert("b", 1);
        insert("b", 2);
        ASSERT_TRUE(cleanCheck().ok());
    }

    void
    insert(const char *cls, int v)
    {
        const ops5::Wme *w = wm_.insert(program_->symbols().find(cls),
                                        {ops5::Value::integer(v)});
        ops5::WmeChange c{ops5::ChangeKind::Insert, w};
        matcher_->processChanges({&c, 1});
    }

    rete::ValidationResult
    cleanCheck()
    {
        return rete::validateMatcherState(*net_, wm_.liveElements(),
                                          matcher_->conflictSet());
    }

    template <typename NodeT>
    NodeT *
    firstNode(rete::NodeKind kind)
    {
        for (const auto &node : net_->nodes())
            if (node->kind == kind)
                return static_cast<NodeT *>(node.get());
        return nullptr;
    }

    /** The beta memory that actually holds join results (not the
     *  dummy top memory). */
    rete::BetaMemoryNode *
    filledBeta()
    {
        for (const auto &node : net_->nodes()) {
            if (node->kind != rete::NodeKind::BetaMemory)
                continue;
            auto *bm = static_cast<rete::BetaMemoryNode *>(node.get());
            if (bm != net_->top() && bm->size() > 0)
                return bm;
        }
        return nullptr;
    }

    std::shared_ptr<const ops5::Program> program_;
    std::shared_ptr<rete::Network> net_;
    std::unique_ptr<rete::ReteMatcher> matcher_;
    ops5::WorkingMemory wm_;
};

TEST_F(CorruptionTest, DanglingTokenInBetaMemory)
{
    rete::BetaMemoryNode *bm = filledBeta();
    ASSERT_NE(bm, nullptr);
    // A token nothing in working memory justifies: duplicate an
    // existing one (a lost remove / double insert).
    rete::Token dup;
    bm->store.forEach([&](const rete::Token &t) { dup = t; });
    bm->insertToken(dup);
    auto r = cleanCheck();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "beta mismatch")) << r.summary();
}

TEST_F(CorruptionTest, StaleAlphaMemoryEntry)
{
    auto *am = firstNode<rete::AlphaMemoryNode>(
        rete::NodeKind::AlphaMemory);
    ASSERT_NE(am, nullptr);
    ASSERT_FALSE(am->items.empty());
    // Duplicate entry = a retract the alpha memory never saw.
    am->items.push_back(am->items.front());
    auto r = cleanCheck();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "alpha mismatch")) << r.summary();
}

TEST_F(CorruptionTest, NotNodeCountSkew)
{
    auto program = ops5::parse(R"(
(literalize a x)
(literalize b y)
(p p1 (a ^x <v>) -(b ^y <v>) --> (halt))
)");
    auto net = std::make_shared<rete::Network>(program);
    rete::ReteMatcher m(net);
    ops5::WorkingMemory wm;
    const ops5::Wme *w =
        wm.insert(program->symbols().find("a"), {ops5::Value::integer(1)});
    ops5::WmeChange c{ops5::ChangeKind::Insert, w};
    m.processChanges({&c, 1});
    ASSERT_TRUE(rete::validateNetworkState(*net, wm.liveElements()).ok());

    for (const auto &node : net->nodes()) {
        if (node->kind == rete::NodeKind::Not) {
            auto *nn = static_cast<rete::NotNode *>(node.get());
            ASSERT_FALSE(nn->entries.empty());
            nn->entries.front().count += 1; // phantom right match
        }
    }
    auto r = rete::validateNetworkState(*net, wm.liveElements());
    EXPECT_FALSE(r.ok());
}

TEST_F(CorruptionTest, ConflictSetMissingInstantiation)
{
    // Drain the conflict set behind the matcher's back: the terminal
    // feeding memory still holds the matching token.
    matcher_->conflictSet().removeIf(
        [](const ops5::Instantiation &) { return true; });
    auto r = cleanCheck();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "conflict set")) << r.summary();
    EXPECT_TRUE(mentions(r, "missing")) << r.summary();
}

TEST_F(CorruptionTest, ConflictSetSpuriousInstantiation)
{
    // Park a removal for an instantiation that never existed; the
    // annihilation machinery stores it as a pending tombstone, which
    // must be empty at a cycle barrier.
    const ops5::Production &prod = *program_->productions().front();
    ops5::Instantiation ghost;
    ghost.production = &prod;
    matcher_->conflictSet().remove(ghost);
    auto r = cleanCheck();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "tombstone")) << r.summary();
}

TEST_F(CorruptionTest, StructuralMiswiredJoin)
{
    auto *join = firstNode<rete::JoinNode>(rete::NodeKind::Join);
    ASSERT_NE(join, nullptr);
    // Detach the join from its right input's successor list — the
    // edge whose absence silently drops activations.
    auto &succ = join->right->successors;
    succ.erase(std::remove(succ.begin(), succ.end(), join),
               succ.end());
    auto r = rete::validateStructure(*net_);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "successor")) << r.summary();
}

TEST_F(CorruptionTest, TombstoneLeakInBetaMemory)
{
    rete::BetaMemoryNode *bm = filledBeta();
    ASSERT_NE(bm, nullptr);
    // Park an anti-token nothing will ever annihilate: extend a live
    // token by one of its own WMEs — no insert produces that shape.
    rete::Token live;
    bm->store.forEach([&](const rete::Token &t) { live = t; });
    ASSERT_FALSE(live.empty());
    EXPECT_FALSE(bm->removeToken(live.extend(live[0])));
    auto r = cleanCheck();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "tombstone")) << r.summary();
}

TEST_F(CorruptionTest, BetaIdentityIndexDesync)
{
    rete::BetaMemoryNode *bm = filledBeta();
    ASSERT_NE(bm, nullptr);
    // Indexes are size-gated: grow the memory past the adaptive
    // threshold (distinct extended variants of a live token) so the
    // identity index is actually live before we corrupt it.
    rete::Token seed;
    bm->store.forEach([&](const rete::Token &t) {
        if (seed.empty())
            seed = t;
    });
    ASSERT_FALSE(seed.empty());
    rete::Token grown = seed;
    for (int i = 0; !bm->indexed(); ++i) {
        ASSERT_LT(i, 64) << "index never activated";
        grown = grown.extend(seed[0]);
        bm->insertToken(grown);
    }
    // Drop one identity-index record behind the store's back — the
    // shape of a lost index update under concurrent mutation.
    ASSERT_FALSE(bm->by_token.empty());
    bm->by_token.erase(bm->by_token.begin());
    auto r = rete::validateIndexes(*net_);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "identity index")) << r.summary();
    // And the full state validator must surface it too.
    EXPECT_FALSE(cleanCheck().ok());
}

TEST_F(CorruptionTest, AlphaRemoveMissFlagged)
{
    auto *am = firstNode<rete::AlphaMemoryNode>(
        rete::NodeKind::AlphaMemory);
    ASSERT_NE(am, nullptr);
    // A removeWme for a WME the memory never held is a WM/alpha
    // desync; the false return is recorded and validation reports it.
    ops5::Wme ghost(0, 9999, {});
    EXPECT_FALSE(am->removeWme(&ghost));
    auto r = rete::validateIndexes(*net_);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "removeWme miss")) << r.summary();
}

/**
 * The invariants the parallel matcher's composite tasks rely on:
 * every memory's successors in ascending id (the lock order), shown
 * here on a network with alpha memories shared and two-input nodes
 * private (where each non-top beta memory has one successor) and on a
 * fully shared one.
 */
class CompositeInvariantTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        program_ = ops5::parse(R"(
(literalize a x)
(literalize b y)
(p p1 (a ^x <v>) (b ^y <v>) --> (halt))
(p p2 (a ^x <v>) -(b ^y <v>) --> (halt))
)");
        rete::NetworkOptions opt;
        opt.share_two_input = false;
        net_ = std::make_shared<rete::Network>(program_, opt);
        ASSERT_TRUE(rete::validateStructure(*net_).ok());
    }

    /** An alpha memory feeding both productions. */
    rete::AlphaMemoryNode *
    sharedAlpha()
    {
        for (const auto &node : net_->nodes()) {
            if (node->kind != rete::NodeKind::AlphaMemory)
                continue;
            auto *am = static_cast<rete::AlphaMemoryNode *>(node.get());
            if (am->successors.size() >= 2)
                return am;
        }
        return nullptr;
    }

    std::shared_ptr<const ops5::Program> program_;
    std::shared_ptr<rete::Network> net_;
};

TEST_F(CompositeInvariantTest, AlphaSuccessorsOutOfLockOrder)
{
    rete::AlphaMemoryNode *am = sharedAlpha();
    ASSERT_NE(am, nullptr);
    // Two alpha tasks walking one memory's successors in different
    // orders could each hold a lock the other waits for.
    std::reverse(am->successors.begin(), am->successors.end());
    auto r = rete::validateStructure(*net_);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "lock order")) << r.summary();
}

TEST_F(CompositeInvariantTest, DuplicateAlphaSuccessorBreaksLockOrder)
{
    rete::AlphaMemoryNode *am = sharedAlpha();
    ASSERT_NE(am, nullptr);
    // Locking one node's right side twice in one task: a not-node's
    // mutex would self-deadlock.
    am->successors.push_back(am->successors.back());
    auto r = rete::validateStructure(*net_);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "lock order")) << r.summary();
}

TEST_F(CompositeInvariantTest, UnsharedBetaMemoryWithTwoSuccessors)
{
    // Without two-input sharing every production owns its beta
    // memories, so a second successor means the builder shared one.
    rete::BetaMemoryNode *bm = nullptr;
    for (const auto &node : net_->nodes())
        if (node->kind == rete::NodeKind::BetaMemory &&
            node.get() != net_->top())
            bm = static_cast<rete::BetaMemoryNode *>(node.get());
    ASSERT_NE(bm, nullptr);
    ASSERT_EQ(bm->successors.size(), 1u);
    bm->successors.push_back(bm->successors.front());
    auto r = rete::validateStructure(*net_);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "unshared beta memory")) << r.summary();
}

TEST_F(CompositeInvariantTest, SharedBetaSuccessorsOutOfLockOrder)
{
    // Under full sharing the first join's output memory feeds both
    // productions: a join and a not-node. Two token arrivals walking
    // its successors in different orders could deadlock.
    rete::Network shared(program_, rete::NetworkOptions::fullSharing());
    ASSERT_TRUE(rete::validateStructure(shared).ok());
    rete::BetaMemoryNode *bm = nullptr;
    for (const auto &node : shared.nodes())
        if (node->kind == rete::NodeKind::BetaMemory &&
            node.get() != shared.top() &&
            static_cast<rete::BetaMemoryNode *>(node.get())
                    ->successors.size() >= 2)
            bm = static_cast<rete::BetaMemoryNode *>(node.get());
    ASSERT_NE(bm, nullptr);
    std::swap(bm->successors[0], bm->successors[1]);
    auto r = rete::validateStructure(shared);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(mentions(r, "lock order")) << r.summary();
}

TEST_F(CompositeInvariantTest, ParallelMatcherNetworkIsClean)
{
    // The parallel matcher runs over the network serial Rete uses:
    // alpha memories, two-input nodes and beta memories all shared.
    auto program =
        workloads::generateProgram(workloads::growthPreset().config);
    core::ParallelReteMatcher par(program);
    auto r = rete::validateStructure(par.network());
    EXPECT_TRUE(r.ok()) << r.summary();
    rete::Network shared(program, rete::NetworkOptions::fullSharing());
    rete::Network priv(program, rete::NetworkOptions::privateState());
    const rete::BuildStats &stats = par.network().buildStats();
    EXPECT_TRUE(stats == shared.buildStats());
    EXPECT_EQ(par.network().nodes().size(), 223u);
    EXPECT_LT(stats.total(), priv.buildStats().total());
    EXPECT_GT(stats.reused_two_input, 0);
}

/** Conflict-set agreement must also hold through a real run with
 *  firings (refraction keeps fired instantiations live). */
TEST(ValidateOracleTest, MatcherStateAgreesAfterEngineRun)
{
    auto preset = workloads::tinyPreset(41);
    auto program = workloads::generateProgram(preset.config);
    auto net = std::make_shared<rete::Network>(program);
    rete::ReteMatcher m(net);

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 7);
    for (int b = 0; b < 10; ++b) {
        m.processChanges(stream.nextBatch(10, 0.4));
        auto r = rete::validateMatcherState(*net, wm.liveElements(),
                                            m.conflictSet());
        EXPECT_TRUE(r.ok()) << "batch " << b << ": " << r.summary();
    }
}

} // namespace
