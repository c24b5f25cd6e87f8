/**
 * @file
 * Cluster-layer tests: consistent-hash ring placement, the wire
 * codec across symbol tables, protocol frame integrity, and an
 * in-process end-to-end cluster (workers + standby + router) —
 * serving, live migration, and EOF-driven failover to the standby —
 * plus direct clients pipelining into one worker.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "cluster/hash_ring.hpp"
#include "cluster/load_driver.hpp"
#include "cluster/protocol.hpp"
#include "cluster/router.hpp"
#include "cluster/standby.hpp"
#include "cluster/worker.hpp"
#include "ops5/parser.hpp"
#include "serve/wire.hpp"

using namespace psm;
using namespace psm::cluster;
namespace fs = std::filesystem;

namespace {

std::string
scratchDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "psm_cluster_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Firings add state but never consume the asserted element, so a
 *  handle stays retractable after a Run. */
constexpr const char *kJobs = R"(
(literalize job id)
(literalize done id)
(p work (job ^id <i>) --> (make done ^id <i>))
)";

serve::WireRequest
wireAssert(int id)
{
    serve::WireRequest w;
    w.kind = serve::RequestKind::Assert;
    w.cls = "job";
    serve::WireValue v;
    v.kind = ops5::ValueKind::Int;
    v.i = id;
    w.fields.push_back(v);
    return w;
}

TEST(HashRing, SpreadsSmallSequentialGsids)
{
    // Regression: unsalted ring points for slot 0 were mix64(0..v),
    // the exact hashes of small gsids, so every session below the
    // vnode count landed on slot 0.
    for (std::size_t vnodes : {16u, 64u, 128u}) {
        HashRing ring(vnodes);
        ring.addSlot(0);
        ring.addSlot(1);
        std::set<std::uint32_t> seen;
        for (std::uint64_t g = 1; g <= 32; ++g)
            seen.insert(ring.slotFor(g));
        EXPECT_EQ(seen.size(), 2u)
            << "gsids 1..32 all landed on one slot (vnodes="
            << vnodes << ")";
    }

    HashRing ring(64);
    ring.addSlot(0);
    ring.addSlot(1);
    std::size_t on_zero = 0;
    for (std::uint64_t g = 1; g <= 10000; ++g)
        on_zero += ring.slotFor(g) == 0 ? 1 : 0;
    EXPECT_GT(on_zero, 3000u);
    EXPECT_LT(on_zero, 7000u);
}

TEST(HashRing, RemovalOnlyMovesTheDeadSlotsKeys)
{
    HashRing ring(64);
    for (std::uint32_t s = 0; s < 3; ++s)
        ring.addSlot(s);
    std::map<std::uint64_t, std::uint32_t> before;
    for (std::uint64_t g = 1; g <= 500; ++g)
        before[g] = ring.slotFor(g);

    ring.removeSlot(1);
    for (const auto &[g, slot] : before) {
        if (slot == 1)
            EXPECT_NE(ring.slotFor(g), 1u);
        else
            EXPECT_EQ(ring.slotFor(g), slot)
                << "gsid " << g << " moved off a surviving slot";
    }
}

TEST(HashRing, PinsOverrideAndDieWithTheirSlot)
{
    HashRing ring(8);
    ring.addSlot(0);
    ring.addSlot(1);
    std::uint64_t g = 1;
    while (ring.slotFor(g) != 0)
        ++g;
    ring.pin(g, 1);
    EXPECT_EQ(ring.slotFor(g), 1u);
    EXPECT_TRUE(ring.pinned(g));
    ring.removeSlot(1);
    EXPECT_FALSE(ring.pinned(g));
    EXPECT_EQ(ring.slotFor(g), 0u);
    EXPECT_THROW(ring.pin(g, 9), std::logic_error);
}

TEST(Wire, RequestAndResponseRoundTripAcrossSymbolTables)
{
    // Two programs parsed separately intern in different orders only
    // if sources differ; simulate the cross-process case by encoding
    // against one table and decoding against a fresh parse.
    auto prog_a = ops5::parse(kJobs);
    auto prog_b = ops5::parse(kJobs);

    serve::WireRequest w = wireAssert(7);
    w.deadline_us = 250000;
    auto bytes = serve::encodeRequest(w);
    serve::WireRequest back = serve::decodeRequest(bytes);
    EXPECT_EQ(back.cls, "job");
    ASSERT_EQ(back.fields.size(), 1u);
    EXPECT_EQ(back.fields[0].i, 7);
    EXPECT_EQ(back.deadline_us, 250000u);

    serve::Request req = serve::fromWire(back, prog_b->symbols());
    EXPECT_EQ(req.cls, prog_b->symbols().find("job"));
    ASSERT_TRUE(req.hasDeadline());

    serve::WireResponse resp;
    resp.kind = serve::RequestKind::Run;
    resp.run.cycles = 3;
    resp.run.firings = 5;
    resp.run.quiescent = true;
    resp.latency_us = 42;
    auto rbytes = serve::encodeResponse(resp);
    serve::WireResponse rback = serve::decodeResponse(rbytes);
    EXPECT_EQ(rback.run.cycles, 3u);
    EXPECT_EQ(rback.run.firings, 5u);
    EXPECT_TRUE(rback.run.quiescent);
    EXPECT_FALSE(rback.run.halted);
    EXPECT_EQ(rback.latency_us, 42u);
    (void)prog_a;
}

TEST(Wire, UnknownSymbolIsRejectedNeverInterned)
{
    auto prog = ops5::parse(kJobs);
    const std::size_t table_size_before = prog->symbols().size();

    serve::WireRequest w;
    w.kind = serve::RequestKind::Assert;
    w.cls = "no-such-class";
    EXPECT_THROW((void)serve::fromWire(w, prog->symbols()),
                 serve::WireError);

    EXPECT_EQ(prog->symbols().size(), table_size_before)
        << "resolution must never intern";
    EXPECT_EQ(prog->symbols().find("no-such-class"),
              ops5::kNilSymbol);
}

TEST(Protocol, FrameRoundTripAndCorruptionDetection)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    Frame f;
    f.msg = Msg::Submit;
    f.req_id = 77;
    f.gsid = 1234;
    f.body = {1, 2, 3, 4, 5};
    ASSERT_TRUE(sendFrame(sv[0], f));

    Frame got;
    ASSERT_TRUE(recvFrame(sv[1], got));
    EXPECT_EQ(got.msg, Msg::Submit);
    EXPECT_EQ(got.req_id, 77u);
    EXPECT_EQ(got.gsid, 1234u);
    EXPECT_EQ(got.body, f.body);

    // Corrupt one payload byte after the CRC was computed.
    Frame bad = f;
    ASSERT_TRUE(sendFrame(sv[0], bad));
    // Peek at the raw stream, flip a byte, and feed it back through
    // a second socketpair.
    std::uint8_t raw[256];
    ssize_t n = ::recv(sv[1], raw, sizeof raw, 0);
    ASSERT_GT(n, 17);
    raw[n - 1] ^= 0x40;
    int sv2[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv2), 0);
    ASSERT_EQ(::send(sv2[0], raw, static_cast<std::size_t>(n), 0), n);
    Frame out;
    EXPECT_THROW((void)recvFrame(sv2[1], out), ClusterError);

    // Clean EOF reads as false, not an error.
    ::close(sv[0]);
    EXPECT_FALSE(recvFrame(sv[1], out));
    ::close(sv[1]);
    ::close(sv2[0]);
    ::close(sv2[1]);
}

/** Everything-in-one-process cluster harness. */
struct MiniCluster
{
    std::shared_ptr<const ops5::Program> program;
    std::string primary_dir, replica_dir;
    std::unique_ptr<Standby> standby;
    std::unique_ptr<Worker> standby_worker;
    std::unique_ptr<Worker> w0, w1;
    std::unique_ptr<Router> router;

    explicit MiniCluster(const std::string &tag)
    {
        program = ops5::parse(kJobs);
        primary_dir = scratchDir(tag + "_primary");
        replica_dir = scratchDir(tag + "_replica");

        StandbyOptions so;
        so.dir = replica_dir;
        standby = std::make_unique<Standby>(program, so);
        WorkerOptions swo;
        swo.dir = replica_dir;
        swo.slot = 100;
        standby_worker = std::make_unique<Worker>(program, swo);
        standby_worker->on_open_shard = [this](std::uint64_t gsid) {
            standby->releaseShard(gsid);
        };
        standby->start();
        standby_worker->start();

        auto worker = [&](std::uint32_t slot) {
            WorkerOptions wo;
            wo.slot = slot;
            wo.dir = primary_dir;
            // Checkpoint every batch: the replica is always current,
            // so failover state is deterministic for the test.
            wo.checkpoint.every_batches = 1;
            wo.ship_host = "127.0.0.1";
            wo.ship_port = standby->port();
            return std::make_unique<Worker>(program, wo);
        };
        w0 = worker(0);
        w1 = worker(1);
        w0->start();
        w1->start();

        RouterOptions ro;
        ro.workers = {{"127.0.0.1", w0->port()},
                      {"127.0.0.1", w1->port()}};
        ro.standby = {"127.0.0.1", standby_worker->port()};
        router = std::make_unique<Router>(ro);
        router->start();
    }

    ~MiniCluster()
    {
        router->stop();
        w0->stop();
        w1->stop();
        standby_worker->stop();
        standby->stop();
    }

    /** First gsid the ring places on @p slot. */
    std::uint64_t
    gsidOnSlot(std::uint32_t slot) const
    {
        HashRing ring(RouterOptions{}.vnodes);
        ring.addSlot(0);
        ring.addSlot(1);
        std::uint64_t g = 1;
        while (ring.slotFor(g) != slot)
            ++g;
        return g;
    }
};

TEST(Cluster, EndToEndServeRunRetract)
{
    MiniCluster mc("e2e");
    Client client("127.0.0.1", mc.router->port());

    const std::uint64_t g0 = mc.gsidOnSlot(0);
    const std::uint64_t g1 = mc.gsidOnSlot(1);

    Client::Reply a = client.submit(g0, wireAssert(1));
    ASSERT_FALSE(a.error) << a.error_text;
    ASSERT_TRUE(a.resp.accepted());
    ASSERT_NE(a.resp.tag, 0u);

    serve::WireRequest run;
    run.kind = serve::RequestKind::Run;
    run.max_cycles = 10;
    Client::Reply r = client.submit(g0, run);
    ASSERT_FALSE(r.error);
    EXPECT_GE(r.resp.run.firings, 1u);

    // A second session multiplexes over the same client connection
    // and lands on the other worker.
    Client::Reply b = client.submit(g1, wireAssert(2));
    ASSERT_FALSE(b.error);
    ASSERT_TRUE(b.resp.accepted());

    serve::WireRequest retract;
    retract.kind = serve::RequestKind::Retract;
    retract.tag = a.resp.tag;
    Client::Reply rr = client.submit(g0, retract);
    ASSERT_FALSE(rr.error);
    EXPECT_TRUE(rr.resp.retracted);

    // Retracting the same tag again is a typed no-op, not an error.
    Client::Reply rr2 = client.submit(g0, retract);
    ASSERT_FALSE(rr2.error);
    EXPECT_FALSE(rr2.resp.retracted);

    RouterStats rs = mc.router->stats();
    EXPECT_EQ(rs.errors, 0u);
    EXPECT_GE(rs.forwarded, 5u);
    EXPECT_EQ(rs.failovers, 0u);
}

TEST(Cluster, LoadDriverThroughRouter)
{
    MiniCluster mc("load");
    auto program =
        ops5::parse(std::string(kJobs) + "(make job ^id 0)\n");
    serve::LoadConfig cfg;
    cfg.sessions = 3;
    cfg.clients_per_session = 2;
    cfg.iterations = 5;
    cfg.asserts_per_iteration = 2;
    cfg.run_cycles = 2;
    serve::LoadResult r = serve::runLoad(program, cfg, [&] {
        return std::make_unique<ClientChannel>(
            "127.0.0.1", mc.router->port(), 1, *program);
    });
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.rejected, 0u);
    // sessions x clients x iterations x (2 * asserts + Run).
    EXPECT_EQ(r.completed, 3u * 2u * 5u * (2u * 2u + 1u));
    EXPECT_EQ(r.samples.size(), r.completed);
    EXPECT_LE(r.p50_us, r.p99_us);
}

TEST(Cluster, LiveMigrationKeepsHandlesAndOrdering)
{
    MiniCluster mc("migrate");
    Client client("127.0.0.1", mc.router->port());
    const std::uint64_t g0 = mc.gsidOnSlot(0);

    std::vector<ops5::TimeTag> tags;
    for (int i = 0; i < 5; ++i) {
        Client::Reply a = client.submit(g0, wireAssert(i));
        ASSERT_FALSE(a.error);
        ASSERT_TRUE(a.resp.accepted());
        tags.push_back(a.resp.tag);
    }

    std::string info = mc.router->migrate(g0, 1);
    EXPECT_NE(info.find("\"restored\": true"), std::string::npos)
        << info;

    // Handles taken on the source worker must resolve on the target:
    // tags are process-independent and recovery keeps every
    // element's tag.
    for (ops5::TimeTag t : tags) {
        serve::WireRequest retract;
        retract.kind = serve::RequestKind::Retract;
        retract.tag = t;
        Client::Reply rr = client.submit(g0, retract);
        ASSERT_FALSE(rr.error) << rr.error_text;
        EXPECT_TRUE(rr.resp.retracted) << "tag " << t;
    }
    EXPECT_EQ(mc.router->stats().migrations, 1u);

    // Migrating to a slot outside the ring is a typed error.
    EXPECT_THROW((void)mc.router->migrate(g0, 9), ClusterError);
}

TEST(Cluster, FailoverToStandbyPreservesSessionState)
{
    MiniCluster mc("failover");
    Client client("127.0.0.1", mc.router->port());
    const std::uint64_t g0 = mc.gsidOnSlot(0);
    const std::uint64_t g1 = mc.gsidOnSlot(1);

    Client::Reply a = client.submit(g0, wireAssert(41));
    ASSERT_FALSE(a.error);
    ASSERT_TRUE(a.resp.accepted());
    Client::Reply b = client.submit(g1, wireAssert(42));
    ASSERT_FALSE(b.error);

    // Abrupt stop: the router sees EOF on the link and fails the
    // slot's sessions over to the standby.
    mc.w0->stop();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (mc.router->stats().failovers == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    RouterStats rs = mc.router->stats();
    ASSERT_EQ(rs.failovers, 1u);
    ASSERT_GE(rs.failover_sessions, 1u);

    // The pre-failover handle must survive the promote: the shard
    // was replicated via WAL shipping and restored on the standby.
    serve::WireRequest retract;
    retract.kind = serve::RequestKind::Retract;
    retract.tag = a.resp.tag;
    Client::Reply rr = client.submit(g0, retract);
    ASSERT_FALSE(rr.error) << rr.error_text;
    EXPECT_TRUE(rr.resp.retracted);

    // Sessions on the surviving worker are untouched.
    Client::Reply c = client.submit(g1, wireAssert(43));
    ASSERT_FALSE(c.error);
    EXPECT_TRUE(c.resp.accepted());

    // New sessions keep being admitted (hashing onto the survivors).
    Client::Reply d = client.submit(g0 + 1000, wireAssert(44));
    ASSERT_FALSE(d.error);
    EXPECT_TRUE(d.resp.accepted());
}

TEST(Cluster, StandbyReplicatesFramesAndSnapshots)
{
    MiniCluster mc("ship");
    Client client("127.0.0.1", mc.router->port());
    const std::uint64_t g0 = mc.gsidOnSlot(0);

    for (int i = 0; i < 6; ++i) {
        Client::Reply a = client.submit(g0, wireAssert(i));
        ASSERT_FALSE(a.error);
    }
    // Shipping is synchronous on the commit path (checkpoint every
    // batch), so by the time the replies arrived the replica exists.
    std::vector<ReplicaStats> reps = mc.standby->replicaStats();
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_EQ(reps[0].gsid, g0);
    EXPECT_GE(reps[0].snapshots_installed, 1u);
    EXPECT_FALSE(reps[0].lagging);
    EXPECT_EQ(reps[0].gap_drops, 0u);
}

/** Pulls the first unsigned member @p key out of flat stats JSON. */
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

/** One worker without durability, for direct-client tests. */
std::unique_ptr<Worker>
startWorker(const std::shared_ptr<const ops5::Program> &program,
            std::size_t queue_capacity = 1024)
{
    WorkerOptions wo;
    wo.queue_capacity = queue_capacity;
    auto w = std::make_unique<Worker>(program, wo);
    w->start();
    return w;
}

TEST(Cluster, PipelinedSubmitsReplyInOrderAndShareBatches)
{
    auto program = ops5::parse(kJobs);
    auto worker = startWorker(program);
    Client client("127.0.0.1", worker->port());
    constexpr std::uint64_t kGsid = 7;
    constexpr int kN = 64;

    std::vector<std::uint64_t> sent;
    for (int i = 0; i < kN; ++i)
        sent.push_back(client.sendSubmit(kGsid, wireAssert(i)));
    ops5::TimeTag last_tag = 0;
    for (int i = 0; i < kN; ++i) {
        Client::Reply r = client.readReply();
        ASSERT_FALSE(r.error) << r.error_text;
        ASSERT_TRUE(r.resp.accepted());
        EXPECT_EQ(r.req_id, sent[static_cast<std::size_t>(i)])
            << "replies of one gsid leave in send order";
        EXPECT_GT(r.resp.tag, last_tag);
        last_tag = r.resp.tag;
    }

    // The connection thread hands requests straight to the pool, so a
    // pipelined session's asserts fold into shared match batches.
    const std::string stats = client.scrape(0, ScrapeKind::StatsJson);
    EXPECT_EQ(jsonUint(stats, "completed"),
              static_cast<std::uint64_t>(kN))
        << stats;
    EXPECT_LT(jsonUint(stats, "batches"), jsonUint(stats, "completed"))
        << stats;
}

TEST(Cluster, QueueFullRejectionsCarryTheirReqId)
{
    auto program = ops5::parse(kJobs);
    auto worker = startWorker(program, /*queue_capacity=*/1);
    Client client("127.0.0.1", worker->port());
    constexpr std::uint64_t kGsid = 3;
    constexpr int kN = 32;

    std::set<std::uint64_t> outstanding;
    for (int i = 0; i < kN; ++i)
        outstanding.insert(client.sendSubmit(kGsid, wireAssert(i)));
    std::uint64_t rejected = 0;
    std::uint64_t last_accepted = 0;
    for (int i = 0; i < kN; ++i) {
        Client::Reply r = client.readReply();
        ASSERT_FALSE(r.error) << r.error_text;
        ASSERT_EQ(outstanding.erase(r.req_id), 1u)
            << "reply " << r.req_id << " matches no request in flight";
        if (r.resp.accepted()) {
            EXPECT_GT(r.req_id, last_accepted)
                << "accepted requests reply in send order";
            last_accepted = r.req_id;
        } else {
            EXPECT_EQ(r.resp.rejected, serve::RejectReason::QueueFull);
            ++rejected;
        }
    }
    EXPECT_TRUE(outstanding.empty());
    EXPECT_GE(rejected, 1u)
        << "a one-slot queue must refuse part of a pipelined burst";
    const std::string stats = client.scrape(0, ScrapeKind::StatsJson);
    EXPECT_EQ(jsonUint(stats, "rejected_full"), rejected) << stats;
}

TEST(Cluster, DisconnectWithRequestsInFlightKeepsWorkerServing)
{
    auto program = ops5::parse(kJobs);
    auto worker = startWorker(program);
    constexpr std::uint64_t kGsid = 11;
    constexpr std::uint64_t kN = 32;

    {
        Client gone("127.0.0.1", worker->port());
        for (std::uint64_t i = 0; i < kN; ++i)
            gone.sendSubmit(kGsid, wireAssert(static_cast<int>(i)));
        // A frame that does not decode is answered at once by the
        // connection thread, after it has submitted everything sent
        // before it; replies to those may still be owed.
        serve::WireRequest bad = wireAssert(0);
        bad.cls = "no-such-class";
        gone.sendSubmit(kGsid, bad);
        for (;;) {
            Client::Reply r = gone.readReply();
            if (r.error)
                break;
        }
    } // disconnects

    Client client("127.0.0.1", worker->port());
    std::string stats;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    do {
        stats = client.scrape(0, ScrapeKind::StatsJson);
    } while (jsonUint(stats, "completed") < kN &&
             std::chrono::steady_clock::now() < deadline);
    ASSERT_EQ(jsonUint(stats, "admitted"), kN) << stats;
    ASSERT_EQ(jsonUint(stats, "completed"), kN) << stats;

    // The new connection sees every assert: each job fires once.
    serve::WireRequest run;
    run.kind = serve::RequestKind::Run;
    run.max_cycles = 1000;
    Client::Reply rr = client.submit(kGsid, run);
    ASSERT_FALSE(rr.error) << rr.error_text;
    EXPECT_EQ(rr.resp.run.firings, kN);

    Client::Reply more = client.submit(kGsid, wireAssert(99));
    ASSERT_FALSE(more.error) << more.error_text;
    EXPECT_TRUE(more.resp.accepted());
}

} // namespace
