/**
 * @file
 * Serving-layer tests: admission control (typed rejections, load
 * shedding), request batching, deadlines (queued and mid-run),
 * graceful drain/shutdown, stale-tag safety, in-order completion,
 * and multi-session
 * pools over the parallel matcher.
 *
 * Determinism trick used throughout: a pool built with
 * autostart=false admits but never executes, so queue depth, shed
 * state, and expiry are controlled exactly; start()/drain() then
 * releases the work.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "ops5/parser.hpp"
#include "serve/serve.hpp"

using namespace psm;
using namespace psm::serve;

namespace {

/** Each job WME is consumed by one firing that logs a done WME. */
constexpr const char *kJobs = R"(
(literalize job id)
(literalize done id)
(p work (job ^id <i>) --> (make done ^id <i>) (remove 1))
)";

/** Never quiesces: the counter flips forever (for deadline tests). */
constexpr const char *kFlipFlop = R"(
(literalize c v)
(p flip (c ^v 0) --> (modify 1 ^v 1))
(p flop (c ^v 1) --> (modify 1 ^v 0))
(make c ^v 0)
)";

std::shared_ptr<const ops5::Program>
jobsProgram()
{
    return ops5::parse(kJobs);
}

Request
assertJob(const std::shared_ptr<const ops5::Program> &prog, int id)
{
    return Request::makeAssert(prog->symbols().find("job"),
                               {ops5::Value::integer(id)});
}

TEST(ServeTest, BatchingFoldsRequestsIntoFewFixpoints)
{
    auto prog = jobsProgram();
    PoolOptions opt;
    opt.autostart = false;
    opt.max_batch = 64;
    SessionPool pool(prog, opt);

    std::vector<Submit> subs;
    for (int i = 0; i < 16; ++i)
        subs.push_back(pool.submit(0, assertJob(prog, i)));
    for (Submit &s : subs)
        ASSERT_TRUE(s.accepted());

    pool.start();
    pool.drain();

    for (Submit &s : subs) {
        Response r = s.response.get();
        EXPECT_EQ(r.kind, RequestKind::Assert);
        EXPECT_NE(r.tag, 0u);
        EXPECT_FALSE(r.deadline_expired);
    }
    SessionPool::Stats st = pool.stats();
    EXPECT_EQ(st.admitted, 16u);
    EXPECT_EQ(st.completed, 16u);
    EXPECT_LT(st.batches, 16u)
        << "requests must fold into shared match batches";
    EXPECT_GE(st.batches, 1u);
    EXPECT_EQ(pool.engine(0).workingMemory().liveCount(), 16u);

    // Telemetry mirrors the ledger.
    auto &m = pool.metrics();
    EXPECT_EQ(m.total(telemetry::Counter::ServeAdmitted), 16u);
    EXPECT_EQ(m.total(telemetry::Counter::ServeCompleted), 16u);
    telemetry::HistogramData lat =
        m.merged(telemetry::Histogram::ServeRequestLatencyUs);
    EXPECT_EQ(lat.count, 16u);
    telemetry::HistogramData bs =
        m.merged(telemetry::Histogram::ServeBatchSize);
    EXPECT_GE(bs.max, 2u) << "at least one multi-request batch";
}

TEST(ServeTest, QueueFullRejectionIsTyped)
{
    auto prog = jobsProgram();
    PoolOptions opt;
    opt.autostart = false;
    opt.queue_capacity = 4;
    SessionPool pool(prog, opt);

    std::vector<Submit> subs;
    for (int i = 0; i < 4; ++i) {
        subs.push_back(pool.submit(0, assertJob(prog, i)));
        ASSERT_TRUE(subs.back().accepted());
    }
    Submit overflow = pool.submit(0, assertJob(prog, 99));
    EXPECT_EQ(overflow.rejected, RejectReason::QueueFull);
    EXPECT_STREQ(rejectReasonName(overflow.rejected), "queue_full");

    pool.start();
    pool.drain();
    for (Submit &s : subs)
        EXPECT_NE(s.response.get().tag, 0u);
    SessionPool::Stats st = pool.stats();
    EXPECT_EQ(st.admitted, 4u);
    EXPECT_EQ(st.completed, 4u);
    EXPECT_EQ(st.rejected_full, 1u);
    EXPECT_EQ(st.rejected(), 1u);
}

TEST(ServeTest, OverloadSheddingAtWatermark)
{
    auto prog = jobsProgram();
    PoolOptions opt;
    opt.autostart = false;
    opt.n_sessions = 2;
    opt.shed_watermark = 2;
    SessionPool pool(prog, opt);

    // Watermark counts pool-wide pending, not per session.
    Submit a = pool.submit(0, assertJob(prog, 1));
    Submit b = pool.submit(1, assertJob(prog, 2));
    ASSERT_TRUE(a.accepted());
    ASSERT_TRUE(b.accepted());
    Submit shed = pool.submit(0, assertJob(prog, 3));
    EXPECT_EQ(shed.rejected, RejectReason::Overloaded);

    pool.drain(); // also exercises drain-before-start
    EXPECT_NE(a.response.get().tag, 0u);
    EXPECT_NE(b.response.get().tag, 0u);
    SessionPool::Stats st = pool.stats();
    EXPECT_EQ(st.rejected_overload, 1u);
    EXPECT_EQ(pool.metrics().total(telemetry::Counter::ServeRejected),
              1u);
}

TEST(ServeTest, BadSessionRejectedWithoutSideEffects)
{
    auto prog = jobsProgram();
    PoolOptions opt;
    opt.autostart = false;
    SessionPool pool(prog, opt);
    Submit s = pool.submit(7, assertJob(prog, 1));
    EXPECT_EQ(s.rejected, RejectReason::BadSession);
    EXPECT_EQ(pool.stats().admitted, 0u);
    pool.drain();
}

TEST(ServeTest, DeadlineExpiredInQueueSkipsExecution)
{
    auto prog = jobsProgram();
    PoolOptions opt;
    opt.autostart = false;
    SessionPool pool(prog, opt);

    Request late = assertJob(prog, 1);
    late.deadline = ServeClock::now() - std::chrono::milliseconds(1);
    Submit expired = pool.submit(0, late);
    Submit fresh = pool.submit(0, assertJob(prog, 2));
    ASSERT_TRUE(expired.accepted());
    ASSERT_TRUE(fresh.accepted());

    pool.start();
    pool.drain();

    Response r = expired.response.get();
    EXPECT_TRUE(r.deadline_expired);
    EXPECT_EQ(r.tag, 0u) << "expired requests must not execute";
    EXPECT_FALSE(fresh.response.get().deadline_expired);
    SessionPool::Stats st = pool.stats();
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.expired, 1u);
    EXPECT_EQ(pool.engine(0).workingMemory().liveCount(), 1u);
}

TEST(ServeTest, DeadlineStopsRunMidway)
{
    auto prog = ops5::parse(kFlipFlop);
    SessionPool pool(prog, {});

    // Generous deadline: under a loaded CI runner a few-ms deadline
    // can expire while the request is still queued, and then the run
    // never starts (stopped stays false). 50 ms is still ~6 orders
    // of magnitude short of 100M cycles of flip-flop.
    Request run = Request::makeRun(100000000);
    run.deadline = ServeClock::now() + std::chrono::milliseconds(50);
    Submit s = pool.submit(0, run);
    ASSERT_TRUE(s.accepted());
    Response r = s.response.get();
    EXPECT_TRUE(r.deadline_expired);
    EXPECT_TRUE(r.run.stopped);
    EXPECT_FALSE(r.run.halted);
    EXPECT_LT(r.run.firings, 100000000u)
        << "the flip-flop never quiesces; only the deadline stops it";
}

TEST(ServeTest, RunWithoutDeadlineUsesCycleBudget)
{
    auto prog = ops5::parse(kFlipFlop);
    PoolOptions opt;
    opt.default_run_cycles = 10;
    SessionPool pool(prog, opt);

    Submit s = pool.submit(0, Request::makeRun());
    ASSERT_TRUE(s.accepted());
    Response r = s.response.get();
    EXPECT_FALSE(r.deadline_expired);
    EXPECT_EQ(r.run.firings, 10u) << "pool default budget applies";

    Submit s2 = pool.submit(0, Request::makeRun(3));
    Response r2 = s2.response.get();
    EXPECT_EQ(r2.run.firings, 3u) << "per-request budget wins";
}

TEST(ServeTest, DrainCompletesAcceptedThenRejectsNew)
{
    auto prog = jobsProgram();
    PoolOptions opt;
    opt.autostart = false;
    SessionPool pool(prog, opt);

    std::vector<Submit> subs;
    for (int i = 0; i < 8; ++i)
        subs.push_back(pool.submit(0, assertJob(prog, i)));

    pool.drain(); // starts the servers itself; must not hang
    EXPECT_FALSE(pool.accepting());
    for (Submit &s : subs) {
        ASSERT_TRUE(s.accepted());
        EXPECT_NE(s.response.get().tag, 0u)
            << "every accepted request completes during drain";
    }

    Submit late = pool.submit(0, assertJob(prog, 99));
    EXPECT_EQ(late.rejected, RejectReason::ShuttingDown);
    SessionPool::Stats st = pool.stats();
    EXPECT_EQ(st.completed, 8u);
    EXPECT_EQ(st.rejected_shutdown, 1u);

    pool.shutdown(); // idempotent with the destructor
}

TEST(ServeTest, RetractDuringDrainAndRepeatedRetract)
{
    auto prog = jobsProgram();
    SessionPool pool(prog, {});

    // Assert a done-class element no rule consumes, so the tag stays
    // live until we retract it.
    Submit a = pool.submit(
        0, Request::makeAssert(prog->symbols().find("done"),
                               {ops5::Value::integer(1)}));
    ASSERT_TRUE(a.accepted());
    const ops5::TimeTag tag = a.response.get().tag;
    ASSERT_NE(tag, 0u);

    // Retract submitted immediately before drain: drain must execute
    // it, not strand it.
    Submit r1 = pool.submit(0, Request::makeRetractTag(tag));
    ASSERT_TRUE(r1.accepted());
    pool.drain();
    EXPECT_TRUE(r1.response.get().retracted);
    EXPECT_EQ(pool.engine(0).workingMemory().liveCount(), 0u);
}

TEST(ServeTest, RepeatedRetractIsSafeNoOp)
{
    auto prog = jobsProgram();
    SessionPool pool(prog, {});

    Submit a = pool.submit(
        0, Request::makeAssert(prog->symbols().find("done"),
                               {ops5::Value::integer(1)}));
    const ops5::TimeTag tag = a.response.get().tag;
    ASSERT_NE(tag, 0u);

    Submit r1 = pool.submit(0, Request::makeRetractTag(tag));
    EXPECT_TRUE(r1.response.get().retracted);

    // The element is gone by now; a repeated retract of its tag must
    // answer false.
    Submit r2 = pool.submit(0, Request::makeRetractTag(tag));
    EXPECT_FALSE(r2.response.get().retracted);

    // A tag the pool never issued is equally safe.
    Submit r3 = pool.submit(0, Request::makeRetractTag(12345));
    EXPECT_FALSE(r3.response.get().retracted);
}

TEST(ServeTest, RetractConsumedByFiringIsRefused)
{
    auto prog = jobsProgram();
    SessionPool pool(prog, {});

    Submit a = pool.submit(0, assertJob(prog, 1));
    const ops5::TimeTag tag = a.response.get().tag;
    ASSERT_NE(tag, 0u);

    // The Run consumes the job (its rule removes it).
    Submit run = pool.submit(0, Request::makeRun(10));
    EXPECT_EQ(run.response.get().run.firings, 1u);

    Submit r = pool.submit(0, Request::makeRetractTag(tag));
    EXPECT_FALSE(r.response.get().retracted)
        << "firing already removed the element";
}

TEST(ServeTest, AssertAndRetractNeverShareAMatchBatch)
{
    // An assert's tag only reaches the client AFTER its match
    // batch commits (responses are deferred to the flush), so a
    // retract referencing it always lands in a LATER batch — the
    // matcher can never see a conjugate insert+remove pair racing
    // inside one parallel batch. Verify that ordering end to end.
    auto prog = jobsProgram();
    PoolOptions opt;
    opt.autostart = false;
    SessionPool pool(prog, opt);

    Submit a = pool.submit(
        0, Request::makeAssert(prog->symbols().find("done"),
                               {ops5::Value::integer(1)}));
    ASSERT_TRUE(a.accepted());

    std::thread retractor([&] {
        const ops5::TimeTag tag = a.response.get().tag;
        Submit r = pool.submit(0, Request::makeRetractTag(tag));
        ASSERT_TRUE(r.accepted());
        EXPECT_TRUE(r.response.get().retracted);
    });
    pool.start();
    retractor.join();
    pool.drain();
    EXPECT_EQ(pool.engine(0).workingMemory().liveCount(), 0u);
    EXPECT_GE(pool.stats().batches, 2u)
        << "the insert and the remove committed separately";
}

TEST(ServeTest, RetractAtReusedAddressOfConsumedElement)
{
    // A firing removes an element behind the pool's back, and later
    // asserts may reuse its memory. Retracts go by time tag, and tags
    // are never reused: the consumed element's tag answers false,
    // while every new element's tag still retracts it.
    auto prog = jobsProgram();
    SessionPool pool(prog, {});

    Submit a = pool.submit(0, assertJob(prog, 1));
    const ops5::TimeTag consumed = a.response.get().tag;
    ASSERT_NE(consumed, 0u);
    ASSERT_EQ(pool.submit(0, Request::makeRun(10))
                  .response.get()
                  .run.firings,
              1u)
        << "the job rule removes the element and frees it";

    // Fresh allocations of the same size, some at the freed block.
    std::vector<ops5::TimeTag> fresh;
    for (int i = 2; i < 50; ++i) {
        const ops5::TimeTag t =
            pool.submit(0, assertJob(prog, i)).response.get().tag;
        ASSERT_NE(t, 0u);
        ASSERT_NE(t, consumed) << "a time tag was reused";
        fresh.push_back(t);
    }

    EXPECT_FALSE(pool.submit(0, Request::makeRetractTag(consumed))
                     .response.get()
                     .retracted)
        << "the consumed element is gone";
    for (ops5::TimeTag t : fresh)
        EXPECT_TRUE(pool.submit(0, Request::makeRetractTag(t))
                        .response.get()
                        .retracted)
            << "tag " << t << " was live";
}

TEST(ServeTest, CallbackCompletionsFollowSubmitOrder)
{
    // An assert, a retract the pool refuses, and a request that
    // expired in the queue land in one drain pass. The refused and
    // the expired request need no match batch, yet they may not
    // overtake the assert: one session completes in queue order.
    auto prog = jobsProgram();
    PoolOptions opt;
    opt.autostart = false;
    SessionPool pool(prog, opt);

    std::mutex mu;
    std::vector<int> order;
    std::vector<Response> got(3);
    auto record = [&](int i) {
        return [&, i](Response &&resp) {
            std::lock_guard<std::mutex> lk(mu);
            order.push_back(i);
            got[static_cast<std::size_t>(i)] = std::move(resp);
        };
    };
    Request expired = assertJob(prog, 2);
    expired.deadline = ServeClock::now() - std::chrono::milliseconds(1);
    EXPECT_EQ(pool.submit(0, assertJob(prog, 1), record(0)),
              RejectReason::None);
    EXPECT_EQ(pool.submit(0, Request::makeRetractTag(99999), record(1)),
              RejectReason::None);
    EXPECT_EQ(pool.submit(0, expired, record(2)), RejectReason::None);

    pool.start();
    pool.drain();

    ASSERT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_NE(got[0].tag, 0u);
    EXPECT_FALSE(got[1].retracted);
    EXPECT_TRUE(got[2].deadline_expired);
    EXPECT_EQ(pool.stats().batches, 1u);
}

/**
 * Multi-session pools over the parallel matcher serve concurrent
 * clients to completion with per-session isolation (run under TSan
 * in CI).
 */
TEST(ServeTest, ConcurrentClientsOnParallelSessions)
{
    auto prog = jobsProgram();
    PoolOptions opt;
    opt.n_sessions = 3;
    opt.n_threads = 2;
    opt.matcher.kind = MatcherSpec::Kind::Parallel;
    opt.matcher.workers = 2;
    SessionPool pool(prog, opt);

    constexpr int kClients = 3, kIters = 20;
    std::vector<std::thread> clients;
    std::atomic<std::uint64_t> ok{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kIters; ++i) {
                std::size_t sess =
                    static_cast<std::size_t>(c) % pool.sessionCount();
                Submit a = pool.submit(sess, assertJob(prog, i));
                ASSERT_TRUE(a.accepted());
                Submit run = pool.submit(sess, Request::makeRun(5));
                ASSERT_TRUE(run.accepted());
                if (a.response.get().tag != 0 &&
                    run.response.get().run.cycles >= 1)
                    ok.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    pool.drain();

    EXPECT_EQ(ok.load(), static_cast<std::uint64_t>(kClients * kIters));
    SessionPool::Stats st = pool.stats();
    EXPECT_EQ(st.admitted, st.completed);
    EXPECT_EQ(st.rejected(), 0u);

    // Per-session isolation: each engine consumed exactly its own
    // clients' jobs into done elements.
    std::uint64_t total_done = 0;
    for (std::size_t i = 0; i < pool.sessionCount(); ++i)
        total_done += pool.engine(i).workingMemory().liveCount();
    EXPECT_EQ(total_done,
              static_cast<std::uint64_t>(kClients * kIters));
}

TEST(ServeTest, MatcherSpecParsesAllKinds)
{
    MatcherSpec::Kind k{};
    EXPECT_TRUE(parseMatcherKind("rete", k));
    EXPECT_EQ(k, MatcherSpec::Kind::Rete);
    EXPECT_TRUE(parseMatcherKind("treat", k));
    EXPECT_TRUE(parseMatcherKind("naive", k));
    EXPECT_TRUE(parseMatcherKind("fullstate", k));
    EXPECT_TRUE(parseMatcherKind("parallel", k));
    EXPECT_FALSE(parseMatcherKind("bogus", k));
    EXPECT_STREQ(matcherKindName(MatcherSpec::Kind::FullState),
                 "fullstate");
}

/** kJobs plus one initial WME: the driver's assert template. */
std::shared_ptr<const ops5::Program>
jobsProgramWithTemplate()
{
    return ops5::parse(std::string(kJobs) + "(make job ^id 0)\n");
}

TEST(ServeTest, LoadDriverClosedLoopSmoke)
{
    auto with_initial = jobsProgramWithTemplate();
    PoolOptions opts;
    opts.n_sessions = 2;
    SessionPool pool(with_initial, opts);
    auto channels = [&] {
        return std::make_unique<PoolChannel>(pool, *with_initial);
    };
    LoadConfig cfg;
    cfg.sessions = 2;
    cfg.clients_per_session = 2;
    cfg.iterations = 10;
    cfg.asserts_per_iteration = 2;
    LoadResult r = runLoad(with_initial, cfg, channels);
    pool.drain();
    EXPECT_EQ(r.rejected, 0u);
    EXPECT_EQ(r.errors, 0u);
    // 4 clients x 10 iterations x (2 asserts + 2 retracts).
    EXPECT_EQ(r.completed, 160u);
    EXPECT_EQ(r.completed, pool.stats().completed);
    EXPECT_EQ(r.samples.size(), r.completed);
    EXPECT_GT(r.requests_per_sec, 0.0);
    EXPECT_LE(r.p50_us, r.p95_us);
    EXPECT_LE(r.p95_us, r.p99_us);
    EXPECT_LE(r.p99_us, r.max_us);

    EXPECT_THROW(runLoad(jobsProgram(), cfg, channels),
                 std::runtime_error)
        << "programs without initial WMEs have no request templates";
}

/** Scripted channel: answers every send at once with the status its
 *  script picks, logs the send, and spreads done_at so latencies
 *  differ. */
class FakeChannel : public Channel
{
  public:
    using Script = std::function<Answer::Status(const Op &)>;

    FakeChannel(std::vector<Op> &log, Script script)
        : log_(log), script_(std::move(script))
    {}

    std::uint64_t
    send(std::size_t, const Op &op) override
    {
        log_.push_back(op);
        Answer a;
        a.status = script_(op);
        if (op.kind == RequestKind::Assert &&
            a.status != Answer::Status::Rejected)
            a.tag = next_tag_++;
        a.done_at = ServeClock::now() +
                    std::chrono::microseconds(10 * (log_.size() % 7));
        answers_.emplace(next_token_, a);
        return next_token_++;
    }

    Answer
    wait(std::uint64_t token) override
    {
        Answer a = answers_.at(token);
        answers_.erase(token);
        return a;
    }

  private:
    std::vector<Op> &log_;
    Script script_;
    std::uint64_t next_token_ = 1;
    ops5::TimeTag next_tag_ = 100;
    std::map<std::uint64_t, Answer> answers_;
};

/** One client, one session: every send lands in @p log. */
LoadResult
runScripted(const LoadConfig &cfg, std::vector<Op> &log,
            FakeChannel::Script script)
{
    return runLoad(jobsProgramWithTemplate(), cfg, [&] {
        return std::make_unique<FakeChannel>(log, script);
    });
}

std::size_t
countKind(const std::vector<Op> &log, RequestKind kind)
{
    return static_cast<std::size_t>(
        std::count_if(log.begin(), log.end(),
                      [&](const Op &op) { return op.kind == kind; }));
}

TEST(ServeTest, LoadDriverRetractsOnlyOkAssertsAndCountsApart)
{
    // Asserts answer Ok, Rejected, Expired, Lost in turn; every
    // other request answers Ok.
    std::size_t nth_assert = 0;
    std::vector<Op> log;
    FakeChannel::Script script = [&](const Op &op) {
        if (op.kind != RequestKind::Assert)
            return Answer::Status::Ok;
        static constexpr Answer::Status kCycle[] = {
            Answer::Status::Ok, Answer::Status::Rejected,
            Answer::Status::Expired, Answer::Status::Lost};
        return kCycle[nth_assert++ % 4];
    };
    LoadConfig cfg;
    cfg.iterations = 10;
    cfg.asserts_per_iteration = 4;
    cfg.run_cycles = 3;
    LoadResult r = runScripted(cfg, log, script);

    // The fake numbers assert tags from 100 in send order, skipping
    // rejected ones; the Ok asserts are every fourth send.
    ops5::TimeTag tag = 100;
    std::size_t i = 0;
    std::set<ops5::TimeTag> ok_tags, retracted;
    for (const Op &op : log) {
        if (op.kind == RequestKind::Assert) {
            if (i % 4 == 0)
                ok_tags.insert(tag);
            if (i % 4 != 1)
                ++tag;
            ++i;
        } else if (op.kind == RequestKind::Retract) {
            EXPECT_TRUE(retracted.insert(op.tag).second)
                << "tag " << op.tag << " retracted twice";
        }
    }
    EXPECT_EQ(countKind(log, RequestKind::Assert), 40u);
    EXPECT_EQ(retracted, ok_tags);
    EXPECT_EQ(countKind(log, RequestKind::Run), 10u);
    for (const Op &op : log)
        EXPECT_TRUE(op.kind != RequestKind::Run || op.cycles == 3u);

    // Ok: 10 asserts + 10 retracts + 10 runs; 10 expired.
    EXPECT_EQ(r.completed, 40u);
    EXPECT_EQ(r.expired, 10u);
    EXPECT_EQ(r.rejected, 10u);
    EXPECT_EQ(r.errors, 10u);
    EXPECT_EQ(r.samples.size(), r.completed);
    EXPECT_GT(r.max_us, 0.0);
    EXPECT_LE(r.p50_us, r.p95_us);
    EXPECT_LE(r.p95_us, r.p99_us);
    EXPECT_LE(r.p99_us, r.max_us);
}

TEST(ServeTest, LoadDriverSendsRunOnlyWithRunCycles)
{
    std::vector<Op> log;
    auto ok = [](const Op &) { return Answer::Status::Ok; };
    LoadConfig cfg;
    cfg.iterations = 5;
    cfg.asserts_per_iteration = 2;
    LoadResult r = runScripted(cfg, log, ok);
    EXPECT_EQ(countKind(log, RequestKind::Run), 0u);
    EXPECT_EQ(r.completed, 5u * 4u);

    log.clear();
    cfg.run_cycles = 1;
    r = runScripted(cfg, log, ok);
    EXPECT_EQ(countKind(log, RequestKind::Run), 5u);
    EXPECT_EQ(r.completed, 5u * 5u);
}

TEST(ServeTest, LoadDriverKeepsTallyOfAChannelThatDies)
{
    // The channel answers its first N sends, then loses every later
    // one for good: the client's completions are still counted.
    constexpr std::size_t kN = 5;
    std::size_t sent = 0;
    std::vector<Op> log;
    LoadConfig cfg;
    cfg.iterations = 10;
    cfg.asserts_per_iteration = 2;
    LoadResult r = runScripted(cfg, log, [&](const Op &) {
        return ++sent <= kN ? Answer::Status::Ok : Answer::Status::Lost;
    });
    EXPECT_EQ(r.completed, kN);
    EXPECT_GE(r.errors, 1u);
    EXPECT_EQ(r.samples.size(), kN);
}

TEST(ServeTest, LoadDriverNeverResendsALostRequest)
{
    // The second assert's reply is dropped: it is sent once, counted
    // once as an error, and every iteration still runs to its end.
    std::size_t nth_assert = 0;
    std::vector<Op> log;
    LoadConfig cfg;
    cfg.iterations = 4;
    cfg.asserts_per_iteration = 2;
    cfg.run_cycles = 1;
    LoadResult r = runScripted(cfg, log, [&](const Op &op) {
        if (op.kind == RequestKind::Assert && nth_assert++ == 1)
            return Answer::Status::Lost;
        return Answer::Status::Ok;
    });
    EXPECT_EQ(countKind(log, RequestKind::Assert), 8u);
    EXPECT_EQ(countKind(log, RequestKind::Retract), 7u);
    EXPECT_EQ(countKind(log, RequestKind::Run), 4u);
    EXPECT_EQ(r.errors, 1u);
    EXPECT_EQ(r.completed, 7u + 7u + 4u);
}

TEST(ServeTest, LoadDriverRethrowsAClientFailure)
{
    std::vector<Op> log;
    LoadConfig cfg;
    cfg.iterations = 3;
    EXPECT_THROW(runScripted(cfg, log,
                             [](const Op &) -> Answer::Status {
                                 throw std::logic_error("channel bug");
                             }),
                 std::logic_error);
}

TEST(ServeTest, WindowPercentileHonoursWindowAndSessionFilter)
{
    std::vector<LoadSample> samples;
    for (std::size_t session = 0; session < 2; ++session)
        for (int t = 0; t < 10; ++t) {
            LoadSample s;
            s.t_ms = t;
            s.latency_us = 1000.0 * static_cast<double>(session) + 100 + t;
            s.session = session;
            samples.push_back(s);
        }
    auto only = [](std::size_t want) {
        return [want](std::size_t s) { return s == want; };
    };
    // [2, 5) holds t = 2, 3, 4 of each session.
    EXPECT_EQ(windowPercentile(samples, 2, 5, 100, only(0)), 104.0);
    EXPECT_EQ(windowPercentile(samples, 2, 5, 0, only(1)), 1102.0);
    EXPECT_EQ(windowPercentile(samples, 2, 5, 50), 104.0);
    EXPECT_EQ(windowPercentile(samples, 2, 5, 100), 1104.0);
    EXPECT_EQ(windowPercentile(samples, 10, 20, 99), 0.0);
}

/** Canonical conflict-set snapshot: sorted (production, tags) keys. */
std::vector<std::pair<int, std::vector<ops5::TimeTag>>>
conflictKeys(core::Engine &engine)
{
    std::vector<std::pair<int, std::vector<ops5::TimeTag>>> out;
    for (const ops5::Instantiation &inst :
         engine.matcher().conflictSet().contents()) {
        ops5::InstantiationKey key = ops5::InstantiationKey::of(inst);
        out.emplace_back(key.production_id, key.tags);
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(ServeTest, DrainUnderLoadMigratesIntoRestoredPool)
{
    auto prog = jobsProgram();
    const std::string dir =
        ::testing::TempDir() + "psm_serve_migration";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    PoolOptions opt;
    opt.n_sessions = 2;
    opt.n_threads = 2;
    opt.durability.dir = dir;
    opt.durability.fsync = durable::FsyncPolicy::Batch;

    std::vector<std::vector<std::pair<int, std::vector<ops5::TimeTag>>>>
        before;
    std::uint64_t live[2] = {0, 0};
    {
        SessionPool pool(prog, opt);

        // Four clients submit until the pool shuts the door on them,
        // so the drain below is guaranteed to race in-flight work.
        // Anything admitted before the door closed must complete.
        std::atomic<std::uint64_t> ok{0};
        std::atomic<std::uint64_t> shed{0};
        std::vector<std::thread> clients;
        for (int t = 0; t < 4; ++t)
            clients.emplace_back([&, t] {
                for (int i = 0;; ++i) {
                    Submit s = pool.submit(
                        t % 2, assertJob(prog, t * 100000 + i));
                    if (!s.accepted()) {
                        EXPECT_EQ(s.rejected,
                                  RejectReason::ShuttingDown);
                        shed.fetch_add(1);
                        return;
                    }
                    Response r = s.response.get();
                    EXPECT_NE(r.tag, 0u);
                    EXPECT_FALSE(r.deadline_expired);
                    ok.fetch_add(1);
                }
            });
        while (ok.load() < 32) // let requests get in flight first
            std::this_thread::yield();
        pool.drain();
        for (auto &c : clients)
            c.join();
        EXPECT_EQ(shed.load(), 4u)
            << "every client eventually saw the typed shutdown";

        SessionPool::Stats st = pool.stats();
        EXPECT_EQ(st.completed, ok.load());
        EXPECT_EQ(st.admitted, st.completed)
            << "drain may not drop accepted requests";
        before.push_back(conflictKeys(pool.engine(0)));
        before.push_back(conflictKeys(pool.engine(1)));
        live[0] = pool.engine(0).workingMemory().liveCount();
        live[1] = pool.engine(1).workingMemory().liveCount();
    }

    // Pool B restores from the same sessionDirs pool A drained into.
    PoolOptions restored = opt;
    restored.restore = true;
    restored.autostart = false;
    SessionPool pool2(prog, restored);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(pool2.recoveryStats(i).recovered) << i;
        EXPECT_EQ(conflictKeys(pool2.engine(i)), before[i])
            << "conflict set differs for migrated session " << i;
        EXPECT_EQ(pool2.engine(i).workingMemory().liveCount(),
                  live[i])
            << i;
    }

    // The restored pool is live, not a museum piece.
    pool2.start();
    Submit s = pool2.submit(0, assertJob(prog, 424242));
    ASSERT_TRUE(s.accepted());
    EXPECT_NE(s.response.get().tag, 0u);
    pool2.drain();
}

} // namespace
