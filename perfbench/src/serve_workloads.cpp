/**
 * @file
 * serve-mixed and cluster-mixed: the same request mix driven into an
 * in-process SessionPool and through the cluster router, plus the
 * serve/durable probe and the four-rung latency ladder.
 *
 * One iteration against one session is 4 asserts, then a retract of
 * every asserted element by its time tag, then a Run(3). The Run comes
 * after the retracts because the serve layer keys its retract handles
 * by element address: when a firing removes an asserted element and a
 * later assert reuses its address, the stale entry makes the retract
 * of the new element answer `retracted=false` (see NOTES.md). Generator
 * threads own disjoint sessions, so each session's request order is
 * the order its generator sent them; the oracle replays that order
 * on a bare Engine and must reproduce every answer.
 */

#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>

#include "cluster/load_driver.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "core/engine.hpp"
#include "rete/matcher.hpp"
#include "serve/session_pool.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using serve::RequestKind;

namespace {

constexpr std::size_t kSessions = 8;
constexpr std::size_t kGenerators = 1;
constexpr std::size_t kClusterGenerators = 4;
constexpr std::size_t kAssertsPerIteration = 4;
constexpr std::uint64_t kRunCycles = 3;
/** Open-loop iterations per second per generator (fixed, well under
 *  capacity, so latency is measured in steady state). */
constexpr double kServeRatePerGen = 1200.0;
constexpr double kClusterRatePerGen = 250.0;
/** Closed-loop passes: rounds per pass (one iteration per session). */
constexpr std::size_t kServePassIterations = 100;
constexpr std::size_t kClusterPassIterations = 100;
/** Share of a run spent in the open-loop phase. */
constexpr double kOpenShare = 0.5;
constexpr std::chrono::microseconds kSpinBeforeDue{100};
/** Open-loop latency percentiles are taken per time window. */
constexpr int kLatencyWindows = 16;

// ---------------------------------------------------------------------------
// Requests, answers, and the per-session log the oracle replays
// ---------------------------------------------------------------------------

struct Op
{
    RequestKind kind = RequestKind::Assert;
    std::uint32_t tmpl = 0;   ///< assert: index into initial WMEs
    ops5::TimeTag tag = 0;    ///< retract
    std::uint64_t cycles = 0; ///< run
};

struct Answer
{
    bool ok = false;      ///< executed (not rejected, expired or lost)
    ops5::TimeTag tag = 0;
    bool retracted = false;
    std::uint64_t firings = 0;
    double server_us = 0; ///< Response::latency (in-process only)
};

struct SessionLog
{
    std::mt19937_64 rng; ///< draws the assert templates
    std::vector<Op> ops;
    std::vector<Answer> answers;
};

/** A generator's connection to the system under test. */
class Channel
{
  public:
    virtual ~Channel() = default;
    /** Sends one request; returns the token wait() takes. */
    virtual std::uint64_t send(std::size_t session, const Op &op) = 0;
    /** Blocks for the answer to @p token. */
    virtual Answer wait(std::uint64_t token) = 0;
};

class PoolChannel : public Channel
{
  public:
    PoolChannel(serve::SessionPool &pool, const ops5::Program &program,
                Tracer *tr, std::vector<double> *submit_us = nullptr)
        : pool_(pool), program_(program), tr_(tr), submit_us_(submit_us)
    {}

    std::uint64_t
    send(std::size_t session, const Op &op) override
    {
        const std::uint64_t token = next_++;
        serve::Request r;
        if (op.kind == RequestKind::Assert) {
            const auto &t = program_.initialWmes()[op.tmpl];
            r = serve::Request::makeAssert(t.cls, t.fields);
        } else if (op.kind == RequestKind::Retract) {
            r = serve::Request::makeRetractTag(op.tag);
        } else {
            r = serve::Request::makeRun(op.cycles);
        }
        Tracer::Scope s(tr_, "SessionPool::submit", token);
        const Clock::time_point t0 = Clock::now();
        serve::Submit sub = pool_.submit(session, std::move(r));
        if (submit_us_)
            submit_us_->push_back(usBetween(t0, Clock::now()));
        pending_.emplace(token, std::move(sub));
        return token;
    }

    Answer
    wait(std::uint64_t token) override
    {
        Tracer::Scope s(tr_, "future.wait", token);
        auto it = pending_.find(token);
        serve::Submit sub = std::move(it->second);
        pending_.erase(it);
        Answer a;
        if (!sub.accepted())
            return a;
        serve::Response resp = sub.response.get();
        a.ok = !resp.deadline_expired;
        a.tag = resp.tag;
        a.retracted = resp.retracted;
        a.firings = resp.run.firings;
        a.server_us = static_cast<double>(resp.latency.count());
        return a;
    }

  private:
    serve::SessionPool &pool_;
    const ops5::Program &program_;
    Tracer *tr_;
    std::vector<double> *submit_us_;
    std::uint64_t next_ = 1;
    std::map<std::uint64_t, serve::Submit> pending_;
};

/** Pipelined protocol client: replies are matched by req_id. */
class ClientChannel : public Channel
{
  public:
    ClientChannel(std::uint16_t port, std::uint64_t first_gsid,
                  const ops5::Program &program, Tracer *tr)
        : client_("127.0.0.1", port), first_gsid_(first_gsid), tr_(tr)
    {
        for (const auto &t : program.initialWmes()) {
            serve::WireRequest w;
            w.kind = RequestKind::Assert;
            w.cls = program.symbols().name(t.cls);
            for (const ops5::Value &v : t.fields)
                w.fields.push_back(
                    serve::WireValue::of(v, program.symbols()));
            templates_.push_back(std::move(w));
        }
    }

    std::uint64_t
    send(std::size_t session, const Op &op) override
    {
        serve::WireRequest w;
        if (op.kind == RequestKind::Assert) {
            w = templates_[op.tmpl];
        } else if (op.kind == RequestKind::Retract) {
            w.kind = RequestKind::Retract;
            w.tag = op.tag;
        } else {
            w.kind = RequestKind::Run;
            w.max_cycles = op.cycles;
        }
        Tracer::Scope s(tr_, "Client::sendSubmit");
        return client_.sendSubmit(first_gsid_ + session, w);
    }

    Answer
    wait(std::uint64_t token) override
    {
        for (;;) {
            auto it = arrived_.find(token);
            if (it != arrived_.end()) {
                Answer a = it->second;
                arrived_.erase(it);
                return a;
            }
            Tracer::Scope s(tr_, "Client::readReply");
            cluster::Client::Reply r = client_.readReply();
            Answer a;
            if (!r.error && r.resp.accepted()) {
                a.ok = !r.resp.deadline_expired;
                a.tag = r.resp.tag;
                a.retracted = r.resp.retracted;
                a.firings = r.resp.run.firings;
                a.server_us = static_cast<double>(r.resp.latency_us);
            }
            arrived_.emplace(r.req_id, a);
        }
    }

  private:
    cluster::Client client_;
    std::uint64_t first_gsid_;
    Tracer *tr_;
    std::vector<serve::WireRequest> templates_;
    std::map<std::uint64_t, Answer> arrived_;
};

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/** What one generator thread saw in one phase. */
struct GenStats
{
    std::vector<std::pair<double, double>> open_lat; ///< (due s, µs)
    std::vector<double> late_us;
    std::vector<double> client_us, server_us; ///< closed loop
    std::uint64_t done = 0, wm = 0, firings = 0;
    std::uint64_t attempted = 0, failed = 0;
    std::string error;
};

/** One phase: an open loop for @ref seconds at @ref rate iterations
 *  per second per generator, or a closed-loop pass of
 *  @ref iterations rounds. */
struct Phase
{
    bool open = false;
    double seconds = 0;
    double rate = 0;
    std::size_t iterations = 0;
    Tracer *tr = nullptr;
};

/**
 * One generator: owns sessions g, g+G, ... In the open loop one
 * iteration is in flight, due on a fixed schedule; in the closed loop
 * an iteration on every owned session is in flight at once.
 */
void
generate(std::size_t g, std::size_t n_gens, Channel &ch, const Phase &phase,
         std::size_t n_templates, std::vector<SessionLog> &logs,
         GenStats &st)
{
    std::vector<std::size_t> owned;
    for (std::size_t s = g; s < logs.size(); s += n_gens)
        owned.push_back(s);

    auto sendOp = [&](std::size_t i, const Op &op) {
        logs[owned[i]].ops.push_back(op);
        ++st.attempted;
        return ch.send(owned[i], op);
    };
    // Waits for one answer and logs it; returns it with its kind.
    auto receive = [&](std::size_t i, std::uint64_t token) {
        SessionLog &log = logs[owned[i]];
        const RequestKind kind = log.ops[log.answers.size()].kind;
        Answer a = ch.wait(token);
        log.answers.push_back(a);
        if (!a.ok) {
            ++st.failed;
        } else {
            ++st.done;
            if (kind == RequestKind::Run)
                st.firings += a.firings;
            else
                ++st.wm;
        }
        return std::make_pair(kind, a);
    };
    // Stage one of an iteration: the asserts.
    auto sendFirst = [&](std::size_t i) {
        std::vector<std::uint64_t> tokens;
        for (std::size_t a = 0; a < kAssertsPerIteration; ++a) {
            Op op;
            op.tmpl = static_cast<std::uint32_t>(logs[owned[i]].rng() %
                                                 n_templates);
            tokens.push_back(sendOp(i, op));
        }
        return tokens;
    };
    // Stage two: retract the asserted elements, then the Run (see the
    // file comment for why the Run comes last).
    auto sendSecond = [&](std::size_t i,
                          const std::vector<ops5::TimeTag> &tags) {
        std::vector<std::uint64_t> tokens;
        for (ops5::TimeTag t : tags) {
            Op op;
            op.kind = RequestKind::Retract;
            op.tag = t;
            tokens.push_back(sendOp(i, op));
        }
        Op run;
        run.kind = RequestKind::Run;
        run.cycles = kRunCycles;
        tokens.push_back(sendOp(i, run));
        return tokens;
    };

    Tracer::Scope whole(phase.tr, "generator");
    if (phase.open) {
        const Clock::time_point t0 = Clock::now();
        const double period = 1.0 / phase.rate;
        for (std::uint64_t k = 0;; ++k) {
            const double due_s = static_cast<double>(k) * period;
            if (due_s >= phase.seconds)
                break;
            const Clock::time_point due =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due_s));
            {
                // Sleep to just short of the due time, then spin, so
                // the generator's own wake-up jitter stays out of the
                // measured latency.
                Tracer::Scope idle(phase.tr, "schedule.wait");
                std::this_thread::sleep_until(due - kSpinBeforeDue);
                while (Clock::now() < due) {
                }
            }
            st.late_us.push_back(usBetween(due, Clock::now()));
            const std::size_t i = k % owned.size();
            std::vector<ops5::TimeTag> tags;
            for (std::uint64_t tok : sendFirst(i)) {
                const Answer a = receive(i, tok).second;
                st.open_lat.emplace_back(due_s, usBetween(due, Clock::now()));
                if (a.ok)
                    tags.push_back(a.tag);
            }
            const Clock::time_point ready = Clock::now();
            for (std::uint64_t tok : sendSecond(i, tags)) {
                receive(i, tok);
                st.open_lat.emplace_back(due_s,
                                         usBetween(ready, Clock::now()));
            }
        }
        return;
    }

    std::vector<std::vector<std::uint64_t>> tokens(owned.size());
    std::vector<Clock::time_point> sent(owned.size());
    auto stamp = [&](std::size_t i, std::vector<std::uint64_t> t) {
        tokens[i] = std::move(t);
        sent[i] = Clock::now();
    };
    auto collect = [&](std::size_t i, std::vector<ops5::TimeTag> *tags) {
        for (std::uint64_t tok : tokens[i]) {
            const auto [kind, a] = receive(i, tok);
            st.client_us.push_back(usBetween(sent[i], Clock::now()));
            st.server_us.push_back(a.server_us);
            if (tags && a.ok && kind == RequestKind::Assert)
                tags->push_back(a.tag);
        }
    };
    // Each owned session advances on its own: when one stage of a
    // session has answered, its next stage goes out at once, so the
    // other sessions' requests keep the system busy meanwhile and the
    // pipeline never drains between rounds.
    for (std::size_t i = 0; i < owned.size(); ++i)
        stamp(i, sendFirst(i));
    for (std::size_t round = 0; round < phase.iterations; ++round) {
        for (std::size_t i = 0; i < owned.size(); ++i) {
            std::vector<ops5::TimeTag> tags;
            collect(i, &tags);
            stamp(i, sendSecond(i, tags));
        }
        for (std::size_t i = 0; i < owned.size(); ++i) {
            collect(i, nullptr);
            if (round + 1 < phase.iterations)
                stamp(i, sendFirst(i));
        }
    }
}

/** The generators' view of one phase. */
struct PhaseResult
{
    std::vector<GenStats> gens;
    double wall_s = 0;

    std::uint64_t
    sum(std::uint64_t GenStats::*field) const
    {
        std::uint64_t n = 0;
        for (const GenStats &g : gens)
            n += g.*field;
        return n;
    }
    double
    rate(std::uint64_t GenStats::*field) const
    {
        return static_cast<double>(sum(field)) / wall_s;
    }
    std::vector<double>
    gather(std::vector<double> GenStats::*field) const
    {
        std::vector<double> out;
        for (const GenStats &g : gens)
            out.insert(out.end(), (g.*field).begin(), (g.*field).end());
        return out;
    }
    /** The open-loop latency percentile of each time window,
     *  summarised by undisturbedLatency(). */
    double
    openPercentile(double pct, double seconds) const
    {
        std::vector<std::vector<double>> win(kLatencyWindows);
        for (const GenStats &g : gens)
            for (const auto &[due, us] : g.open_lat) {
                const int w = static_cast<int>(due / seconds *
                                               kLatencyWindows);
                win[static_cast<std::size_t>(
                        std::clamp(w, 0, kLatencyWindows - 1))]
                    .push_back(us);
            }
        std::vector<double> per;
        for (auto &w : win)
            if (!w.empty())
                per.push_back(percentile(w, pct));
        return undisturbedLatency(per);
    }
};

PhaseResult
runPhase(std::vector<std::unique_ptr<Channel>> &channels,
         const Phase &phase, std::size_t n_templates,
         std::vector<SessionLog> &logs)
{
    PhaseResult r;
    r.gens.resize(channels.size());
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t g = 0; g < channels.size(); ++g)
        threads.emplace_back([&, g] {
            try {
                generate(g, channels.size(), *channels[g], phase, n_templates, logs,
                         r.gens[g]);
            } catch (const std::exception &e) {
                r.gens[g].error = e.what();
                ++r.gens[g].failed;
            }
        });
    for (std::thread &t : threads)
        t.join();
    r.wall_s = secondsBetween(t0, Clock::now());
    return r;
}

/**
 * The output oracle: one bare serial-Rete Engine per session. check()
 * replays each session's logged requests in send order, compares
 * every answer, and clears the logs, so memory stays bounded however
 * long the run. With @p corrupt the oracle's input is wrong on
 * purpose: session 0's first assert is replayed twice, which shifts
 * every later tag.
 */
class Oracle
{
  public:
    Oracle(std::shared_ptr<const ops5::Program> program,
           std::size_t n_sessions, bool corrupt)
        : program_(std::move(program)), duplicate_(corrupt)
    {
        for (std::size_t s = 0; s < n_sessions; ++s)
            replicas_.push_back(std::make_unique<Replica>(program_));
    }

    void
    check(std::vector<SessionLog> &logs, RunOutcome &out)
    {
        for (std::size_t s = 0; s < logs.size(); ++s) {
            SessionLog &log = logs[s];
            if (log.ops.size() != log.answers.size())
                out.fail("session " + std::to_string(s) + ": " +
                         std::to_string(log.ops.size() -
                                        log.answers.size()) +
                         " requests unanswered");
            for (std::size_t i = 0; i < log.answers.size(); ++i)
                if (log.answers[i].ok)
                    replay(s, log.ops[i], log.answers[i]);
            log.ops.clear();
            log.answers.clear();
        }
    }

    /** Adds the wrong-answer tally to @p out. */
    void
    finish(RunOutcome &out) const
    {
        if (wrong_ == 0)
            return;
        out.failed += wrong_;
        out.fail(std::to_string(wrong_) +
                 " answers differ from the bare-Engine replay" + first_);
    }

    std::uint64_t
    digest(std::size_t s) const
    {
        return wmDigest(replicas_[s]->engine.workingMemory());
    }

  private:
    struct Replica
    {
        explicit Replica(std::shared_ptr<const ops5::Program> p)
            : matcher(p), engine(p, matcher)
        {
            engine.loadInitialWorkingMemory();
        }
        rete::ReteMatcher matcher;
        core::Engine engine;
        ops5::TimeTag last_tag = 0;
    };

    void
    replay(std::size_t s, const Op &op, const Answer &a)
    {
        core::Engine &engine = replicas_[s]->engine;
        std::uint64_t want = 0, got = 0;
        bool match = true;
        if (op.kind == RequestKind::Assert) {
            const auto &t = program_->initialWmes()[op.tmpl];
            if (duplicate_ && s == 0) {
                engine.assertWme(t.cls, t.fields);
                duplicate_ = false;
            }
            want = engine.assertWme(t.cls, t.fields)->timeTag();
            got = a.tag;
            // Tags of one session are distinct: they only ever grow.
            match = want == got && got > replicas_[s]->last_tag;
            replicas_[s]->last_tag = got;
        } else if (op.kind == RequestKind::Retract) {
            const ops5::Wme *w = engine.workingMemory().findByTag(op.tag);
            want = w != nullptr && engine.retractWme(w);
            got = a.retracted;
            match = want == got;
        } else {
            want = engine.run(op.cycles).firings;
            got = a.firings;
            match = want == got;
        }
        if (!match && wrong_++ == 0)
            first_ = " (first: session " + std::to_string(s) + " kind " +
                     std::to_string(static_cast<int>(op.kind)) +
                     ": replay " + std::to_string(want) + ", system " +
                     std::to_string(got) + ")";
    }

    std::shared_ptr<const ops5::Program> program_;
    bool duplicate_;
    std::vector<std::unique_ptr<Replica>> replicas_;
    std::uint64_t wrong_ = 0;
    std::string first_;
};

/** The serve/cluster mix: an open-loop phase, then closed-loop passes
 *  of fixed work until the run's time is used. */
struct MixedResult
{
    double latency_p50_us = 0, latency_p99_us = 0;
    std::size_t latency_samples = 0;
    double late_us_p99 = 0;
    /** Per closed pass. */
    std::vector<double> requests_per_s, wme_changes_per_s, firings_per_s;
    std::uint64_t attempted = 0, failed = 0;
};

/** The system a mixed run drives. renew() may replace it between
 *  closed passes. */
class Target
{
  public:
    virtual ~Target() = default;
    virtual std::vector<std::unique_ptr<Channel>> &channels() = 0;
    virtual Oracle &oracle() = 0;
    virtual void renew(RunOutcome &) {}
};

MixedResult
runMixed(Target &target, double seconds, double rate,
         std::size_t pass_iterations, std::uint64_t seed, Tracer *tr,
         RunOutcome &out)
{
    const std::size_t n_templates = serveProgram()->initialWmes().size();
    std::vector<SessionLog> logs(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s)
        logs[s].rng.seed(seed * 0x9e3779b97f4a7c15ULL + s);
    MixedResult m;
    auto run = [&](const Phase &phase) {
        PhaseResult r =
            runPhase(target.channels(), phase, n_templates, logs);
        m.attempted += r.sum(&GenStats::attempted);
        m.failed += r.sum(&GenStats::failed);
        for (const GenStats &g : r.gens)
            if (!g.error.empty())
                out.fail("generator: " + g.error);
        target.oracle().check(logs, out);
        return r;
    };

    // One unmeasured closed pass warms the system under test.
    Phase warm;
    warm.iterations = pass_iterations / 4;
    run(warm);

    Phase open;
    open.open = true;
    open.seconds = seconds * kOpenShare;
    open.rate = rate;
    open.tr = tr;
    const PhaseResult o = run(open);
    m.latency_p50_us = o.openPercentile(50, open.seconds);
    m.latency_p99_us = o.openPercentile(99, open.seconds);
    m.late_us_p99 = percentile(o.gather(&GenStats::late_us), 99);
    for (const GenStats &g : o.gens)
        m.latency_samples += g.open_lat.size();

    Phase closed;
    closed.iterations = pass_iterations;
    closed.tr = tr;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds -
                                                         open.seconds));
    do {
        target.renew(out);
        const PhaseResult r = run(closed);
        m.requests_per_s.push_back(r.rate(&GenStats::done));
        m.wme_changes_per_s.push_back(r.rate(&GenStats::wm));
        m.firings_per_s.push_back(r.rate(&GenStats::firings));
    } while (Clock::now() < end);
    return m;
}

/** Fills the end-to-end metrics shared by serve and cluster. */
void
addMixedMetrics(RunOutcome &out, const MixedResult &m, double setup_s)
{
    out.attempted += m.attempted;
    out.failed += m.failed;
    out.primary_rate = undisturbedRate(m.requests_per_s);
    out.gen_late_us_p99 = m.late_us_p99;
    out.metrics.add("setup_s", setup_s, "s");
    out.metrics.add("wme_changes_per_s", undisturbedRate(m.wme_changes_per_s),
                    "1/s");
    out.metrics.add("requests_per_s", out.primary_rate, "1/s");
    out.metrics.add("firings_per_s", undisturbedRate(m.firings_per_s),
                    "1/s");
    out.metrics.add("latency_p50_us", m.latency_p50_us, "us");
    out.metrics.add("latency_p99_us", m.latency_p99_us, "us");
    out.metrics.add("latency_samples",
                    static_cast<double>(m.latency_samples), "count");
    std::printf("closed-loop passes (req/s):");
    for (double r : m.requests_per_s)
        std::printf(" %.0f", r);
    std::printf("\n");
}

serve::PoolOptions
poolOptions(const std::string &dir)
{
    serve::PoolOptions o;
    o.n_sessions = kSessions;
    if (!dir.empty()) {
        o.durability.dir = dir;
        o.durability.fsync = durable::FsyncPolicy::None;
        o.durability.checkpoint.every_batches = 16384;
    }
    return o;
}

std::string
stateDir(const Args &args, const std::string &what)
{
    return args.work_dir + "/" + what + "-" + std::to_string(::getpid());
}

std::vector<std::unique_ptr<Channel>>
poolChannels(serve::SessionPool &pool, Tracer *tr,
             std::vector<double> *submit_us = nullptr)
{
    std::vector<std::unique_ptr<Channel>> out;
    for (std::size_t g = 0; g < kGenerators; ++g)
        out.push_back(std::make_unique<PoolChannel>(
            pool, *serveProgram(), tr, g == 0 ? submit_us : nullptr));
    return out;
}

} // namespace

std::shared_ptr<const ops5::Program>
serveProgram()
{
    // tinyPreset's program with a balanced right-hand side: as many
    // makes as removes, so working memory neither grows nor shrinks on
    // average and every figure is independent of run length.
    static const std::shared_ptr<const ops5::Program> program = [] {
        workloads::GeneratorConfig cfg = workloads::tinyPreset().config;
        cfg.make_prob = 0.3;
        cfg.modify_prob = 0.4;
        return workloads::generateProgram(cfg);
    }();
    return program;
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

namespace {

/**
 * serve-mixed's system under test. Every closed pass gets a fresh pool
 * over a fresh state directory: the pool's server thread is placed
 * anew each pass, so one run's median spans several placements, and
 * each construction is a set-up sample. A pool is checked before it
 * is replaced: its WM digests must equal its oracle's.
 */
class ServeTarget : public Target
{
  public:
    ServeTarget(const std::string &dir, Tracer *tr, bool corrupt)
        : program_(serveProgram()), dir_(dir), tr_(tr), corrupt_(corrupt)
    {
        start();
    }
    ~ServeTarget() override { fs::remove_all(dir_); }
    ServeTarget(const ServeTarget &) = delete;
    ServeTarget &operator=(const ServeTarget &) = delete;

    std::vector<std::unique_ptr<Channel>> &
    channels() override
    {
        return channels_;
    }
    Oracle &oracle() override { return *oracle_; }

    void
    renew(RunOutcome &out) override
    {
        verify(out, false);
        start();
    }

    /** Drains and checkpoints the pool and checks its WM digests;
     *  with @p restore, also a pool restored from its state dir. */
    void
    verify(RunOutcome &out, bool restore)
    {
        pool_->drain();
        {
            Tracer::Scope s(tr_, "checkpointAll");
            pool_->checkpointAll();
        }
        oracle_->finish(out);
        const serve::SessionPool::Stats st = pool_->stats();
        completed += st.completed;
        batches += st.batches;
        std::vector<std::uint64_t> live;
        for (std::size_t s = 0; s < kSessions; ++s) {
            live.push_back(wmDigest(pool_->engine(s).workingMemory()));
            if (live[s] != oracle_->digest(s))
                out.fail("session " + std::to_string(s) +
                         ": WM digest differs from the bare-Engine replay");
        }
        channels_.clear();
        pool_.reset();
        if (!restore)
            return;
        serve::PoolOptions ro = poolOptions(dir_);
        ro.restore = true;
        ro.autostart = false;
        serve::SessionPool restored(program_, ro);
        for (std::size_t s = 0; s < kSessions; ++s)
            if (wmDigest(restored.engine(s).workingMemory()) != live[s])
                out.fail("session " + std::to_string(s) +
                         ": restored WM digest differs");
    }

    std::vector<double> setup_s;
    std::uint64_t completed = 0, batches = 0;

  private:
    void
    start()
    {
        fs::remove_all(dir_);
        const Clock::time_point t0 = Clock::now();
        pool_ = std::make_unique<serve::SessionPool>(program_,
                                                     poolOptions(dir_));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
        channels_ = poolChannels(*pool_, tr_);
        oracle_ = std::make_unique<Oracle>(program_, kSessions, corrupt_);
    }

    std::shared_ptr<const ops5::Program> program_;
    std::string dir_;
    Tracer *tr_;
    bool corrupt_;
    std::unique_ptr<serve::SessionPool> pool_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::unique_ptr<Oracle> oracle_;
};

} // namespace

RunOutcome
runServeMixed(const Args &args, double seconds, Tracer *tr)
{
    RunOutcome out;
    ServeTarget target(stateDir(args, "serve"), tr, args.corrupt_oracle);
    const MixedResult m =
        runMixed(target, seconds, kServeRatePerGen, kServePassIterations,
                 args.seed, tr, out);
    target.verify(out, true);
    addMixedMetrics(out, m, median(target.setup_s));
    std::printf("serve-mixed: %llu requests, %llu batches, %zu closed "
                "passes\n",
                static_cast<unsigned long long>(target.completed),
                static_cast<unsigned long long>(target.batches),
                m.requests_per_s.size());
    return out;
}

// ---------------------------------------------------------------------------
// cluster-mixed
// ---------------------------------------------------------------------------

WorkerFleet::WorkerFleet(std::shared_ptr<const ops5::Program> program,
                         std::size_t n_workers)
{
    for (std::size_t i = 0; i < n_workers; ++i) {
        int pfd[2];
        if (::pipe(pfd) != 0)
            throw std::runtime_error("pipe failed");
        const pid_t pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
#ifdef __linux__
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
            ::close(pfd[0]);
            try {
                cluster::WorkerOptions o;
                o.slot = static_cast<std::uint32_t>(i);
                cluster::Worker w(program, o);
                const std::uint16_t port = w.port();
                w.start();
                (void)!::write(pfd[1], &port, sizeof port);
                ::close(pfd[1]);
                for (;;)
                    ::pause();
            } catch (...) {
            }
            ::_exit(11);
        }
        ::close(pfd[1]);
        pids_.push_back(pid);
        std::uint16_t port = 0;
        const ssize_t n = ::read(pfd[0], &port, sizeof port);
        ::close(pfd[0]);
        if (n != static_cast<ssize_t>(sizeof port))
            throw std::runtime_error("cluster worker failed to start");
        ports_.push_back(port);
    }
}

WorkerFleet::~WorkerFleet()
{
    for (pid_t p : pids_)
        ::kill(p, SIGKILL);
    for (pid_t p : pids_)
        ::waitpid(p, nullptr, 0);
}

double
WorkerFleet::peakRssMb() const
{
    double mb = 0;
    for (pid_t p : pids_)
        mb += procPeakRssMb(p);
    return mb;
}

namespace {

cluster::RouterOptions
routerOptions(const WorkerFleet &fleet)
{
    cluster::RouterOptions ro;
    for (std::uint16_t p : fleet.ports())
        ro.workers.push_back({"127.0.0.1", p});
    return ro;
}

} // namespace

RunOutcome
runClusterMixed(const Args &args, double seconds, Tracer *tr,
                const WorkerFleet &fleet, std::uint64_t first_gsid,
                double fleet_setup_s)
{
    RunOutcome out;
    auto program = serveProgram();

    // Set-up after the fork: router start plus one connection per
    // generator, three times; the last router is the one measured.
    std::vector<double> setup_s;
    std::unique_ptr<cluster::Router> router;
    std::vector<std::unique_ptr<Channel>> channels;
    for (int rep = 0; rep < 3; ++rep) {
        channels.clear();
        router.reset();
        const Clock::time_point t0 = Clock::now();
        router = std::make_unique<cluster::Router>(routerOptions(fleet));
        router->start();
        for (std::size_t g = 0; g < kClusterGenerators; ++g)
            channels.push_back(std::make_unique<ClientChannel>(
                router->port(), first_gsid, *program, tr));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    struct ClusterTarget : Target
    {
        ClusterTarget(std::vector<std::unique_ptr<Channel>> c, bool corrupt)
            : chans(std::move(c)), orc(serveProgram(), kSessions, corrupt)
        {}
        std::vector<std::unique_ptr<Channel>> &
        channels() override
        {
            return chans;
        }
        Oracle &oracle() override { return orc; }
        std::vector<std::unique_ptr<Channel>> chans;
        Oracle orc;
    } target(std::move(channels), args.corrupt_oracle);
    const MixedResult m =
        runMixed(target, seconds, kClusterRatePerGen,
                 kClusterPassIterations, args.seed, tr, out);
    target.chans.clear();
    const cluster::RouterStats rs = router->stats();
    router->stop();
    target.orc.finish(out);
    out.failed += rs.errors;
    addMixedMetrics(out, m, fleet_setup_s + median(setup_s));
    std::printf("cluster-mixed: %llu forwarded, %llu routed errors, "
                "%zu closed passes, %zu workers\n",
                static_cast<unsigned long long>(rs.forwarded),
                static_cast<unsigned long long>(rs.errors),
                m.requests_per_s.size(), fleet.ports().size());
    return out;
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

void
probeServe(const Args &args, Report &out, RunOutcome &checks,
           double &gen_late_us_p99)
{
    auto program = serveProgram();
    const std::size_t n_tmpl = program->initialWmes().size();
    const std::string dir = stateDir(args, "probe");
    Phase pass;
    pass.iterations = kServePassIterations;
    auto seeded = [&] {
        std::vector<SessionLog> logs(kSessions);
        for (std::size_t s = 0; s < kSessions; ++s)
            logs[s].rng.seed(args.seed * 0x9e3779b97f4a7c15ULL + s);
        return logs;
    };

    // Durability on: submit time, server time, batching.
    fs::remove_all(dir);
    double rps_on = 0;
    {
        serve::SessionPool pool(program, poolOptions(dir));
        std::vector<double> submit_us;
        auto channels = poolChannels(pool, nullptr, &submit_us);
        std::vector<SessionLog> logs = seeded();
        const PhaseResult r = runPhase(channels, pass, n_tmpl, logs);
        pool.drain();
        rps_on = r.rate(&GenStats::done);
        const std::vector<double> client = r.gather(&GenStats::client_us);
        const std::vector<double> server = r.gather(&GenStats::server_us);
        std::vector<double> handoff;
        for (std::size_t i = 0; i < client.size(); ++i)
            handoff.push_back(client[i] - server[i]);
        const serve::SessionPool::Stats st = pool.stats();
        out.add("serve.submit_us_p50", percentile(submit_us, 50), "us");
        out.add("serve.submit_us_p99", percentile(submit_us, 99), "us");
        out.add("serve.server_us_p50", percentile(server, 50), "us");
        out.add("serve.handoff_us_p50", percentile(handoff, 50), "us");
        out.add("serve.requests_per_batch",
                static_cast<double>(st.completed) /
                    static_cast<double>(std::max<std::uint64_t>(st.batches, 1)),
                "count");
        Oracle oracle(program, kSessions, false);
        oracle.check(logs, checks);
        oracle.finish(checks);

        const Clock::time_point t0 = Clock::now();
        pool.checkpointAll();
        out.add("durable.checkpoint_ms",
                secondsBetween(t0, Clock::now()) * 1e3 / kSessions, "ms");
    }
    double snap_bytes = 0;
    for (std::size_t s = 0; s < kSessions; ++s) {
        auto snaps = durable::Manager::snapshots(
            serve::SessionPool::sessionDir(dir, s));
        if (!snaps.empty())
            snap_bytes +=
                static_cast<double>(fs::file_size(snaps.front().second));
    }
    out.add("durable.snapshot_kb", snap_bytes / kSessions / 1024.0, "KiB");
    {
        serve::PoolOptions ro = poolOptions(dir);
        ro.restore = true;
        ro.autostart = false;
        serve::SessionPool restored(program, ro);
        double ms = 0;
        for (std::size_t s = 0; s < kSessions; ++s)
            ms += restored.recoveryStats(s).recovery_ms;
        out.add("durable.recover_ms", ms / kSessions, "ms");
    }
    fs::remove_all(dir);

    // Durability off, same seed and work: the WAL's per-request cost.
    serve::SessionPool pool(program, poolOptions(""));
    auto channels = poolChannels(pool, nullptr);
    std::vector<SessionLog> logs = seeded();
    const double rps_off =
        runPhase(channels, pass, n_tmpl, logs).rate(&GenStats::done);
    out.add("durable.wal_us_per_request",
            (1.0 / rps_on - 1.0 / rps_off) * 1e6, "us");
    if (gen_late_us_p99 < 0) {
        Phase open;
        open.open = true;
        open.seconds = 1.0;
        open.rate = kServeRatePerGen;
        gen_late_us_p99 = percentile(
            runPhase(channels, open, n_tmpl, logs).gather(&GenStats::late_us),
            99);
    }
    pool.drain();
}

void
probeLadder(const WorkerFleet &fleet, Report &out, RunOutcome &checks)
{
    auto program = serveProgram();
    const auto &tmpl = program->initialWmes().front();
    constexpr int kPairs = 1000;

    // Each rung: the same assert then a retract of it, one in flight.
    auto rung = [&](const char *name, auto &&assert_op, auto &&retract_op) {
        std::vector<double> us;
        for (int i = 0; i < kPairs; ++i) {
            Clock::time_point t0 = Clock::now();
            const ops5::TimeTag tag = assert_op();
            us.push_back(usBetween(t0, Clock::now()));
            t0 = Clock::now();
            if (!retract_op(tag))
                checks.fail(std::string("ladder ") + name +
                            ": retract of a live element failed");
            us.push_back(usBetween(t0, Clock::now()));
        }
        const double p50 = percentile(us, 50);
        out.add(std::string("ladder.") + name + "_us_p50", p50, "us");
        out.add(std::string("ladder.") + name + "_us_p99",
                percentile(us, 99), "us");
        return p50;
    };

    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);
    engine.loadInitialWorkingMemory();
    const double engine_p50 = rung(
        "engine",
        [&] {
            core::Engine::ExternalBatch b(engine);
            const ops5::Wme *w = b.insert(tmpl.cls, tmpl.fields);
            b.commit();
            return w->timeTag();
        },
        [&](ops5::TimeTag tag) {
            core::Engine::ExternalBatch b(engine);
            const bool ok = b.remove(engine.workingMemory().findByTag(tag));
            b.commit();
            return ok;
        });

    serve::PoolOptions po;
    serve::SessionPool pool(program, po);
    const double pool_p50 = rung(
        "pool",
        [&] {
            return pool.submit(0, serve::Request::makeAssert(tmpl.cls,
                                                             tmpl.fields))
                .response.get()
                .tag;
        },
        [&](ops5::TimeTag tag) {
            return pool.submit(0, serve::Request::makeRetractTag(tag))
                .response.get()
                .retracted;
        });
    pool.shutdown();

    auto wire = [&](cluster::Client &c, std::uint64_t gsid) {
        serve::WireRequest a;
        a.cls = program->symbols().name(tmpl.cls);
        for (const ops5::Value &v : tmpl.fields)
            a.fields.push_back(serve::WireValue::of(v, program->symbols()));
        return std::make_pair(
            [&c, a, gsid] { return c.submit(gsid, a).resp.tag; },
            [&c, gsid](ops5::TimeTag tag) {
                serve::WireRequest r;
                r.kind = RequestKind::Retract;
                r.tag = tag;
                return c.submit(gsid, r).resp.retracted;
            });
    };
    cluster::Client direct("127.0.0.1", fleet.ports().front());
    auto [wa, wr] = wire(direct, 900001);
    const double worker_p50 = rung("worker", wa, wr);

    cluster::Router router(routerOptions(fleet));
    router.start();
    cluster::Client routed("127.0.0.1", router.port());
    auto [ra, rr] = wire(routed, 900002);
    const double router_p50 = rung("router", ra, rr);
    router.stop();

    out.add("cluster.transport_us_p50", worker_p50 - pool_p50, "us");
    out.add("cluster.router_hop_us_p50", router_p50 - worker_p50, "us");
    double threads = 0, rss = 0;
    for (pid_t p : fleet.pids()) {
        threads += procThreads(p);
        rss += procPeakRssMb(p);
    }
    const double n = static_cast<double>(fleet.pids().size());
    out.add("cluster.worker_threads", threads / n, "count");
    out.add("cluster.worker_rss_mb", rss / n, "MiB");
    std::printf("ladder p50 (us): engine %.1f <= pool %.1f <= worker %.1f "
                "<= router %.1f: %s\n",
                engine_p50, pool_p50, worker_p50, router_p50,
                engine_p50 <= pool_p50 && pool_p50 <= worker_p50 &&
                        worker_p50 <= router_p50
                    ? "ordered"
                    : "NOT ordered");
}

} // namespace perfbench
