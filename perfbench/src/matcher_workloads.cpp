/**
 * @file
 * match-batch and fire-cycle: the fine-grain parallel Rete matcher
 * used two opposite ways, plus the matcher and engine probes.
 */

#include <cstdio>
#include <functional>
#include <random>
#include <string>

#include "core/engine.hpp"
#include "core/parallel_matcher.hpp"
#include "rete/matcher.hpp"
#include "workloads.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

namespace perfbench {

namespace {

/** 64 changes per batch: serve's default max_batch. */
constexpr int kBatchSize = 64;
/** match-batch replays this many batches per pass (WM ~18k). */
constexpr int kMatchBatches = 300;
/** Seeded streams per match-batch run, replayed in turn so a run's
 *  medians do not hang on one random draw. */
constexpr std::uint64_t kInputsPerRun = 8;
/** fire-cycle runs this many firings per pass. */
constexpr std::uint64_t kFiringsPerPass = 4000;

/** The matcher under test in both matcher workloads: LockFree with
 *  one worker per extra hardware thread (pinned; see NOTES.md). */
core::ParallelOptions
parallelOptions(std::size_t workers)
{
    core::ParallelOptions o;
    o.n_workers = workers;
    o.scheduler = core::SchedulerKind::LockFree;
    return o;
}

std::size_t
parallelWorkers()
{
    return hostThreads() - 1;
}

/** A pre-generated change stream over the growth preset. */
struct GrowthInput
{
    std::shared_ptr<const ops5::Program> program;
    ops5::WorkingMemory wm; // owns every streamed element
    std::vector<std::vector<ops5::WmeChange>> batches;
    std::uint64_t changes = 0;

    /** @p sizes cycles over the batch sizes to generate. */
    GrowthInput(std::uint64_t seed, int n_batches, std::vector<int> sizes)
    {
        workloads::SystemPreset preset = workloads::growthPreset();
        program = workloads::generateProgram(preset.config);
        workloads::ChangeStream stream(*program, wm, preset.config,
                                       seed * 1000003ULL + 17);
        for (int b = 0; b < n_batches; ++b) {
            batches.push_back(stream.nextBatch(
                sizes[static_cast<std::size_t>(b) % sizes.size()], 0.04));
            changes += batches.back().size();
        }
    }
};

std::unique_ptr<core::Matcher>
serialRete(const std::shared_ptr<const ops5::Program> &program,
           bool shared)
{
    return std::make_unique<rete::ReteMatcher>(std::make_shared<rete::Network>(
        program, shared ? rete::NetworkOptions::fullSharing()
                        : rete::NetworkOptions::privateState()));
}

/** Replays @p batches; returns the wall seconds. */
double
replay(core::Matcher &m,
       const std::vector<std::vector<ops5::WmeChange>> &batches)
{
    const Clock::time_point t0 = Clock::now();
    for (const auto &b : batches)
        m.processChanges(b);
    return secondsBetween(t0, Clock::now());
}

/**
 * Forwards to another matcher and times every processChanges call —
 * how the benchmark sees the match phase inside Engine::step without
 * touching the engine.
 */
class TimedMatcher : public core::Matcher
{
  public:
    TimedMatcher(core::Matcher &inner, Tracer *tr) : inner_(inner), tr_(tr)
    {}

    void
    processChanges(std::span<const ops5::WmeChange> changes) override
    {
        Tracer::Scope s(tr_, "processChanges");
        const Clock::time_point t0 = Clock::now();
        inner_.processChanges(changes);
        if (record)
            batch_us.push_back(usBetween(t0, Clock::now()));
    }
    ops5::ConflictSet &conflictSet() override { return inner_.conflictSet(); }
    const ops5::ConflictSet &
    conflictSet() const override
    {
        return inner_.conflictSet();
    }
    core::MatchStats stats() const override { return inner_.stats(); }
    std::string name() const override { return inner_.name(); }

    bool record = false;
    std::vector<double> batch_us;

  private:
    core::Matcher &inner_;
    Tracer *tr_;
};

std::shared_ptr<const ops5::Program>
daaProgram()
{
    return workloads::generateProgram(
        workloads::presetByName("daa").config);
}

/** One fire-cycle session: an engine over @p matcher with the daa
 *  program's initial working memory loaded. With @p corrupt one extra
 *  element is asserted (the oracle's deliberately wrong input). */
std::unique_ptr<core::Engine>
startEngine(const std::shared_ptr<const ops5::Program> &program,
            core::Matcher &matcher, bool corrupt = false)
{
    auto engine = std::make_unique<core::Engine>(program, matcher);
    engine->loadInitialWorkingMemory();
    if (corrupt) {
        const auto &first = program->initialWmes().front();
        engine->assertWme(first.cls, first.fields);
    }
    return engine;
}

/** Runs up to @p firings cycles; returns the firing digest. */
std::uint64_t
fireDigest(core::Engine &engine, std::uint64_t firings,
           std::uint64_t *fired = nullptr)
{
    Digest d;
    engine.setFiringObserver(
        [&d](const ops5::Instantiation &inst, const ops5::FiringResult &) {
            addFiring(d, inst);
        });
    std::uint64_t n = 0;
    while (n < firings && engine.step())
        ++n;
    engine.setFiringObserver({});
    if (fired)
        *fired = n;
    return d.value();
}

} // namespace

// ---------------------------------------------------------------------------
// match-batch
// ---------------------------------------------------------------------------

RunOutcome
runMatchBatch(const Args &args, double seconds, Tracer *tr)
{
    RunOutcome out;
    // Several seeded streams, replayed in turn, so one run's medians
    // rest on more than one random stream.
    std::vector<std::unique_ptr<GrowthInput>> inputs;
    for (std::uint64_t k = 0; k < kInputsPerRun; ++k)
        inputs.push_back(std::make_unique<GrowthInput>(
            args.seed * kInputsPerRun + k, kMatchBatches,
            std::vector<int>{kBatchSize}));
    const std::size_t workers = parallelWorkers();

    // p50 is taken per pass. p99 is taken per round (one pass over
    // every stream): a pass has too few batches for a p99, and the
    // slowest batches depend on the stream.
    std::vector<double> setup_s, change_rate, batch_rate, p50, p99, round_us;
    std::size_t samples = 0;
    std::vector<std::uint64_t> digests;
    {
        // Warm the allocator and caches with one unmeasured pass.
        core::ParallelReteMatcher warm(inputs[0]->program,
                                       parallelOptions(workers));
        replay(warm, inputs[0]->batches);
    }
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
        // The pass span also covers matcher set-up, the digest and
        // teardown, so the spans account for the whole wall time.
        Tracer::Scope pass(tr, "pass");
        const GrowthInput &in = *inputs[digests.size() % inputs.size()];
        const Clock::time_point t0 = Clock::now();
        auto m = std::make_unique<core::ParallelReteMatcher>(
            in.program, parallelOptions(workers));
        const Clock::time_point t1 = Clock::now();
        std::vector<double> us;
        for (const auto &b : in.batches) {
            Tracer::Scope s(tr, "processChanges");
            const Clock::time_point tb = Clock::now();
            m->processChanges(b);
            us.push_back(usBetween(tb, Clock::now()));
        }
        const double pass_s = secondsBetween(t1, Clock::now());
        p50.push_back(percentile(us, 50));
        round_us.insert(round_us.end(), us.begin(), us.end());
        samples += us.size();
        setup_s.push_back(secondsBetween(t0, t1));
        change_rate.push_back(static_cast<double>(in.changes) / pass_s);
        batch_rate.push_back(static_cast<double>(in.batches.size()) /
                             pass_s);
        digests.push_back(conflictDigest(m->conflictSet()));
        if (digests.size() % inputs.size() == 0) {
            p99.push_back(percentile(round_us, 99));
            round_us.clear();
        }
    } while (Clock::now() < end || p99.empty());

    // Oracle: serial shared Rete on the same streams.
    std::vector<std::uint64_t> want;
    std::size_t cs_size = 0;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        // A corrupted oracle replays the wrong stream for stream 0.
        const GrowthInput &in =
            *inputs[args.corrupt_oracle && k == 0 ? 1 : k];
        auto oracle = serialRete(in.program, true);
        replay(*oracle, in.batches);
        want.push_back(conflictDigest(oracle->conflictSet()));
        cs_size += oracle->conflictSet().size();
    }

    out.attempted = samples;
    for (std::size_t p = 0; p < digests.size(); ++p)
        if (digests[p] != want[p % want.size()]) {
            out.failed += kMatchBatches;
            out.fail("match-batch pass " + std::to_string(p) +
                     ": parallel conflict set differs from serial Rete");
        }

    std::printf("passes (changes/s):");
    for (double r : change_rate)
        std::printf(" %.0f", r);
    std::printf("\n");
    std::printf("match-batch: %zu passes over %zu streams of %d batches, "
                "%zu workers, mean final conflict set %zu\n",
                digests.size(), inputs.size(), kMatchBatches, workers,
                cs_size / inputs.size());
    out.primary_rate = undisturbedRate(change_rate);
    out.metrics.add("setup_s", median(setup_s), "s");
    out.metrics.add("wme_changes_per_s", out.primary_rate, "1/s");
    out.metrics.add("requests_per_s", undisturbedRate(batch_rate), "1/s");
    out.metrics.add("latency_p50_us", undisturbedLatency(p50), "us");
    out.metrics.add("latency_p99_us", undisturbedLatency(p99), "us");
    out.metrics.add("latency_samples", static_cast<double>(samples),
                    "count");
    return out;
}

// ---------------------------------------------------------------------------
// fire-cycle
// ---------------------------------------------------------------------------

RunOutcome
runFireCycle(const Args &args, double seconds, Tracer *tr)
{
    RunOutcome out;
    const auto program = daaProgram();
    const std::size_t workers = parallelWorkers();

    std::vector<double> setup_s, firing_rate, change_rate, p50, p99;
    std::size_t samples = 0;
    std::vector<std::uint64_t> digests, fired;
    Clock::time_point end{};
    // Pass 0 warms the allocator and caches and is not measured.
    for (std::size_t pass = 0; pass <= 1 || Clock::now() < end; ++pass) {
        Tracer *ptr = pass == 0 ? nullptr : tr;
        Tracer::Scope span(ptr, "pass"); // outlives the engine's teardown
        const Clock::time_point t0 = Clock::now();
        core::ParallelReteMatcher pm(program, parallelOptions(workers));
        TimedMatcher m(pm, ptr);
        auto engine = startEngine(program, m);
        const Clock::time_point t1 = Clock::now();

        Digest d;
        engine->setFiringObserver([&d](const ops5::Instantiation &inst,
                                       const ops5::FiringResult &) {
            addFiring(d, inst);
        });
        const std::uint64_t changes0 = engine->totals().wme_changes;
        std::vector<double> us;
        std::uint64_t n = 0;
        for (; n < kFiringsPerPass; ++n) {
            Tracer::Scope s(ptr, "Engine::step");
            const Clock::time_point ts = Clock::now();
            const bool more = engine->step();
            us.push_back(usBetween(ts, Clock::now()));
            if (!more)
                break;
        }
        const double pass_s = secondsBetween(t1, Clock::now());
        digests.push_back(d.value());
        fired.push_back(n);
        if (pass == 0) {
            end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
            continue;
        }
        p50.push_back(percentile(us, 50));
        p99.push_back(percentile(us, 99));
        samples += us.size();
        setup_s.push_back(secondsBetween(t0, t1));
        firing_rate.push_back(static_cast<double>(n) / pass_s);
        change_rate.push_back(
            static_cast<double>(engine->totals().wme_changes - changes0) /
            pass_s);
    }

    // Oracle: serial Rete on the same program and initial WM.
    auto oracle = serialRete(program, true);
    auto oracle_engine = startEngine(program, *oracle, args.corrupt_oracle);
    std::uint64_t want_n = 0;
    const std::uint64_t want =
        fireDigest(*oracle_engine, kFiringsPerPass, &want_n);
    if (want_n < kFiringsPerPass)
        out.fail("fire-cycle: program stopped after " +
                 std::to_string(want_n) + " firings");

    out.attempted = samples;
    for (std::size_t p = 0; p < digests.size(); ++p)
        if (digests[p] != want || fired[p] != want_n) {
            out.failed += fired[p];
            out.fail("fire-cycle pass " + std::to_string(p) +
                     ": firing sequence differs from serial Rete");
        }

    std::printf("fire-cycle: %zu passes of %llu firings, %zu workers, "
                "final conflict set %zu\n",
                digests.size(),
                static_cast<unsigned long long>(kFiringsPerPass), workers,
                oracle->conflictSet().size());
    out.primary_rate = undisturbedRate(firing_rate);
    out.metrics.add("setup_s", median(setup_s), "s");
    out.metrics.add("wme_changes_per_s", undisturbedRate(change_rate),
                    "1/s");
    out.metrics.add("requests_per_s", out.primary_rate, "1/s");
    out.metrics.add("firings_per_s", out.primary_rate, "1/s");
    out.metrics.add("latency_p50_us", undisturbedLatency(p50), "us");
    out.metrics.add("latency_p99_us", undisturbedLatency(p99), "us");
    out.metrics.add("latency_samples", static_cast<double>(samples),
                    "count");
    return out;
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

void
probeMatcher(const Args &args, Report &out, RunOutcome &checks)
{
    // Reference runs on one 64-change growth stream: median of three
    // replays per configuration, each on a fresh matcher.
    GrowthInput in(args.seed, 160, {kBatchSize});
    const std::size_t workers = parallelWorkers();
    struct Config
    {
        const char *name;
        std::function<std::unique_ptr<core::Matcher>()> make;
    };
    const std::vector<Config> configs = {
        {"serial-shared", [&] { return serialRete(in.program, true); }},
        {"serial-private", [&] { return serialRete(in.program, false); }},
        {"parallel/0",
         [&] {
             return std::make_unique<core::ParallelReteMatcher>(
                 in.program, parallelOptions(0));
         }},
        {"parallel/n",
         [&] {
             return std::make_unique<core::ParallelReteMatcher>(
                 in.program, parallelOptions(workers));
         }},
    };
    std::vector<double> rate;
    std::uint64_t first_digest = 0;
    core::MatchStats par_stats;
    std::size_t cs_size = 0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<double> secs;
        for (int rep = 0; rep < 3; ++rep) {
            auto m = configs[c].make();
            secs.push_back(replay(*m, in.batches));
            const std::uint64_t dg = conflictDigest(m->conflictSet());
            if (c == 0 && rep == 0)
                first_digest = dg;
            else if (dg != first_digest)
                checks.fail(std::string("matcher probe: ") +
                            configs[c].name +
                            " conflict set differs from serial Rete");
            if (c == 3) {
                par_stats = m->stats();
                cs_size = m->conflictSet().size();
            }
        }
        rate.push_back(static_cast<double>(in.changes) / median(secs));
    }
    const double n = static_cast<double>(in.changes);
    out.add("rete.serial_wme_changes_per_s", rate[0], "1/s");
    out.add("rete.activations_per_change",
            static_cast<double>(par_stats.activations) / n, "count");
    out.add("rete.comparisons_per_change",
            static_cast<double>(par_stats.comparisons) / n, "count");
    out.add("rete.tokens_per_change",
            static_cast<double>(par_stats.tokens_built) / n, "count");
    out.add("rete.sharing_loss", rate[0] / rate[1], "ratio");
    out.add("ops5.conflict_set_size", static_cast<double>(cs_size),
            "count");
    out.add("pmatch.bookkeeping_loss", rate[1] / rate[2], "ratio");
    out.add("pmatch.parallel_gain", rate[3] / rate[2], "ratio");
    out.add("pmatch.true_speedup", rate[3] / rate[0], "ratio");

    // processChanges wall time by batch size on the matcher under
    // test: sizes cycle through the three buckets over a growing WM.
    GrowthInput mixed(args.seed + 1, 1200, {3, 12, 48});
    core::ParallelReteMatcher pm(mixed.program, parallelOptions(workers));
    std::vector<double> small, medium, large;
    for (const auto &b : mixed.batches) {
        const Clock::time_point t0 = Clock::now();
        pm.processChanges(b);
        const double us = usBetween(t0, Clock::now());
        (b.size() <= 4 ? small : b.size() <= 16 ? medium : large)
            .push_back(us);
    }
    out.add("pmatch.batch_us_p50.small", median(small), "us");
    out.add("pmatch.batch_us_p50.medium", median(medium), "us");
    out.add("pmatch.batch_us_p50.large", median(large), "us");
}

void
probeEngine(Report &out, RunOutcome &checks)
{
    const auto program = daaProgram();
    core::ParallelReteMatcher pm(program, parallelOptions(parallelWorkers()));
    TimedMatcher m(pm, nullptr);
    auto engine = startEngine(program, m);
    const core::RunResult before = engine->totals();
    const core::Engine::PhaseTimes phases0 = engine->phaseTimes();
    m.record = true;
    std::uint64_t fired = 0;
    fireDigest(*engine, 3000, &fired);
    if (fired == 0) {
        checks.fail("engine probe: nothing fired");
        return;
    }
    const core::Engine::PhaseTimes &p = engine->phaseTimes();
    const double match = p.match_seconds - phases0.match_seconds;
    const double resolve = p.resolve_seconds - phases0.resolve_seconds;
    const double act = p.act_seconds - phases0.act_seconds;
    const double cycles = static_cast<double>(fired);
    out.add("engine.match_frac", match / (match + resolve + act), "fraction");
    out.add("engine.resolve_us_per_cycle", resolve / cycles * 1e6, "us");
    out.add("engine.act_us_per_cycle", act / cycles * 1e6, "us");
    out.add("engine.changes_per_firing",
            static_cast<double>(engine->totals().wme_changes -
                                before.wme_changes) /
                cycles,
            "count");
    out.add("ops5.conflict_set_size.daa",
            static_cast<double>(m.conflictSet().size()), "count");

    const double med = median(m.batch_us);
    std::size_t tail = 0;
    for (double us : m.batch_us)
        if (us > 10.0 * med)
            ++tail;
    out.add("pmatch.tail_batch_frac",
            static_cast<double>(tail) /
                static_cast<double>(m.batch_us.size()),
            "fraction");
}

} // namespace perfbench
