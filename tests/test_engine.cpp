/**
 * @file
 * Recognize-act engine tests: full program runs with handwritten OPS5
 * programs — counting loops, halt, quiescence, strategy differences,
 * and matcher interchangeability.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.hpp"
#include "workloads/workloads.hpp"
#include "ops5/parser.hpp"
#include "core/parallel_matcher.hpp"
#include "rete/matcher.hpp"
#include "treat/treat.hpp"

using namespace psm;
using namespace psm::ops5;

namespace {

/** Counts down from 5, writing each value, then halts. */
constexpr const char *kCountdown = R"(
(literalize counter value)
(p count-down
    (counter ^value { <n> > 0 })
    -->
    (write <n>)
    (bind <m> 0)
    (modify 1 ^value <m>))
(p done
    (counter ^value 0)
    -->
    (write done)
    (halt))
(make counter ^value 5)
)";

TEST(EngineTest, RunsToHalt)
{
    auto prog = parse(kCountdown);
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    std::ostringstream out;
    engine.setOutput(&out);
    engine.loadInitialWorkingMemory();
    core::RunResult r = engine.run(100);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.firings, 2u); // count-down once (5 -> 0), then done
    EXPECT_EQ(out.str(), "5\ndone\n");
}

/** A real loop: decrement a counter from N to 0 via repeated modify. */
std::shared_ptr<Program>
chainProgram(int n)
{
    std::ostringstream src;
    src << "(literalize c v)\n";
    for (int i = n; i > 0; --i) {
        src << "(p step" << i << " (c ^v " << i << ") --> (modify 1 ^v "
            << (i - 1) << "))\n";
    }
    src << "(p fin (c ^v 0) --> (halt))\n";
    src << "(make c ^v " << n << ")\n";
    return parse(src.str());
}

TEST(EngineTest, ChainOfFiringsEachCycleOneFiring)
{
    auto prog = chainProgram(10);
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    engine.loadInitialWorkingMemory();
    core::RunResult r = engine.run(100);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.firings, 11u);
    // Each modify is remove + insert: 10 firings x 2 changes + halt
    // firing (no change) + 1 initial make.
    EXPECT_EQ(r.wme_changes, 20u);
}

TEST(EngineTest, MaxCyclesBoundsRun)
{
    auto prog = chainProgram(10);
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    engine.loadInitialWorkingMemory();
    core::RunResult r = engine.run(3);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.firings, 3u);
}

TEST(EngineTest, QuiescenceWhenNothingMatches)
{
    auto prog = parse(R"(
(literalize a x)
(p p1 (a ^x 1) --> (remove 1))
(make a ^x 1)
(make a ^x 1)
)");
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    engine.loadInitialWorkingMemory();
    core::RunResult r = engine.run(100);
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.firings, 2u) << "both WMEs consumed";
    EXPECT_EQ(engine.workingMemory().liveCount(), 0u);
}

TEST(EngineTest, RefractionPreventsInfiniteRefire)
{
    // The production does NOT modify its matched WME; refraction must
    // stop it from firing twice on the same instantiation.
    auto prog = parse(R"(
(literalize a x)
(literalize log x)
(p note (a ^x <v>) --> (make log ^x <v>))
(make a ^x 1)
)");
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    engine.loadInitialWorkingMemory();
    core::RunResult r = engine.run(50);
    EXPECT_EQ(r.firings, 1u);
    EXPECT_TRUE(r.quiescent);
}

TEST(EngineTest, LexFiresMostRecentFirst)
{
    auto prog = parse(R"(
(literalize a x)
(p note (a ^x <v>) --> (write <v>) (remove 1))
(make a ^x first)
(make a ^x second)
)");
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    std::ostringstream out;
    engine.setOutput(&out);
    engine.loadInitialWorkingMemory();
    engine.run(10);
    EXPECT_EQ(out.str(), "second\nfirst\n");
}

TEST(EngineTest, AssertAndRetractProgrammatically)
{
    auto prog = parse(R"(
(literalize a x)
(p p1 (a ^x 1) --> (halt))
)");
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    const Wme *w = engine.assertWme(prog->symbols().find("a"),
                                    {Value::integer(1)});
    EXPECT_EQ(matcher.conflictSet().size(), 1u);
    EXPECT_TRUE(engine.retractWme(w));
    EXPECT_EQ(matcher.conflictSet().size(), 0u);
    EXPECT_FALSE(engine.retractWme(w)) << "double retract";
}

TEST(EngineTest, PhaseTimesAccumulate)
{
    auto prog = chainProgram(20);
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    engine.loadInitialWorkingMemory();
    engine.run(100);

    const auto &pt = engine.phaseTimes();
    EXPECT_GT(pt.match_seconds, 0.0);
    EXPECT_GT(pt.resolve_seconds, 0.0);
    EXPECT_GT(pt.act_seconds, 0.0);
    EXPECT_GE(pt.matchFraction(), 0.0);
    EXPECT_LE(pt.matchFraction(), 1.0);
}

TEST(EngineTest, FiringObserverSeesEachFiring)
{
    auto prog = chainProgram(5);
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    engine.loadInitialWorkingMemory();
    std::vector<std::string> fired;
    engine.setFiringObserver(
        [&](const Instantiation &inst, const FiringResult &) {
            fired.push_back(inst.production->name());
        });
    engine.run(100);
    ASSERT_EQ(fired.size(), 6u);
    EXPECT_EQ(fired.front(), "step5");
    EXPECT_EQ(fired.back(), "fin");
}

/** Identical runs regardless of which matcher drives the engine. */
class EngineMatcherParity
    : public ::testing::TestWithParam<const char *>
{};

/**
 * Full recognize-act parity on GENERATED programs: every matcher must
 * fire the same productions in the same order, because conflict
 * resolution is deterministic given equal conflict sets.
 */
class GeneratedEngineParity
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(GeneratedEngineParity, SameFiringSequenceOnGeneratedPrograms)
{
    std::uint64_t seed = GetParam();
    auto preset = psm::workloads::tinyPreset(seed);

    // NOTE: each matcher gets its own Program instance; the generator
    // is deterministic, so structure and time tags line up.
    auto prog_ref = psm::workloads::generateProgram(preset.config);
    rete::ReteMatcher ref(prog_ref);
    core::Engine engine_ref(prog_ref, ref);
    std::vector<std::string> expected;
    engine_ref.setFiringObserver(
        [&](const Instantiation &inst, const FiringResult &) {
            expected.push_back(inst.production->name());
        });
    engine_ref.loadInitialWorkingMemory();
    engine_ref.run(60);
    ASSERT_FALSE(expected.empty()) << "workload must actually fire";

    {
        auto prog = psm::workloads::generateProgram(preset.config);
        treat::TreatMatcher m(prog);
        core::Engine e(prog, m);
        std::vector<std::string> fired;
        e.setFiringObserver(
            [&](const Instantiation &inst, const FiringResult &) {
                fired.push_back(inst.production->name());
            });
        e.loadInitialWorkingMemory();
        e.run(60);
        EXPECT_EQ(fired, expected) << "treat";
    }
    {
        auto prog = psm::workloads::generateProgram(preset.config);
        core::ParallelOptions opt;
        opt.n_workers = 3;
        core::ParallelReteMatcher m(prog, opt);
        core::Engine e(prog, m);
        std::vector<std::string> fired;
        e.setFiringObserver(
            [&](const Instantiation &inst, const FiringResult &) {
                fired.push_back(inst.production->name());
            });
        e.loadInitialWorkingMemory();
        e.run(60);
        EXPECT_EQ(fired, expected) << "parallel";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedEngineParity,
                         ::testing::Values(71, 72, 73),
                         [](const auto &info) {
                             return "seed" + std::to_string(info.param);
                         });

TEST_P(EngineMatcherParity, SameFiringSequence)
{
    auto run_with = [&](core::Matcher &m,
                        std::shared_ptr<Program> prog) {
        core::Engine engine(prog, m);
        std::vector<std::string> fired;
        engine.setFiringObserver(
            [&](const Instantiation &inst, const FiringResult &) {
                fired.push_back(inst.production->name());
            });
        engine.loadInitialWorkingMemory();
        engine.run(200);
        return fired;
    };

    auto p1 = chainProgram(15);
    rete::ReteMatcher rete_m(p1);
    auto ref = run_with(rete_m, p1);

    std::string which = GetParam();
    auto p2 = chainProgram(15);
    std::unique_ptr<core::Matcher> other;
    if (which == "treat") {
        other = std::make_unique<treat::TreatMatcher>(p2);
    } else {
        core::ParallelOptions opt;
        opt.n_workers = which == "parallel4" ? 4 : 0;
        other = std::make_unique<core::ParallelReteMatcher>(p2, opt);
    }
    auto got = run_with(*other, p2);
    EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(Matchers, EngineMatcherParity,
                         ::testing::Values("treat", "parallel0",
                                           "parallel4"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

/**
 * External assert/retract interleaved between run() calls — the
 * serving layer's access pattern — must behave identically with every
 * batch inline (no workers) and every batch on the workers (floor 0).
 */
class ExternalChangesAcrossWorkerCounts
    : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(ExternalChangesAcrossWorkerCounts, InterleavedAssertRetractRun)
{
    auto prog = parse(R"(
(literalize job id)
(literalize done id)
(p work (job ^id <i>) --> (make done ^id <i>) (remove 1))
)");
    core::ParallelOptions opt;
    opt.n_workers = GetParam();
    core::ParallelReteMatcher matcher(prog, opt,
                                      rete::CostModel{.worker_wake = 0});
    core::Engine engine(prog, matcher);
    engine.loadInitialWorkingMemory();

    SymbolId job = prog->symbols().find("job");

    // Round 1: two external jobs, run to quiescence.
    engine.assertWme(job, {Value::integer(1)});
    engine.assertWme(job, {Value::integer(2)});
    core::RunResult r1 = engine.run(10);
    EXPECT_TRUE(r1.quiescent);
    EXPECT_EQ(r1.firings, 2u);

    // Round 2: a job asserted then retracted before the run never
    // fires; the retract of an already-consumed handle is refused.
    const Wme *w3 = engine.assertWme(job, {Value::integer(3)});
    EXPECT_TRUE(engine.retractWme(w3));
    EXPECT_FALSE(engine.retractWme(w3)) << "repeated retract";
    core::RunResult r2 = engine.run(10);
    EXPECT_TRUE(r2.quiescent);
    EXPECT_EQ(r2.firings, 0u);

    // Round 3: a rule consumes the new job. Its handle dies with the
    // next step(), so a caller looks the element up by time tag (as
    // the serving layer does) and finds nothing left to retract.
    TimeTag tag4 = engine.assertWme(job, {Value::integer(4)})->timeTag();
    core::RunResult r3 = engine.run(10);
    EXPECT_EQ(r3.firings, 1u);
    EXPECT_EQ(engine.workingMemory().findByTag(tag4), nullptr)
        << "rule already removed this element";
    EXPECT_EQ(engine.workingMemory().liveCount(), 3u)
        << "done 1, 2, and 4";
}

INSTANTIATE_TEST_SUITE_P(
    WorkerCounts, ExternalChangesAcrossWorkerCounts,
    ::testing::Values(std::size_t{0}, std::size_t{3}),
    [](const auto &info) {
        return "Workers" + std::to_string(info.param);
    });

TEST(EngineTest, ExternalBatchMatchesOnceAtCommit)
{
    auto prog = parse(R"(
(literalize a x)
(p p1 (a ^x 1) --> (remove 1))
)");
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    engine.loadInitialWorkingMemory();

    SymbolId a = prog->symbols().find("a");
    const Wme *w1 = nullptr;
    {
        core::Engine::ExternalBatch batch(engine);
        w1 = batch.insert(a, {Value::integer(1)});
        batch.insert(a, {Value::integer(1)});
        batch.insert(a, {Value::integer(2)});
        EXPECT_EQ(batch.size(), 3u);
        // Staged changes touch WM immediately but not the matcher.
        EXPECT_EQ(engine.workingMemory().liveCount(), 3u);
        EXPECT_EQ(matcher.conflictSet().size(), 0u);
        batch.commit();
        EXPECT_TRUE(batch.empty());
        EXPECT_EQ(matcher.conflictSet().size(), 2u);
    }
    EXPECT_EQ(engine.totals().wme_changes, 3u);

    // A batched retract: parked at remove(), matched and garbage
    // collected at commit — the handle is dead afterwards, but its
    // tag no longer resolves, which is how callers must check.
    TimeTag tag1 = w1->timeTag();
    {
        core::Engine::ExternalBatch batch(engine);
        EXPECT_TRUE(batch.remove(w1));
        EXPECT_FALSE(batch.remove(w1)) << "already parked";
        // dtor commits
    }
    EXPECT_EQ(engine.workingMemory().findByTag(tag1), nullptr);
    EXPECT_EQ(matcher.conflictSet().size(), 1u);
    EXPECT_EQ(engine.totals().wme_changes, 4u);
}

TEST(EngineTest, RunStopPredicateBoundsCycles)
{
    auto prog = chainProgram(50);
    rete::ReteMatcher matcher(prog);
    core::Engine engine(prog, matcher);
    engine.loadInitialWorkingMemory();

    // Polled before every cycle: true on the 4th poll = 3 cycles ran.
    int polls = 0;
    core::RunResult r = engine.run(100, [&] { return ++polls > 3; });
    EXPECT_TRUE(r.stopped);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.firings, 3u);

    // An already-true predicate runs zero cycles.
    core::RunResult r0 = engine.run(100, [] { return true; });
    EXPECT_TRUE(r0.stopped);
    EXPECT_EQ(r0.firings, 0u);

    // Without a predicate the run continues where it left off.
    core::RunResult rest = engine.run(100);
    EXPECT_FALSE(rest.stopped);
    EXPECT_TRUE(rest.halted);
    EXPECT_EQ(rest.firings, 48u) << "47 chain steps + fin";
}

} // namespace
