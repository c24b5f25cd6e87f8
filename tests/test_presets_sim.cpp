/**
 * @file
 * Per-preset simulation properties: for every paper system's captured
 * trace, the simulated machine must behave physically — concurrency
 * bounded by the processor count and non-decreasing in it, speed
 * consistent with concurrency, and true speed-up below concurrency.
 */

#include <gtest/gtest.h>

#include "psm/sim.hpp"
#include "workloads/workloads.hpp"

using namespace psm;
using namespace psm::sim;

namespace {

class PresetSimTest : public ::testing::TestWithParam<std::string>
{
  protected:
    static CapturedRun
    capture(const std::string &name)
    {
        const auto &preset = workloads::presetByName(name);
        auto program = workloads::generateProgram(preset.config);
        return captureStreamRun(program, preset.config,
                                preset.config.seed * 7 + 1, 60,
                                preset.changes_per_firing, 0.5);
    }
};

TEST_P(PresetSimTest, PhysicallySaneAcrossProcessorCounts)
{
    CapturedRun run = capture(GetParam());
    Simulator sim(run.trace);

    double prev_conc = 0, prev_speed = 0;
    for (int p : {1, 2, 8, 32, 64}) {
        MachineConfig m;
        m.n_processors = p;
        m.model_contention = false;
        SimResult r = sim.run(m);

        EXPECT_LE(r.concurrency, static_cast<double>(p) + 1e-9)
            << "P=" << p;
        EXPECT_GE(r.concurrency, prev_conc - 1e-9) << "P=" << p;
        EXPECT_GE(r.wme_changes_per_sec, prev_speed * 0.999)
            << "P=" << p;

        TrueSpeedup ts = trueSpeedup(run, r, m);
        EXPECT_LE(ts.true_speedup, ts.concurrency + 1e-9)
            << "true speed-up can never exceed busy processors";

        prev_conc = r.concurrency;
        prev_speed = r.wme_changes_per_sec;
    }
}

TEST_P(PresetSimTest, ParallelFiringsIncreaseConcurrency)
{
    CapturedRun run = capture(GetParam());
    auto merged = mergeCycles(run.trace, 2);
    MachineConfig m;
    m.n_processors = 32;
    Simulator base(run.trace), pf(merged);
    EXPECT_GT(pf.run(m).concurrency, base.run(m).concurrency * 0.99)
        << "widening match phases must not reduce parallelism";
}

/** FNV-1a over 64-bit words, fed one little-endian byte at a time. */
struct Fnv1a
{
    std::uint64_t h = 14695981039346656037ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

/** Hash of every record field and cycle mark of @p run's trace. */
std::uint64_t
traceHash(const CapturedRun &run)
{
    Fnv1a f;
    for (const rete::ActivationRecord &r : run.trace.records()) {
        f.add(r.id);
        f.add(r.parent);
        f.add(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(r.node_id)));
        f.add(static_cast<std::uint64_t>(r.kind));
        f.add(static_cast<std::uint64_t>(r.side));
        f.add(r.insert);
        f.add(r.cost);
        f.add(r.change);
        f.add(r.cycle);
    }
    for (const rete::TraceRecorder::CycleMark &c : run.trace.cycles()) {
        f.add(c.cycle);
        f.add(c.n_changes);
        f.add(c.first_record);
    }
    return f.h;
}

/** Hash of @p run's private and shared serial-Rete MatchStats. */
std::uint64_t
statsHash(const CapturedRun &run)
{
    Fnv1a f;
    for (const core::MatchStats &s :
         {run.private_stats, run.shared_stats}) {
        f.add(s.changes_processed);
        f.add(s.activations);
        f.add(s.comparisons);
        f.add(s.tokens_built);
        f.add(s.instructions);
    }
    return f.h;
}

TEST(SimulatorInputPin, CapturedTracesAndStatsAreUnchanged)
{
    // The simulator's whole input: the private-network activation
    // trace and the serial-Rete costs the E0-E8 tables are computed
    // from. Any change to how serial Rete executes or charges shows
    // here first. The constants were taken from the executor before
    // the composite memory-arrival tasks replaced the per-node queue.
    auto stream = [](const workloads::SystemPreset &preset) {
        auto program = workloads::generateProgram(preset.config);
        return captureStreamRun(program, preset.config,
                                preset.config.seed * 7 + 1, 40,
                                preset.changes_per_firing, 0.4);
    };
    CapturedRun tiny = stream(workloads::tinyPreset(5));
    CapturedRun daa = stream(workloads::presetByName("daa"));
    const auto &daa_config = workloads::presetByName("daa").config;
    CapturedRun engine =
        captureEngineRun(workloads::generateProgram(daa_config), 200);
    ASSERT_GT(tiny.trace.records().size(), 1000u);
    ASSERT_GT(engine.n_cycles, 100u);

    EXPECT_EQ(traceHash(tiny), 0x894c0aafd0475f17ull);
    EXPECT_EQ(statsHash(tiny), 0x34392aa051c66247ull);
    EXPECT_EQ(traceHash(daa), 0x4cc0b6728da372b4ull);
    EXPECT_EQ(statsHash(daa), 0xa62bfbf42cc6954dull);
    EXPECT_EQ(traceHash(engine), 0xcc85a965497991b1ull);
    EXPECT_EQ(statsHash(engine), 0x73945581553af44eull);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSystems, PresetSimTest,
    ::testing::Values("vt", "ilog", "mud", "daa", "r1-soar", "ep-soar"),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
