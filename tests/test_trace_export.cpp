/**
 * @file
 * Chrome-trace export: SpanRecorder lane/cycle bookkeeping, the JSON
 * serialisation (structurally valid, CI re-parses it with Python),
 * the real-span and simulated-span converters, and the end-to-end
 * guarantee that every recorded task span nests inside its cycle.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_matcher.hpp"
#include "rete/matcher.hpp"
#include "rete/trace_export.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;
using rete::ChromeEvent;
using rete::RealSpan;
using rete::SpanRecorder;

namespace {

/** Structural JSON sanity: balanced brackets/braces outside strings,
 *  no trailing comma before a closer. (CI runs a real parser.) */
void
expectBalancedJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false;
    char prev_significant = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            EXPECT_NE(prev_significant, ',')
                << "trailing comma at offset " << i;
            --depth;
            EXPECT_GE(depth, 0);
        }
        if (!std::isspace(static_cast<unsigned char>(c)))
            prev_significant = c;
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

RealSpan
makeSpan(int node, std::uint64_t start, std::uint64_t end,
         std::uint32_t cycle = 1)
{
    RealSpan s;
    s.node_id = node;
    s.kind = rete::NodeKind::Join;
    s.cycle = cycle;
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

} // namespace

TEST(SpanRecorder, LanesAndCycles)
{
    SpanRecorder rec(2);
    EXPECT_EQ(rec.workers(), 2u);

    rec.beginCycle(1);
    rec.record(0, makeSpan(3, 10, 20));
    rec.record(1, makeSpan(4, 15, 25));
    rec.endCycle();

    EXPECT_EQ(rec.spans(0).size(), 1u);
    EXPECT_EQ(rec.spans(1).size(), 1u);
    ASSERT_EQ(rec.cycleSpans().size(), 1u);
    EXPECT_EQ(rec.cycleSpans()[0].cycle, 1u);
    EXPECT_EQ(rec.cycleSpans()[0].node_id, -1);

    rec.clear();
    EXPECT_TRUE(rec.spans(0).empty());
    EXPECT_TRUE(rec.cycleSpans().empty());
}

TEST(TraceExport, WriteChromeTraceIsValidJson)
{
    std::vector<ChromeEvent> events;
    ChromeEvent ev;
    ev.name = "join#7";
    ev.cat = "task";
    ev.ts_us = 1.5;
    ev.dur_us = 2.25;
    ev.pid = 1;
    ev.tid = 3;
    ev.args_json = "{\"cycle\": 2}";
    events.push_back(ev);
    ev.name = "weird \"name\" with \\ backslash";
    ev.args_json.clear();
    events.push_back(ev);

    std::ostringstream os;
    rete::writeChromeTrace(os, events);
    std::string s = os.str();

    expectBalancedJson(s);
    EXPECT_EQ(s.front(), '[');
    EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(s.find("\"name\": \"join#7\""), std::string::npos);
    EXPECT_NE(s.find("\"args\": {\"cycle\": 2}"), std::string::npos);
    // Quotes and backslashes in names must be escaped.
    EXPECT_NE(s.find("weird \\\"name\\\" with \\\\ backslash"),
              std::string::npos);

    // Empty event list is still a valid document.
    std::ostringstream empty;
    rete::writeChromeTrace(empty, {});
    expectBalancedJson(empty.str());
}

TEST(TraceExport, RealEventsMapWorkersToTids)
{
    SpanRecorder rec(2);
    rec.beginCycle(1);
    rec.record(0, makeSpan(3, 100, 200));
    rec.record(1, makeSpan(4, 150, 260));
    rec.endCycle();

    std::vector<ChromeEvent> events = rete::chromeEventsFromReal(rec, 9);
    // One event per task span plus one per cycle.
    ASSERT_EQ(events.size(), 3u);
    std::vector<int> tids;
    for (const ChromeEvent &ev : events) {
        EXPECT_EQ(ev.pid, 9);
        tids.push_back(ev.tid);
    }
    std::sort(tids.begin(), tids.end());
    EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end())
        << "cycle and worker lanes must use distinct tids";
}

TEST(TraceExport, SimEventsScaleAndPackLanes)
{
    struct SimSpan
    {
        std::uint64_t activation_id;
        double start, end;
        int cluster;
    };

    rete::TraceRecorder trace;
    rete::ActivationRecord rec;
    rec.id = 1;
    rec.node_id = 12;
    rec.kind = rete::NodeKind::Join;
    rec.cycle = 1;
    trace.record(rec);
    rec.id = 2;
    rec.node_id = 13;
    trace.record(rec);

    // Two overlapping spans in one cluster: must land on two lanes.
    std::vector<SimSpan> spans = {{1, 0.0, 10.0, 0}, {2, 5.0, 15.0, 0}};
    std::vector<ChromeEvent> events =
        rete::chromeEventsFromSim(trace, spans, 0.5, 7);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].tid, events[1].tid);
    EXPECT_EQ(events[0].pid, 7);
    EXPECT_DOUBLE_EQ(events[0].ts_us, 0.0);
    EXPECT_DOUBLE_EQ(events[0].dur_us, 5.0); // 10 instr * 0.5 us
    EXPECT_EQ(events[0].name, "join#12");

    // Non-overlapping spans reuse the lane.
    std::vector<SimSpan> serial = {{1, 0.0, 10.0, 0}, {2, 10.0, 20.0, 0}};
    events = rete::chromeEventsFromSim(trace, serial, 1.0);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].tid, events[1].tid);
}

/** Every span a real matcher records must nest within the cycle span
 *  that was open when it ran. */
static void
expectSpansNestWithinCycles(const SpanRecorder &rec)
{
    ASSERT_FALSE(rec.cycleSpans().empty());
    for (std::size_t w = 0; w < rec.workers(); ++w) {
        for (const RealSpan &span : rec.spans(w)) {
            ASSERT_GE(span.cycle, 1u);
            ASSERT_LE(span.cycle, rec.cycleSpans().size());
            const RealSpan &cyc = rec.cycleSpans()[span.cycle - 1];
            EXPECT_EQ(cyc.cycle, span.cycle);
            EXPECT_GE(span.start_ns, cyc.start_ns)
                << "task span starts before its cycle";
            EXPECT_LE(span.end_ns, cyc.end_ns)
                << "task span ends after its cycle";
            EXPECT_LE(span.start_ns, span.end_ns);
        }
    }
}

TEST(TraceExport, SerialMatcherSpansNestWithinCycles)
{
    auto preset = workloads::tinyPreset(13);
    auto program = workloads::generateProgram(preset.config);
    rete::ReteMatcher m(std::make_shared<rete::Network>(program));
    SpanRecorder rec(1);
    m.setSpanRecorder(&rec);

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 3);
    for (int b = 0; b < 8; ++b)
        m.processChanges(stream.nextBatch(4, 0.5));

    EXPECT_EQ(rec.cycleSpans().size(), 8u);
    EXPECT_FALSE(rec.spans(0).empty());
    expectSpansNestWithinCycles(rec);

    // The whole recording serialises into structurally valid JSON.
    std::ostringstream os;
    rete::writeChromeTrace(os, rete::chromeEventsFromReal(rec));
    expectBalancedJson(os.str());
}

TEST(TraceExport, ParallelMatcherSpansNestWithinCycles)
{
    auto preset = workloads::tinyPreset(13);
    auto program = workloads::generateProgram(preset.config);
    core::ParallelOptions opt;
    opt.n_workers = 2;
    core::ParallelReteMatcher m(program, opt,
                                rete::CostModel{.worker_wake = 0});
    SpanRecorder rec(opt.n_workers + 1);
    m.setSpanRecorder(&rec);

    ops5::WorkingMemory wm;
    workloads::ChangeStream stream(*program, wm, preset.config, 3);
    for (int b = 0; b < 8; ++b)
        m.processChanges(stream.nextBatch(4, 0.5));

    EXPECT_EQ(rec.cycleSpans().size(), 8u);
    std::size_t total_spans = 0;
    for (std::size_t w = 0; w < rec.workers(); ++w)
        total_spans += rec.spans(w).size();
    EXPECT_GT(total_spans, 0u);
    expectSpansNestWithinCycles(rec);
}
