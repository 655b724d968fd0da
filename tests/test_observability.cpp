/**
 * @file
 * Observability-layer tests: the tracer's event counts against the
 * LaneStats counters, ring-buffer retention semantics, Chrome trace
 * export, the JSON writer/validator round-trip, and the tracer
 * profile's attribution + disassembler-matched state labels.
 */
#include "assembler/builder.hpp"
#include "assembler/disasm.hpp"
#include "core/machine.hpp"
#include "core/metrics_json.hpp"
#include "core/trace.hpp"
#include "kernels/csv.hpp"
#include "runtime/spantrace.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace udp {
namespace {

using namespace kernels;

/// A traced CSV-kernel run on a small synthetic file.
struct TracedCsvRun {
    Tracer tracer;
    LaneStats stats;

    TracedCsvRun()
    {
        const std::string text = workloads::crimes_csv(12);
        const Bytes data(text.begin(), text.end());
        Machine m(AddressingMode::Restricted);
        m.set_tracer(&tracer);
        const auto res = run_csv_kernel(m, 0, data, 0);
        stats = res.stats;
    }
};

TEST(Trace, EventCountsMatchLaneStatsCounters)
{
    TracedCsvRun run;
    const Tracer &t = run.tracer;
    const LaneStats &s = run.stats;
    ASSERT_GT(s.dispatches, 0u);

    EXPECT_EQ(t.count(0, TraceEventKind::Dispatch), s.dispatches);
    EXPECT_EQ(t.count(0, TraceEventKind::SigMiss), s.sig_misses);
    EXPECT_EQ(t.count(0, TraceEventKind::Action), s.actions);
    EXPECT_EQ(t.count(0, TraceEventKind::MemRead), s.mem_reads);
    EXPECT_EQ(t.count(0, TraceEventKind::MemWrite), s.mem_writes);
    EXPECT_EQ(t.count(0, TraceEventKind::Accept), s.accepts);
    // No arbiter in run_parallel mode: no stalls, no stall events.
    EXPECT_EQ(t.count(0, TraceEventKind::Stall), 0u);
    EXPECT_EQ(s.stall_cycles, 0u);

    EXPECT_EQ(t.active_lanes(), std::vector<unsigned>{0u});
    // Event timestamps never exceed the final cycle count and arrive
    // oldest-first.
    Cycles prev = 0;
    for (const TraceEvent &ev : t.events(0)) {
        EXPECT_LE(prev, ev.cycle);
        EXPECT_LE(ev.cycle, s.cycles);
        prev = ev.cycle;
    }
}

TEST(Trace, StallEventsCarryTheArbiterCharges)
{
    // Lockstep lanes contending on one global bank: the traced stall
    // events must sum to each lane's stall_cycles counter.
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_any(s, s, b.add_block({
                 act_imm(Opcode::Ldw, 1, 0, 0x100),
                 act_imm(Opcode::Stw, 1, 0, 0x104, true),
             }));
    b.set_entry(s);
    b.set_addressing(AddressingMode::Global);
    const Program prog = b.build();

    Tracer tracer;
    Machine m(AddressingMode::Global);
    m.set_tracer(&tracer);
    const Bytes input(64, 'x');
    std::vector<JobSpec> jobs(2);
    for (auto &j : jobs) {
        j.program = &prog;
        j.input = input;
    }
    m.assign(jobs);
    const MachineResult res = m.run_lockstep();
    ASSERT_GT(res.total.stall_cycles, 0u);

    for (unsigned lane = 0; lane < 2; ++lane) {
        std::uint64_t traced_stalls = 0;
        for (const TraceEvent &ev : tracer.events(lane))
            if (ev.kind == TraceEventKind::Stall)
                traced_stalls += ev.b;
        EXPECT_EQ(traced_stalls, m.lane(lane).stats().stall_cycles);
    }
}

TEST(Trace, RingRetainsNewestButCountsEverything)
{
    Tracer t(8);
    for (unsigned i = 0; i < 20; ++i)
        t.record(3, TraceEventKind::Dispatch, i + 1, i, 0);

    EXPECT_EQ(t.total(3), 20u);
    EXPECT_EQ(t.dropped(3), 12u);
    EXPECT_EQ(t.count(3, TraceEventKind::Dispatch), 20u);

    const auto evs = t.events(3);
    ASSERT_EQ(evs.size(), 8u);
    // Oldest retained is cycle 13, newest cycle 20.
    EXPECT_EQ(evs.front().cycle, 13u);
    EXPECT_EQ(evs.back().cycle, 20u);

    t.clear();
    EXPECT_EQ(t.total(3), 0u);
    EXPECT_TRUE(t.events(3).empty());
    EXPECT_TRUE(t.active_lanes().empty());
}

TEST(Trace, ChromeExportIsWellFormedJson)
{
    TracedCsvRun run;
    runtime::SpanTracer spans;
    spans.absorb_lane_events(run.tracer, 0);
    std::ostringstream os;
    spans.write_chrome_trace(os);
    const std::string text = os.str();

    EXPECT_TRUE(json_parse_ok(text)) << text.substr(0, 200);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    // One thread-name metadata record for the one active lane.
    EXPECT_NE(text.find("\"lane 0\""), std::string::npos);
}

TEST(Json, WriterRoundTripsThroughValidator)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.field("name", "bench \"quoted\"\n\t");
    w.field("pi", 3.141592653589793);
    w.field("neg", std::int64_t{-42});
    w.field("big", std::uint64_t{18446744073709551615ull});
    w.field("flag", true);
    w.key("nan_is_null").value(std::nan(""));
    w.key("nested").begin_array();
    w.begin_object().field("x", 1).end_object();
    w.value(2.5).null();
    w.end_array();
    w.end_object();
    ASSERT_TRUE(w.done());

    EXPECT_TRUE(json_parse_ok(os.str())) << os.str();
    EXPECT_NE(os.str().find("null"), std::string::npos);
}

TEST(Json, NonFiniteDoublesSerializeAsNull)
{
    // JSON has no NaN/Inf: every non-finite double must land as null —
    // at top level, as an array element, and as an object field (the
    // telemetry registry relies on this for empty-histogram means).
    const double bads[] = {std::nan(""), INFINITY, -INFINITY};
    for (const double bad : bads) {
        std::ostringstream os;
        JsonWriter w(os, /*pretty=*/false);
        w.begin_object();
        w.field("scalar", bad);
        w.key("arr").begin_array().value(bad).value(1.5).end_array();
        w.end_object();
        ASSERT_TRUE(w.done());
        const std::string text = os.str();
        EXPECT_TRUE(json_parse_ok(text)) << text;
        EXPECT_NE(text.find("\"scalar\":null"), std::string::npos) << text;
        EXPECT_EQ(text.find("nan"), std::string::npos) << text;
        EXPECT_EQ(text.find("inf"), std::string::npos) << text;
    }
}

TEST(Json, KeysWithQuotesAndBackslashesRoundTrip)
{
    // Metric names are user-controlled (kernel names land in registry
    // keys); hostile characters must be escaped, not emitted raw.
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.field("quo\"ted", 1);
    w.field("back\\slash", 2);
    w.field("ctrl\x01\n\t", 3);
    w.end_object();
    ASSERT_TRUE(w.done());
    const std::string text = os.str();
    EXPECT_TRUE(json_parse_ok(text)) << text;
    EXPECT_NE(text.find("\"quo\\\"ted\""), std::string::npos);
    EXPECT_NE(text.find("\"back\\\\slash\""), std::string::npos);
    EXPECT_NE(text.find("\\u0001"), std::string::npos);
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(Json, ValidatorRejectsMalformedText)
{
    EXPECT_TRUE(json_parse_ok("{}"));
    EXPECT_TRUE(json_parse_ok(" [1, 2.5e3, \"x\", null, true] "));
    EXPECT_FALSE(json_parse_ok(""));
    EXPECT_FALSE(json_parse_ok("{"));
    EXPECT_FALSE(json_parse_ok("[1,]"));
    EXPECT_FALSE(json_parse_ok("{\"a\":}"));
    EXPECT_FALSE(json_parse_ok("{\"a\":1,}"));
    EXPECT_FALSE(json_parse_ok("01"));
    EXPECT_FALSE(json_parse_ok("\"unterminated"));
    EXPECT_FALSE(json_parse_ok("\"bad \\q escape\""));
    EXPECT_FALSE(json_parse_ok("{} extra"));
    EXPECT_FALSE(json_parse_ok("nul"));
}

TEST(Json, WriterMisuseThrowsInsteadOfEmittingGarbage)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1), UdpError);      // value without a key
    EXPECT_THROW(w.end_array(), UdpError);   // mismatched close
    w.key("k");
    EXPECT_THROW(w.key("k2"), UdpError);     // key while key pending
}

TEST(Json, LaneStatsSerializationCarriesEveryCounter)
{
    LaneStats s;
    s.cycles = 1;
    s.dispatches = 2;
    s.sig_misses = 3;
    s.actions = 4;
    s.mem_reads = 5;
    s.mem_writes = 6;
    s.dispatch_reads = 7;
    s.stall_cycles = 8;
    s.stream_bits = 80;
    s.output_bytes = 10;
    s.accepts = 11;

    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    write_lane_stats(w, s);
    const std::string text = os.str();
    EXPECT_TRUE(json_parse_ok(text)) << text;
    for (const char *k :
         {"cycles", "dispatches", "sig_misses", "actions", "mem_reads",
          "mem_writes", "dispatch_reads", "stall_cycles", "stream_bits",
          "output_bytes", "accepts", "input_bytes", "rate_mbps"})
        EXPECT_NE(text.find(std::string("\"") + k + "\""),
                  std::string::npos)
            << k;
}

TEST(Profile, AttributionSumsToLaneStats)
{
    TracedCsvRun run;
    const Profile p = run.tracer.profile();
    const LaneStats &s = run.stats;

    // Every cycle the lane charged is attributed to exactly one state.
    EXPECT_EQ(p.total_state_cycles(), s.cycles);

    std::uint64_t visits = 0, misses = 0, stalls = 0;
    for (const auto &[base, sp] : p.states()) {
        visits += sp.visits;
        misses += sp.sig_misses;
        stalls += sp.stall_cycles;
    }
    EXPECT_EQ(visits, s.dispatches);
    EXPECT_EQ(misses, s.sig_misses);
    EXPECT_EQ(stalls, s.stall_cycles);

    std::uint64_t action_count = 0;
    for (const auto &[op, ap] : p.actions())
        action_count += ap.count;
    EXPECT_EQ(action_count, s.actions);
}

TEST(Profile, HotStateLabelsMatchTheDisassembler)
{
    TracedCsvRun run;
    const Program prog = csv_parser_program();
    const std::string listing = disassemble(prog);
    const StateSymbolizer sym = make_state_symbolizer(prog);

    const Profile prof = run.tracer.profile();
    const auto hot = prof.hot_states(10);
    ASSERT_FALSE(hot.empty());
    for (const auto &[base, sp] : hot) {
        const std::string label = sym(base);
        // The profile-reported name is exactly a line of the listing.
        EXPECT_NE(listing.find(label + "\n"), std::string::npos)
            << label;
        EXPECT_EQ(label, state_label(prog, base));
    }

    // The rendered report uses those labels and ranks by cycles.
    const std::string rep = prof.report(10, sym);
    EXPECT_NE(rep.find("hot states"), std::string::npos);
    EXPECT_NE(rep.find(sym(hot.front().first)), std::string::npos);

    const auto hot_acts = prof.hot_actions(10);
    ASSERT_FALSE(hot_acts.empty());
    for (std::size_t i = 1; i < hot.size(); ++i)
        EXPECT_GE(hot[i - 1].second.cycles, hot[i].second.cycles);
    for (std::size_t i = 1; i < hot_acts.size(); ++i)
        EXPECT_GE(hot_acts[i - 1].second.cycles,
                  hot_acts[i].second.cycles);
}

TEST(Profile, DetachedInstrumentationChangesNoCounters)
{
    // The same kernel run with and without instrumentation attached must
    // produce identical simulated statistics (the "zero simulated
    // overhead" contract behind the <2% host-time criterion).
    const std::string text = workloads::crimes_csv(12);
    const Bytes data(text.begin(), text.end());

    Machine plain(AddressingMode::Restricted);
    const auto r1 = run_csv_kernel(plain, 0, data, 0);

    TracedCsvRun run;
    EXPECT_EQ(r1.stats.cycles, run.stats.cycles);
    EXPECT_EQ(r1.stats.dispatches, run.stats.dispatches);
    EXPECT_EQ(r1.stats.sig_misses, run.stats.sig_misses);
    EXPECT_EQ(r1.stats.actions, run.stats.actions);
    EXPECT_EQ(r1.stats.mem_reads, run.stats.mem_reads);
    EXPECT_EQ(r1.stats.mem_writes, run.stats.mem_writes);
}

} // namespace
} // namespace udp
