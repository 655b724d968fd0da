/**
 * @file
 * Machine-level tests: 64-lane data-parallel kernels, bank-conflict
 * stalls under global addressing, window isolation under restricted
 * addressing, energy accounting, and failure injection.
 */
#include "assembler/builder.hpp"
#include "baselines/csv.hpp"
#include "kernels/csv.hpp"
#include "kernels/histogram.hpp"
#include "runtime/executor.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace udp {
namespace {

using namespace kernels;

Bytes
bytes_of(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

TEST(Machine64, ThirtyTwoLanesParseDisjointCsvChunks)
{
    // Split a CSV across 32 lanes on row boundaries; the sum of lane
    // counters must equal the single-parser result (the paper's
    // data-parallel deployment of Fig 13).
    const std::string text = workloads::crimes_csv(400);
    const Bytes data = bytes_of(text);
    const auto expect = baselines::parse_csv(data);

    Machine m(AddressingMode::Restricted);
    std::uint64_t fields = 0, rows = 0;
    Cycles wall = 0;
    std::size_t off = 0;
    unsigned lane = 0;
    std::uint64_t bytes_done = 0;
    while (off < data.size()) {
        std::size_t end = std::min(off + 12'000, data.size());
        if (end < data.size())
            while (end > off && data[end - 1] != '\n')
                --end;
        ASSERT_GT(end, off);
        const auto res = run_csv_kernel(
            m, lane % 32, BytesView(data).subspan(off, end - off),
            static_cast<ByteAddr>((lane % 32) * kCsvWindowBytes));
        fields += res.fields;
        rows += res.rows;
        wall = std::max(wall, res.stats.cycles);
        bytes_done += end - off;
        off = end;
        ++lane;
    }
    EXPECT_EQ(bytes_done, data.size());
    EXPECT_EQ(fields, expect.fields);
    EXPECT_EQ(rows, expect.rows);
}

TEST(Machine64, AllLanesRunHistogramShards)
{
    // 64 lanes x disjoint value shards; merged counts == CPU histogram.
    const auto xs = workloads::fp_values(64 * 500, 0);
    auto h = baselines::Histogram::uniform(10, 41.2, 42.5);
    h.add_all(xs);

    const Program prog = histogram_program(h.edges());
    Machine m(AddressingMode::Restricted);

    std::vector<Bytes> shards(kNumLanes);
    for (unsigned l = 0; l < kNumLanes; ++l) {
        const std::vector<double> part(xs.begin() + l * 500,
                                       xs.begin() + (l + 1) * 500);
        shards[l] = pack_fp_stream(part);
    }
    std::vector<JobSpec> jobs(kNumLanes);
    for (unsigned l = 0; l < kNumLanes; ++l) {
        jobs[l].program = &prog;
        jobs[l].input = shards[l];
        jobs[l].window_base = l * kBankBytes;
    }
    m.assign(std::move(jobs));
    const MachineResult res = m.run_parallel();
    EXPECT_EQ(res.active_lanes, kNumLanes);

    std::vector<std::uint64_t> merged(10, 0);
    for (unsigned l = 0; l < kNumLanes; ++l)
        for (unsigned b = 0; b < 10; ++b)
            merged[b] += m.memory().read32(l * kBankBytes + b * 4);
    EXPECT_EQ(merged, h.counts());

    // Aggregate throughput must exceed one lane's rate substantially.
    EXPECT_GT(res.throughput_mbps(), 20 * 500.0);
    EXPECT_GT(m.last_run_energy_j(), 0.0);
}

TEST(MachineLockstep, GlobalAddressingSerializesBankConflicts)
{
    // Two lanes hammering the same global bank must stall; the same
    // program on disjoint restricted windows must not.
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_any(s, s, b.add_block({
                 act_imm(Opcode::Ldw, 1, 0, 0x100),
                 act_imm(Opcode::Stw, 1, 0, 0x104, true),
             }));
    b.set_entry(s);
    b.set_addressing(AddressingMode::Global);
    const Program prog = b.build();

    const Bytes input(256, 'x');

    Machine g(AddressingMode::Global);
    std::vector<JobSpec> jobs(4);
    for (auto &j : jobs) {
        j.program = &prog;
        j.input = input;
    }
    g.assign(jobs);
    const MachineResult gr = g.run_lockstep();
    EXPECT_GT(gr.total.stall_cycles, 0u);

    Machine r(AddressingMode::Restricted);
    for (unsigned i = 0; i < 4; ++i)
        jobs[i].window_base = i * kBankBytes;
    r.assign(jobs);
    const MachineResult rr = r.run_lockstep();
    EXPECT_EQ(rr.total.stall_cycles, 0u);
    // Same work, less time without contention.
    EXPECT_LE(rr.wall_cycles, gr.wall_cycles);
    // Global references also cost more energy per access (Fig 11c).
    EXPECT_GT(g.last_run_energy_j(), r.last_run_energy_j());
}

TEST(MachineLockstep, ArbiterDoesNotOutliveTheRun)
{
    // run_lockstep's bank arbiter lives on its own frame.  A single-lane
    // run on the same machine afterwards, whether the lockstep run
    // finished or threw, must charge no stall through it: its stats
    // equal a fresh machine's.
    const std::string text = workloads::crimes_csv(20);
    const runtime::JobPlan plan =
        csv_kernel_spec().make_job(bytes_of(text));
    Machine fresh(AddressingMode::Restricted);
    const runtime::JobResult want = runtime::run_job_on(fresh, 0, 0, plan);
    ASSERT_EQ(want.status, LaneStatus::Done);
    EXPECT_EQ(want.stats.stall_cycles, 0u);

    for (const bool nfa_last : {false, true}) {
        SCOPED_TRACE(nfa_last ? "lockstep threw" : "lockstep finished");
        Machine m(AddressingMode::Restricted);
        std::vector<JobSpec> jobs(4);
        for (unsigned i = 0; i < 4; ++i) {
            jobs[i].program = plan.program.get();
            jobs[i].input = plan.input;
            jobs[i].window_base =
                static_cast<ByteAddr>(i) * plan.window_bytes;
            jobs[i].init_regs = plan.init_regs;
        }
        // Lockstep rejects the NFA lane by throwing; lanes 0-2 come
        // before it.
        jobs[3].nfa_mode = nfa_last;
        m.assign(std::move(jobs));
        if (nfa_last)
            EXPECT_THROW(m.run_lockstep(), UdpError);
        else
            EXPECT_GT(m.run_lockstep().total.stall_cycles, 0u);

        const runtime::JobResult got = runtime::run_job_on(m, 0, 0, plan);
        EXPECT_EQ(got.status, want.status);
        EXPECT_EQ(got.stats, want.stats);
    }
}

TEST(MachineFailure, BadProgramsSurfaceAsFaults)
{
    Machine m;
    // More jobs than lanes is host API misuse: still a throw.
    std::vector<JobSpec> too_many(kNumLanes + 1);
    EXPECT_THROW(m.assign(std::move(too_many)), UdpError);

    // A lane escaping its restricted window is a *lane* fault: trapped
    // and recorded, never thrown (docs/ROBUSTNESS.md).
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_any(s, s, b.add_block({act_imm(Opcode::Ldw, 1, 0, 0, true)}));
    b.set_entry(s);
    const Program prog = b.build();
    Lane &lane = m.lane(0);
    lane.load(prog);
    const Bytes input(4, 'x');
    lane.set_input(input);
    lane.set_window_base(kLocalMemBytes - 2); // window beyond memory end
    EXPECT_EQ(lane.run(), LaneStatus::Faulted);
    EXPECT_EQ(lane.fault().code, FaultCode::FetchOutOfRange);
    EXPECT_EQ(lane.fault().lane, 0u);
    EXPECT_FALSE(lane.fault().detail.empty());
}

TEST(MachineFailure, CorruptDispatchImageFaultsTheLane)
{
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_symbol(s, 'a', s);
    b.set_entry(s);
    Program prog = b.build();

    // Point the arc at a non-state target: the lane must detect it.
    Transition t = decode_transition(prog.dispatch[prog.states[0].base +
                                                   'a']);
    t.target = static_cast<DispatchAddr>(
        (prog.states[0].base + 200) % kDispatchWords);
    prog.dispatch[prog.states[0].base + 'a'] = encode_transition(t);

    LocalMemory mem;
    Lane lane(0, mem);
    lane.load(prog);
    const Bytes input = bytes_of("aa");
    lane.set_input(input);
    EXPECT_EQ(lane.run(), LaneStatus::Faulted);
    EXPECT_EQ(lane.fault().code, FaultCode::BadDispatch);
    // The record pins where the lane trapped.
    EXPECT_NE(lane.fault().describe().find("bad-dispatch"),
              std::string::npos);
}

TEST(MachineFailure, RunParallelContainsOneFaultyLane)
{
    // One corrupt program among many: run_parallel records the fault in
    // MachineResult::faults and the healthy lanes finish untouched.
    ProgramBuilder good;
    const StateId gs = good.add_state();
    good.on_symbol(gs, 'a', gs);
    good.set_entry(gs);
    const Program good_prog = good.build();

    Program bad_prog = good_prog;
    for (Word &w : bad_prog.dispatch)
        w = Word{7u} << 8; // reserved transition type: BadDispatch

    const Bytes input(64, 'a');
    Machine m;
    std::vector<JobSpec> jobs(8);
    for (unsigned i = 0; i < jobs.size(); ++i) {
        jobs[i].program = i == 3 ? &bad_prog : &good_prog;
        jobs[i].input = input;
        jobs[i].window_base = i * kBankBytes;
    }
    m.assign(std::move(jobs));
    const MachineResult res = m.run_parallel();

    EXPECT_EQ(res.faulted_lanes(), 1u);
    EXPECT_EQ(res.status[3], LaneStatus::Faulted);
    EXPECT_EQ(res.faults[3].code, FaultCode::BadDispatch);
    EXPECT_EQ(res.faults[3].lane, 3u);
    for (unsigned i = 0; i < 8; ++i) {
        if (i == 3)
            continue;
        EXPECT_EQ(res.status[i], LaneStatus::Done);
        EXPECT_EQ(res.faults[i].code, FaultCode::None);
        EXPECT_EQ(m.lane(i).stats().input_bytes(), double(input.size()));
    }
}

TEST(MachineFailure, ReassignDropsEveryLanesPreviousProgram)
{
    // Machine::assign hard-resets all 64 lanes between batches, and the
    // previous batch's programs may already be freed by then: the reset
    // must drop each lane's program binding, never read through it.  A
    // lane the new batch leaves idle then has no program at all.
    const auto looping_program = [] {
        ProgramBuilder b;
        const StateId s = b.add_state();
        b.on_symbol(s, 'a', s);
        b.set_entry(s);
        return b.build();
    };
    const Bytes input(16, 'a');
    Machine m;
    {
        const auto first = std::make_unique<Program>(looping_program());
        std::vector<JobSpec> jobs(4);
        for (unsigned i = 0; i < jobs.size(); ++i) {
            jobs[i].program = first.get();
            jobs[i].input = input;
            jobs[i].window_base = i * kBankBytes;
        }
        m.assign(std::move(jobs));
        ASSERT_EQ(m.run_parallel().status[3], LaneStatus::Done);
    } // the first batch's program is freed here

    const Program second = looping_program();
    std::vector<JobSpec> jobs(1);
    jobs[0].program = &second;
    jobs[0].input = input;
    m.assign(std::move(jobs));
    EXPECT_EQ(m.run_parallel().status[0], LaneStatus::Done);
    for (unsigned i = 1; i < 4; ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        try {
            m.lane(i).run();
            FAIL() << "expected an idle lane to have no program";
        } catch (const UdpError &e) {
            EXPECT_NE(std::string(e.what()).find("no program loaded"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(MachineEnergy, EnergyScalesWithActiveLanes)
{
    const Program prog = [] {
        ProgramBuilder b;
        const StateId s = b.add_state();
        b.on_majority(s, s);
        b.set_entry(s);
        return b.build();
    }();
    const Bytes input(4096, 'q');

    auto run_with = [&](unsigned lanes) {
        Machine m;
        std::vector<JobSpec> jobs(lanes);
        for (auto &j : jobs) {
            j.program = &prog;
            j.input = input;
        }
        m.assign(std::move(jobs));
        m.run_parallel();
        return m.last_run_energy_j();
    };
    const double e1 = run_with(1);
    const double e32 = run_with(32);
    EXPECT_GT(e32, e1); // more active lanes, more energy
}

} // namespace
} // namespace udp
