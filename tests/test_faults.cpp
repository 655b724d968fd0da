/**
 * @file
 * Fault containment tests (docs/ROBUSTNESS.md).
 *
 * Three layers: the malformed-image corpus (corrupt programs must trap
 * with the right structured FaultCode, never escape as host exceptions,
 * down both interpreter paths); the lane-level watchdog and forced-trap
 * machinery; and end-to-end containment through the wave Scheduler with
 * the deterministic FaultInjector — serial and threaded backends (this
 * file runs under the CI ThreadSanitizer job).
 */
#include "assembler/builder.hpp"
#include "assembler/textasm.hpp"
#include "baselines/histogram.hpp"
#include "core/decoded_program.hpp"
#include "core/machine.hpp"
#include "core/threaded_program.hpp"
#include "kernels/histogram.hpp"
#include "kernels/trigger.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

namespace udp {
namespace {

using namespace kernels;

/// Restore the default interpreter when a test exits early.
struct BackendGuard {
    ~BackendGuard() { set_sim_backend(SimBackend::Threaded); }
};

/// Both interpreters, the default first.
constexpr SimBackend kBackends[] = {SimBackend::Threaded,
                                    SimBackend::Legacy};

/// Run `prog` over `input` on a fresh lane and expect a trap with
/// `code`, on whichever interpreter is currently selected.
void
expect_fault(const Program &prog, const Bytes &input, FaultCode code)
{
    LocalMemory mem;
    Lane lane(0, mem);
    lane.load(prog);
    lane.set_input(input);
    ASSERT_EQ(lane.run(), LaneStatus::Faulted);
    EXPECT_EQ(lane.fault().code, code);
    EXPECT_EQ(lane.fault().cycle, lane.stats().cycles);
    EXPECT_FALSE(lane.fault().detail.empty());
}

/// A tiny self-looping program the corpus tests mutate.
Program
counting_program()
{
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_symbol(s, 'a', s,
                b.add_block({act_imm(Opcode::Addi, 1, 1, 1)}));
    b.set_entry(s);
    return b.build();
}

// --- Malformed-image corpus ------------------------------------------------

TEST(Malformed, DecoderErrorsCarryFaultCodes)
{
    // The raw word decoders tag their rejections so the lane boundary
    // can classify them without string matching.
    try {
        decode_transition(Word{7u} << 8); // reserved transition type
        FAIL() << "expected decode_transition to reject type 7";
    } catch (const UdpFaultError &e) {
        EXPECT_EQ(e.code(), FaultCode::BadDispatch);
    }
    try {
        decode_action(Word{0x7Fu} << 25); // undefined opcode
        FAIL() << "expected decode_action to reject opcode 0x7f";
    } catch (const UdpFaultError &e) {
        EXPECT_EQ(e.code(), FaultCode::BadAction);
    }
}

TEST(Malformed, CorpusFaultsWithRightCodeOnBothPaths)
{
    BackendGuard guard;
    const Bytes input(16, 'a');

    struct Case {
        const char *name;
        Program prog;
        FaultCode expect;
    };
    std::vector<Case> corpus;

    { // Reserved transition type where the entry dispatch lands.
        Program p = counting_program();
        p.dispatch[p.entry + 'a'] = Word{7u} << 8;
        corpus.push_back({"reserved transition type", std::move(p),
                          FaultCode::BadDispatch});
    }
    { // Transition target that is no state's base.
        Program p = counting_program();
        Transition t = decode_transition(p.dispatch[p.entry + 'a']);
        t.target = static_cast<DispatchAddr>(p.entry + 97);
        p.dispatch[p.entry + 'a'] = encode_transition(t);
        corpus.push_back({"out-of-range state base", std::move(p),
                          FaultCode::BadDispatch});
    }
    { // Undefined opcode in the entry arc's action block.
        Program p = counting_program();
        const Transition t = decode_transition(p.dispatch[p.entry + 'a']);
        ASSERT_NE(t.attach, kNoActions);
        // Resolve the block address the way the lane will (Fig 5c).
        const std::size_t addr =
            t.attach_mode == AttachMode::Direct
                ? std::size_t{t.attach}
                : std::size_t{p.init_action_base} +
                      (std::size_t{t.attach} << p.init_action_scale);
        ASSERT_LT(addr, p.actions.size());
        p.actions[addr] = Word{0x7Fu} << 25;
        corpus.push_back({"undefined opcode", std::move(p),
                          FaultCode::BadAction});
    }
    { // Truncated program: the action chain runs off the image end.
        Program p = counting_program();
        // Drop the terminating word of the last block; the chain walk
        // continues past the truncated image.
        p.actions.resize(p.actions.size() - 1);
        corpus.push_back({"truncated action image", std::move(p),
                          FaultCode::FetchOutOfRange});
    }

    for (const auto &c : corpus) {
        SCOPED_TRACE(c.name);
        for (const SimBackend backend : kBackends) {
            SCOPED_TRACE(sim_backend_name(backend));
            set_sim_backend(backend);
            expect_fault(c.prog, input, c.expect);
        }
    }
}

TEST(Malformed, OversizedEmitlutEntryFaults)
{
    // An EMITLUT table entry claiming more than 15 bytes is a corrupt
    // table, not a crash: BadAction on both paths.
    BackendGuard guard;
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_symbol(s, 'a', s,
                b.add_block({act_imm(Opcode::Emitlut, 0, 0, 0)}));
    b.set_entry(s);
    const Program prog = b.build();
    const Bytes input(4, 'a');

    for (const SimBackend backend : kBackends) {
        SCOPED_TRACE(sim_backend_name(backend));
        set_sim_backend(backend);
        LocalMemory mem;
        Lane lane(0, mem);
        lane.load(prog);
        lane.set_input(input);
        // entry = last_symbol * 16 = 'a' * 16; plant a count of 200.
        mem.write8(ByteAddr{'a'} * 16, 200);
        ASSERT_EQ(lane.run(), LaneStatus::Faulted);
        EXPECT_EQ(lane.fault().code, FaultCode::BadAction);
    }
}

TEST(Malformed, TextasmRejectsMalformedSourceAtTheHost)
{
    // Source-level malformation is host API misuse, caught before any
    // lane runs: a plain UdpError, never a LaneFault.
    EXPECT_THROW(assemble("state s: 'a' ->"), UdpError);
    EXPECT_THROW(assemble(".entry nowhere\nstate s:\n  'a' -> s\n"),
                 UdpError);
    EXPECT_THROW(assemble(R"(
        .symbits 99
        .entry s
        state s:
            'a' -> s
    )"),
                 UdpError);
}

// --- Watchdog and forced traps --------------------------------------------

TEST(LaneFault, WatchdogDistinguishesTimeoutFromDone)
{
    const Program prog = counting_program();
    const Bytes input(4096, 'a');
    LocalMemory mem;
    Lane lane(0, mem);
    lane.load(prog);
    lane.set_input(input);

    // Starved budget: the lane is cut off mid-stream, which used to be
    // indistinguishable from clean completion.
    ASSERT_EQ(lane.run(64), LaneStatus::TimedOut);
    EXPECT_EQ(lane.fault().code, FaultCode::WatchdogTimeout);
    EXPECT_NE(lane.fault().detail.find("cycle budget"), std::string::npos);

    // A full budget completes, and reset clears the fault record.
    lane.hard_reset();
    lane.load(prog);
    lane.set_input(input);
    EXPECT_EQ(lane.run(), LaneStatus::Done);
    EXPECT_EQ(lane.fault().code, FaultCode::None);
    EXPECT_FALSE(lane.fault());
}

TEST(LaneFault, ForcedTrapFiresAtTheArmedCycle)
{
    const Program prog = counting_program();
    const Bytes input(4096, 'a');
    LocalMemory mem;
    Lane lane(0, mem);
    lane.load(prog);
    lane.set_input(input);
    lane.set_forced_trap(100);

    ASSERT_EQ(lane.run(), LaneStatus::Faulted);
    EXPECT_EQ(lane.fault().code, FaultCode::ForcedTrap);
    EXPECT_GE(lane.fault().cycle, 100u);
    // Fires at the first dispatch-step boundary past the armed cycle.
    EXPECT_LT(lane.fault().cycle, 100u + 16u);

    // hard_reset disarms the trap; the rerun completes.
    lane.hard_reset();
    lane.load(prog);
    lane.set_input(input);
    EXPECT_EQ(lane.run(), LaneStatus::Done);
}

TEST(LaneFault, DescribePinsLaneStateAndCycle)
{
    const Program prog = counting_program();
    LocalMemory mem;
    Lane lane(7, mem);
    lane.load(prog);
    const Bytes input(64, 'a');
    lane.set_input(input);
    lane.set_forced_trap(10);
    ASSERT_EQ(lane.run(), LaneStatus::Faulted);

    const std::string d = lane.fault().describe();
    EXPECT_NE(d.find("lane 7"), std::string::npos);
    EXPECT_NE(d.find("forced-trap"), std::string::npos);
    EXPECT_EQ(LaneFault{}.describe(), "no fault");
    EXPECT_EQ(fault_code_name(FaultCode::WatchdogTimeout),
              "watchdog-timeout");
}

// --- End-to-end containment through the Scheduler --------------------------

namespace detail {

std::vector<runtime::JobPlan>
histogram_jobs(std::size_t count)
{
    const auto xs = workloads::fp_values(6'000, 5);
    const auto spec = histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    const Bytes packed = pack_fp_stream(xs);
    const std::size_t shard =
        std::max<std::size_t>(1, ceil_div(packed.size() / 8, count)) * 8;
    return runtime::chunk_jobs(spec, packed, shard);
}

void
expect_job_eq(const runtime::JobResult &a, const runtime::JobResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.extracts, b.extracts);
}

} // namespace detail

TEST(FaultInjection, StreamIsDeterministic)
{
    runtime::FaultInjector a(42), b(42), c(43);
    for (int i = 0; i < 8; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        EXPECT_NE(va, c.next()); // different seed, different stream
    }
    EXPECT_THROW(a.next_below(0), UdpError);
}

TEST(FaultInjection, ProgramMutationsCopyOnWrite)
{
    auto jobs = detail::histogram_jobs(4);
    const auto shared_before = jobs[0].program;
    ASSERT_EQ(jobs[1].program.get(), shared_before.get());

    runtime::FaultInjector inj(1);
    inj.poison_program(jobs[0]);
    // Job 0 got its own mutated copy; job 1 still runs the clean image.
    EXPECT_NE(jobs[0].program.get(), shared_before.get());
    EXPECT_EQ(jobs[1].program.get(), shared_before.get());
    // The plan's image (what run_job_on binds) was re-resolved for the
    // mutated content.
    ASSERT_NE(jobs[0].compiled, nullptr);
    EXPECT_NE(jobs[0].compiled.get(), jobs[1].compiled.get());
    EXPECT_EQ(jobs[0].compiled->fingerprint(),
              program_fingerprint(*jobs[0].program));

    // Each scheduler lane binds the image of the program it runs: the
    // poisoned copy its own, the clean siblings one shared instance.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    runtime::Scheduler sched;
    const auto rep = sched.run(jobs);
    ASSERT_EQ(rep.waves.size(), 1u);
    const auto image = [&](std::size_t j) {
        return sched.machine().lane(rep.jobs[j].lane).compiled();
    };
    ASSERT_NE(image(0), nullptr);
    EXPECT_NE(image(0), image(1));
    EXPECT_EQ(image(0)->fingerprint(),
              program_fingerprint(*jobs[0].program));
    for (std::size_t j = 1; j < jobs.size(); ++j)
        EXPECT_EQ(image(j), shared_compiled(*shared_before).get());
}

TEST(FaultInjection, PoisonedTriggerChunksFaultAtCycleZero)
{
    // poison_program is the guaranteed-fault probe.  The trigger
    // kernel's entry state has an aux chain, which the reference decodes
    // before fetching a symbol: every poisoned chunk must fault
    // BadDispatch at cycle 0 with the identical record on both
    // interpreters, whatever its first sample.
    BackendGuard guard;
    const Bytes samples =
        samples_from_bits(workloads::waveform(64 * 1024, 16, 1));
    auto jobs = runtime::chunk_jobs(trigger_kernel_spec(6), samples, 1024);
    ASSERT_EQ(jobs.size(), 64u);
    runtime::FaultInjector inj(11);
    Machine m(AddressingMode::Restricted);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("chunk " + std::to_string(i));
        inj.poison_program(jobs[i]);
        runtime::JobResult res[2];
        for (int b = 0; b < 2; ++b) {
            set_sim_backend(kBackends[b]);
            res[b] = runtime::run_job_on(m, 0, 0, jobs[i]);
        }
        const runtime::JobResult &threaded = res[0], &legacy = res[1];
        EXPECT_EQ(threaded.status, LaneStatus::Faulted);
        EXPECT_EQ(threaded.fault.code, FaultCode::BadDispatch);
        EXPECT_EQ(threaded.fault.cycle, 0u);
        EXPECT_EQ(threaded.status, legacy.status);
        EXPECT_EQ(threaded.stats, legacy.stats);
        EXPECT_EQ(threaded.fault.code, legacy.fault.code);
        EXPECT_EQ(threaded.fault.cycle, legacy.fault.cycle);
        EXPECT_EQ(threaded.fault.state_base, legacy.fault.state_base);
        EXPECT_EQ(threaded.fault.detail, legacy.fault.detail);
    }
}

TEST(FaultInjection, ContainmentAcrossBackendsAndPaths)
{
    BackendGuard guard;
    for (const SimBackend backend : kBackends) {
        SCOPED_TRACE(sim_backend_name(backend));
        set_sim_backend(backend);
        for (const unsigned threads : {1u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            auto jobs = detail::histogram_jobs(16);
            runtime::SchedulerOptions opts;
            opts.threads = threads;
            runtime::Scheduler clean_sched(opts);
            const auto clean = clean_sched.run(jobs);

            runtime::FaultInjector inj(99);
            inj.poison_program(jobs[7]);
            opts.retry.max_attempts = 2;
            runtime::Scheduler sched(opts);
            const auto rep = sched.run(jobs);

            const auto &bad = rep.jobs[7];
            EXPECT_EQ(bad.status, LaneStatus::Faulted);
            EXPECT_EQ(bad.fault.code, FaultCode::BadDispatch);
            EXPECT_TRUE(bad.quarantined);
            EXPECT_EQ(bad.attempts, 2u);
            EXPECT_EQ(rep.quarantined, 1u);
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (i == 7)
                    continue;
                SCOPED_TRACE("job " + std::to_string(i));
                detail::expect_job_eq(rep.jobs[i], clean.jobs[i]);
            }
        }
    }
}

TEST(FaultInjection, ContainmentUnderThreads)
{
    // Minimal threaded-backend containment case for the TSan job: a
    // poisoned lane trapping while 15 healthy lanes run concurrently.
    auto jobs = detail::histogram_jobs(16);
    runtime::FaultInjector inj(7);
    inj.poison_program(jobs[3]);
    inj.force_trap(jobs[11], 50);

    runtime::SchedulerOptions opts;
    opts.threads = 8;
    runtime::Scheduler sched(opts);
    const auto rep = sched.run(jobs);

    EXPECT_EQ(rep.jobs[3].fault.code, FaultCode::BadDispatch);
    EXPECT_EQ(rep.jobs[11].fault.code, FaultCode::ForcedTrap);
    unsigned done = 0;
    for (const auto &jr : rep.jobs)
        done += jr.status == LaneStatus::Done;
    EXPECT_EQ(done, unsigned(jobs.size()) - 2);
}

TEST(FaultInjection, TransientTrapRecoversThroughRunJobOn)
{
    // trap_attempts=0 disarms the plan's trap entirely for single-lane
    // harnesses; a plain armed trap faults.
    auto jobs = detail::histogram_jobs(2);
    runtime::FaultInjector inj(3);
    inj.force_trap(jobs[0], 40);

    Machine m(AddressingMode::Restricted);
    const auto faulted = runtime::run_job_on(m, 0, 0, jobs[0]);
    EXPECT_EQ(faulted.status, LaneStatus::Faulted);
    EXPECT_EQ(faulted.fault.code, FaultCode::ForcedTrap);
    EXPECT_THROW(runtime::require_done(faulted, "test"), UdpError);

    inj.force_trap(jobs[0], 40, /*attempts=*/0);
    const auto ok = runtime::run_job_on(m, 0, 0, jobs[0]);
    EXPECT_EQ(ok.status, LaneStatus::Done);
    EXPECT_EQ(ok.fault.code, FaultCode::None);
}

TEST(FaultInjection, InputCorruptionIsDeterministicAndContained)
{
    auto jobs_a = detail::histogram_jobs(4);
    auto jobs_b = detail::histogram_jobs(4);

    runtime::FaultInjector ia(1234), ib(1234);
    ia.corrupt_input(jobs_a[1], 5);
    ib.corrupt_input(jobs_b[1], 5);
    EXPECT_EQ(jobs_a[1].input, jobs_b[1].input); // same seed, same bytes
    EXPECT_NE(jobs_a[1].input, detail::histogram_jobs(4)[1].input);

    ia.truncate_input(jobs_a[2], 24);
    EXPECT_EQ(jobs_a[2].input.size(), 24u);

    // Corrupt or short input may change results, but never escapes the
    // job: the wave completes and no host exception crosses run().
    runtime::Scheduler sched;
    const auto rep = sched.run(jobs_a);
    EXPECT_EQ(rep.jobs.size(), jobs_a.size());
    for (const auto &jr : rep.jobs)
        EXPECT_TRUE(jr.status == LaneStatus::Done ||
                    jr.status == LaneStatus::Reject ||
                    jr.status == LaneStatus::Faulted);
}

TEST(FaultInjection, BitFlipsAreSeededAndSurvivable)
{
    // Whatever a random single-bit flip does to the image, the machine
    // survives: the job lands in a terminal state, never a crash.
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
        auto jobs = detail::histogram_jobs(2);
        runtime::FaultInjector inj(seed);
        const std::size_t slot = inj.flip_program_bit(jobs[0]);
        EXPECT_LT(slot, jobs[0].program->dispatch.size());

        runtime::FaultInjector again(seed);
        auto jobs2 = detail::histogram_jobs(2);
        EXPECT_EQ(again.flip_program_bit(jobs2[0]), slot);
        EXPECT_EQ(jobs2[0].program->dispatch, jobs[0].program->dispatch);

        runtime::Scheduler sched;
        const auto rep = sched.run(jobs);
        EXPECT_NE(rep.jobs[0].status, LaneStatus::Running);
        // The healthy sibling is untouched either way.
        EXPECT_EQ(rep.jobs[1].status, LaneStatus::Done);
    }
}

} // namespace
} // namespace udp
