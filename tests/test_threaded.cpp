/**
 * @file
 * Interpreter equivalence properties (docs/PERFORMANCE.md).
 *
 * The simulator has two host interpreters for one ISA: the threaded-code
 * engine over a shared `CompiledProgram`, and the decode-per-step
 * reference in lane.cpp, which also runs every lane with a tracer
 * attached.  For every kernel in src/kernels they must be
 * observationally identical: bit-identical `LaneStats`, registers,
 * outputs, accepts, and memory extracts.  Only host time may differ.
 *
 * Two properties are pinned as digests, because the tier that used to
 * cross-check them is gone:
 *  - the reference's trace-event stream and profile aggregates for
 *    every kernel (what a tracer observes);
 *  - the full trap record (stats at the trap cycle included) on a
 *    malformed-image corpus, in DFA and NFA mode, poisoned aux words
 *    included.  Both interpreters must produce it identically, fault
 *    detail text and all (docs/ROBUSTNESS.md).
 *
 * A seeded fuzz extends the corpus: 2,000 copies of the kernels with
 * 1-3 random bits flipped anywhere in their dispatch and action images
 * must run identically on both interpreters.
 *
 * NFA mode has one interpreter (Lane::run_nfa) on either backend, so
 * its cases compare a bare lane's inline memory path with the Legacy
 * backend's per-byte path, and run as robustness cases under the
 * sanitizers.
 *
 * Also pinned here: the `step_once` entry, also on a lane that switches
 * interpreter between steps, run_lockstep, also with lanes on different
 * interpreters, the `set_sim_backend` toggle across every run entry
 * point, the content-keyed shared compiled-image cache and the one image
 * every lane of a wave binds at load, DFA waves run serially and on the
 * thread pool, and NFA waves on the thread pool.  This file runs under
 * the CI sanitizer jobs.
 */
#include "assembler/builder.hpp"
#include "baselines/dictionary.hpp"
#include "baselines/histogram.hpp"
#include "baselines/huffman.hpp"
#include "baselines/snappy.hpp"
#include "core/decoded_program.hpp"
#include "core/machine.hpp"
#include "core/threaded_program.hpp"
#include "core/trace.hpp"
#include "kernels/csv.hpp"
#include "kernels/dictionary.hpp"
#include "kernels/histogram.hpp"
#include "kernels/huffman.hpp"
#include "kernels/pattern.hpp"
#include "kernels/snappy.hpp"
#include "kernels/trigger.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace {

using namespace udp;
using namespace udp::kernels;

/// Restore the process default (Threaded) when a test exits early.
struct BackendGuard {
    ~BackendGuard() { set_sim_backend(SimBackend::Threaded); }
};

runtime::JobResult
run_backend(const runtime::JobPlan &plan, SimBackend backend,
            std::uint64_t max_cycles = ~std::uint64_t{0})
{
    BackendGuard guard;
    set_sim_backend(backend);
    Machine m(AddressingMode::Restricted);
    runtime::JobResult res = runtime::run_job_on(m, 0, 0, plan,
                                                 max_cycles);
    // The toggle must control which image the lane actually bound.
    EXPECT_EQ(m.lane(0).compiled() != nullptr,
              backend == SimBackend::Threaded);
    EXPECT_EQ(m.lane(0).fast_path(), backend == SimBackend::Threaded);
    return res;
}

/// Full architectural equality: stats, registers, output, extracts,
/// accepts, and the complete trap record.
void
expect_identical(const runtime::JobResult &a, const runtime::JobResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.extracts, b.extracts);
    EXPECT_EQ(a.fault.code, b.fault.code);
    EXPECT_EQ(a.fault.cycle, b.fault.cycle);
    EXPECT_EQ(a.fault.state_base, b.fault.state_base);
    ASSERT_EQ(a.accepts.size(), b.accepts.size());
    for (std::size_t i = 0; i < a.accepts.size(); ++i) {
        EXPECT_EQ(a.accepts[i].stream_bit_pos, b.accepts[i].stream_bit_pos);
        EXPECT_EQ(a.accepts[i].id, b.accepts[i].id);
    }
}

/// After `sched.run(jobs)` returned `rep`: every lane of the last wave
/// is still loaded, and under the Threaded backend each bound the one
/// shared image of the jobs' program; under Legacy, none.
void
expect_last_wave_shares_image(runtime::Scheduler &sched,
                              const runtime::ScheduleReport &rep,
                              const std::vector<runtime::JobPlan> &jobs,
                              SimBackend backend)
{
    ASSERT_FALSE(rep.waves.empty());
    const CompiledProgram *want = backend == SimBackend::Threaded
                                      ? shared_compiled(*jobs[0].program).get()
                                      : nullptr;
    const unsigned last = static_cast<unsigned>(rep.waves.size() - 1);
    unsigned lanes = 0;
    for (const auto &jr : rep.jobs) {
        if (jr.wave != last)
            continue;
        EXPECT_EQ(sched.machine().lane(jr.lane).compiled(), want)
            << "lane " << jr.lane;
        ++lanes;
    }
    EXPECT_GT(lanes, 0u);
}

/// FNV-1a 64 over a stream of integers and strings.  The pinned digests
/// below were captured with exactly this mixing; changing it changes
/// every pin.
struct Digest {
    std::uint64_t h = 0xCBF29CE484222325ull;
    void byte(std::uint8_t b) {
        h ^= b;
        h *= 0x100000001B3ull;
    }
    void mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void mix(const std::string &s) {
        mix(s.size());
        for (const char ch : s)
            byte(static_cast<std::uint8_t>(ch));
    }
    void mix(const LaneStats &s) {
        for (const std::uint64_t v :
             {s.cycles, s.dispatches, s.sig_misses, s.actions, s.mem_reads,
              s.mem_writes, s.dispatch_reads, s.stall_cycles, s.stream_bits,
              s.output_bytes, s.accepts})
            mix(v);
    }
};

/// Look up a pinned digest by name (fails the test when missing).
std::uint64_t
pinned(const std::map<std::string, std::uint64_t> &pins,
       const std::string &name)
{
    const auto it = pins.find(name);
    EXPECT_NE(it, pins.end()) << "no pinned digest for " << name;
    return it == pins.end() ? 0 : it->second;
}

/// One named plan per kernel in src/kernels (all ten workloads).
std::vector<std::pair<std::string, runtime::JobPlan>>
kernel_plans()
{
    std::vector<std::pair<std::string, runtime::JobPlan>> plans;

    { // CSV parsing
        const std::string text = workloads::crimes_csv(40);
        plans.emplace_back(
            "csv", csv_kernel_spec().make_job(
                       Bytes(text.begin(), text.end())));
    }

    const Bytes corpus = workloads::text_corpus(8 * 1024, 0.5, 21);
    const auto code = baselines::build_huffman(corpus);
    { // Huffman encode
        plans.emplace_back("huffman_enc",
                           huffman_encoder_spec(code).make_job(corpus));
    }
    { // Huffman decode (variable-symbol dispatch)
        Bytes enc = baselines::huffman_encode(corpus, code);
        enc.push_back(0);
        enc.push_back(0);
        plans.emplace_back(
            "huffman_dec",
            huffman_decoder_spec(code, VarSymDesign::SsRef)
                .make_job(std::move(enc)));
    }

    { // Dictionary and dictionary-RLE
        const auto rows = workloads::zipf_attribute(800, 24);
        const auto base = baselines::dictionary_encode(rows);
        plans.emplace_back(
            "dictionary", dictionary_kernel_spec(base.dict, false)
                              .make_job(dict_input(rows)));

        const auto rle_rows = workloads::runny_attribute(800, 24, 5.0);
        const auto rle_base = baselines::dictionary_encode(rle_rows);
        plans.emplace_back(
            "dictionary_rle", dictionary_kernel_spec(rle_base.dict, true)
                                  .make_job(dict_input(rle_rows)));
    }

    { // Histogram (fp64 binning)
        const auto xs = workloads::fp_values(2000, 0);
        auto h = baselines::Histogram::uniform(10, 41.2, 42.5);
        plans.emplace_back("histogram",
                           histogram_kernel_spec(h.edges())
                               .make_job(pack_fp_stream(xs)));
    }

    { // Snappy compress + decompress
        const Bytes block = workloads::text_corpus(12 * 1024, 0.5, 22);
        plans.emplace_back("snappy_comp",
                           snappy_compress_spec().make_job(block));

        const Bytes comp = baselines::snappy_compress(block);
        std::size_t pos = 0;
        while (comp[pos] & 0x80)
            ++pos;
        ++pos; // skip the length varint, as the kernel ABI expects
        plans.emplace_back(
            "snappy_decomp",
            snappy_decompress_spec().make_job(
                Bytes(comp.begin() + pos, comp.end())));
    }

    { // Signal triggering
        const Bytes packed = workloads::waveform(20'000, 13);
        plans.emplace_back("trigger", trigger_kernel_spec(6).make_job(
                                          samples_from_bits(packed)));
    }

    { // Pattern matching: aDFA groups and NFA groups (run_nfa path)
        const auto pats = workloads::nids_patterns(16, false);
        const Bytes payload = workloads::packet_payloads(16 * 1024, pats);
        const auto adfa = pattern_group_specs(pats, FaModel::Adfa, 4);
        for (std::size_t g = 0; g < adfa.size(); ++g)
            plans.emplace_back("pattern_adfa_g" + std::to_string(g),
                               adfa[g].make_job(payload));

        const auto cpats = workloads::nids_patterns(8, true);
        const Bytes cpay = workloads::packet_payloads(8 * 1024, cpats);
        const auto nfa = pattern_group_specs(cpats, FaModel::Nfa, 2);
        for (std::size_t g = 0; g < nfa.size(); ++g)
            plans.emplace_back("pattern_nfa_g" + std::to_string(g),
                               nfa[g].make_job(cpay));
    }

    return plans;
}

/// Digest of everything a tracer observes in one run of `plan` on
/// lane 0: the trace-event stream (with its lifetime and dropped
/// counts) and the per-state and per-opcode aggregates.
std::uint64_t
observer_digest(const runtime::JobPlan &plan)
{
    Machine m(AddressingMode::Restricted);
    Tracer tracer;
    m.set_tracer(&tracer);
    const auto res = runtime::run_job_on(m, 0, 0, plan);
    EXPECT_FALSE(m.lane(0).fast_path()) << "observed lanes run the reference";
    EXPECT_GT(res.stats.cycles, 0u);

    Digest d;
    d.mix(tracer.total(0));
    d.mix(tracer.dropped(0));
    for (const TraceEvent &e : tracer.events(0)) {
        d.mix(static_cast<std::uint64_t>(e.kind));
        d.mix(e.cycle);
        d.mix(e.a);
        d.mix(e.b);
        d.mix(e.lane);
    }
    const Profile prof = tracer.profile();
    const std::map<std::uint32_t, StateProfile> states(
        prof.states().begin(), prof.states().end());
    for (const auto &[base, sp] : states) {
        d.mix(base);
        d.mix(sp.visits);
        d.mix(sp.cycles);
        d.mix(sp.sig_misses);
        d.mix(sp.stall_cycles);
    }
    for (const auto &[op, ap] : prof.actions()) {
        d.mix(static_cast<std::uint64_t>(op));
        d.mix(ap.count);
        d.mix(ap.cycles);
    }
    return d.h;
}

/// Digest of a run's full trap record: terminal status, every LaneStats
/// counter, and the fault's code, cycle, state base and detail text.
std::uint64_t
trap_digest(const runtime::JobResult &r)
{
    Digest d;
    d.mix(static_cast<std::uint64_t>(r.status));
    d.mix(r.stats);
    d.mix(static_cast<std::uint64_t>(r.fault.code));
    d.mix(r.fault.cycle);
    d.mix(r.fault.state_base);
    d.mix(r.fault.detail);
    return d.h;
}

/// Deterministic malformed-image corpus over `spec`: every
/// FaultInjector mutation kind, driven by one seeded stream.
std::vector<std::pair<std::string, runtime::JobPlan>>
fault_corpus(const runtime::KernelSpec &spec, const Bytes &data,
             std::uint64_t seed, const std::string &prefix)
{
    std::vector<std::pair<std::string, runtime::JobPlan>> corpus;
    runtime::FaultInjector inj(seed);
    {
        auto p = spec.make_job(data);
        inj.poison_program(p);
        corpus.emplace_back(prefix + "poison_program", std::move(p));
    }
    {
        auto p = spec.make_job(data);
        inj.poison_dispatch_word(
            p, inj.next_below(p.program->dispatch.size()));
        corpus.emplace_back(prefix + "poison_dispatch_word", std::move(p));
    }
    for (int i = 0; i < 4; ++i) {
        auto p = spec.make_job(data);
        inj.poison_action_word(p,
                               inj.next_below(p.program->actions.size()));
        corpus.emplace_back(prefix + "poison_action_" + std::to_string(i),
                            std::move(p));
    }
    for (int i = 0; i < 8; ++i) {
        auto p = spec.make_job(data);
        inj.flip_program_bit(p);
        corpus.emplace_back(prefix + "flip_bit_" + std::to_string(i),
                            std::move(p));
    }
    for (int i = 0; i < 3; ++i) {
        auto p = spec.make_job(data);
        inj.corrupt_input(p, 4);
        corpus.emplace_back(prefix + "corrupt_input_" + std::to_string(i),
                            std::move(p));
    }
    {
        auto p = spec.make_job(data);
        inj.truncate_input(p, data.size() / 2);
        corpus.emplace_back(prefix + "truncate_half", std::move(p));
    }
    {
        auto p = spec.make_job(data);
        inj.truncate_input(p, 1);
        corpus.emplace_back(prefix + "truncate_one", std::move(p));
    }
    {
        auto p = spec.make_job(data);
        inj.force_trap(p, 100);
        corpus.emplace_back(prefix + "force_trap_100", std::move(p));
    }
    return corpus;
}

/// The DFA corpus: the CSV kernel (run / run_steps entries).
std::vector<std::pair<std::string, runtime::JobPlan>>
dfa_fault_corpus()
{
    const std::string text = workloads::crimes_csv(30);
    const Bytes data(text.begin(), text.end());
    auto corpus = fault_corpus(csv_kernel_spec(), data, 0xC0FFEEu, "");

    // The entry state's aux word: every step's `common` scan decodes it
    // before fetching a symbol, so the very first step faults.
    runtime::FaultInjector inj(0xC0FFEEu);
    auto p = csv_kernel_spec().make_job(data);
    inj.poison_dispatch_word(p, p.program->entry - 1);
    corpus.emplace_back("poison_entry_aux", std::move(p));
    return corpus;
}

/// The NFA corpus: one complex-regex NFA group (the run_nfa entry).
std::vector<std::pair<std::string, runtime::JobPlan>>
nfa_fault_corpus()
{
    const auto pats = workloads::nids_patterns(8, false);
    const Bytes pay = workloads::packet_payloads(8 * 1024, pats, 0.1);
    const auto nfa = pattern_group_specs(pats, FaModel::Nfa, 2);
    auto corpus = fault_corpus(nfa[0], pay, 0xDECAFu, "nfa_");

    // Random mutants mostly land on words the automaton never fetches;
    // these hit the fetch paths run_nfa actually takes.
    runtime::FaultInjector inj(0xDECAFu);
    { // Every arc action traps at its first fetch.
        auto p = nfa[0].make_job(pay);
        for (std::size_t a = 0; a < p.program->actions.size(); ++a)
            inj.poison_action_word(p, a);
        corpus.emplace_back("nfa_poison_every_action", std::move(p));
    }
    { // Every state's labeled slot for the first input symbol.
        auto p = nfa[0].make_job(pay);
        const std::size_t sym = pay[0];
        const auto states = p.program->states;
        for (const StateMeta &s : states)
            if (sym <= s.max_symbol &&
                s.base + sym < p.program->dispatch.size())
                inj.poison_dispatch_word(p, s.base + sym);
        corpus.emplace_back("nfa_poison_first_dispatch", std::move(p));
    }
    { // Every aux word: activating a state decodes its whole chain.
        auto p = nfa[0].make_job(pay);
        const auto states = p.program->states;
        for (const StateMeta &s : states)
            for (unsigned k = 1; k <= s.aux_count; ++k)
                inj.poison_dispatch_word(p, s.base - k);
        corpus.emplace_back("nfa_poison_every_aux", std::move(p));
    }
    return corpus;
}

TEST(ThreadedCode, EveryKernelBitIdenticalAcrossBothBackends)
{
    for (const auto &[name, plan] : kernel_plans()) {
        SCOPED_TRACE(name);
        const auto threaded = run_backend(plan, SimBackend::Threaded);
        const auto legacy = run_backend(plan, SimBackend::Legacy);
        expect_identical(threaded, legacy);
        // Guard against degenerate plans that would vacuously pass.
        EXPECT_GT(threaded.stats.cycles, 0u) << name;
        EXPECT_EQ(threaded.status, LaneStatus::Done) << name;
    }
}

TEST(ThreadedCode, InstrumentedRunsMatchBareThreadedCounters)
{
    // Attaching a tracer reroutes the lane off the threaded engine onto
    // the reference; the simulated counters must not change for it.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    for (const auto &[name, plan] : kernel_plans()) {
        SCOPED_TRACE(name);
        Machine bare(AddressingMode::Restricted);
        const auto res = runtime::run_job_on(bare, 0, 0, plan);
        EXPECT_TRUE(bare.lane(0).fast_path());

        Machine m(AddressingMode::Restricted);
        Tracer tracer;
        m.set_tracer(&tracer);
        const auto instr = runtime::run_job_on(m, 0, 0, plan);
        EXPECT_FALSE(m.lane(0).fast_path());

        EXPECT_EQ(res.stats, instr.stats);
        EXPECT_EQ(res.output, instr.output);
        EXPECT_GT(tracer.events(0).size(), 0u);
    }
}

TEST(ThreadedCode, UninstrumentedRunsMatchInstrumentedCounters)
{
    // The reference's chain walker gates its trace and profile hooks on
    // the tracer; a traced run must leave the architectural outcome
    // exactly where a bare threaded run puts it.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    for (const auto &[name, plan] : kernel_plans()) {
        SCOPED_TRACE(name);
        Machine bare(AddressingMode::Restricted);
        const auto res = runtime::run_job_on(bare, 0, 0, plan);
        EXPECT_TRUE(bare.lane(0).fast_path());

        Machine traced(AddressingMode::Restricted);
        Tracer tracer;
        traced.set_tracer(&tracer);
        const auto t = runtime::run_job_on(traced, 0, 0, plan);
        EXPECT_FALSE(traced.lane(0).fast_path());

        expect_identical(res, t);
        EXPECT_GT(tracer.total(0), 0u);
        EXPECT_FALSE(tracer.profile().states().empty());
    }
}

TEST(ThreadedCode, ReferenceObserverStreamsMatchPinnedDigests)
{
    // What a tracer observes, for every kernel including
    // the NFA groups, pinned from a build in which a third, since
    // removed, interpreter tier reproduced the reference's streams bit
    // for bit.  An observed lane runs the reference under either
    // backend, so both must reproduce the pins.
    const std::map<std::string, std::uint64_t> pins = {
        {"csv", 0x68c160a8f27eee3aull},
        {"huffman_enc", 0xb162aac6366cd83full},
        {"huffman_dec", 0xb2dff424d388b1e2ull},
        {"dictionary", 0x97fc4d17dd5660b0ull},
        {"dictionary_rle", 0x0cc330bc2e6230d5ull},
        {"histogram", 0x8fbb58a9fdca6af9ull},
        {"snappy_comp", 0x69c40315309e7294ull},
        {"snappy_decomp", 0xa0acc24d186835aeull},
        {"trigger", 0x89f066392d80e8d5ull},
        {"pattern_adfa_g0", 0x3329492c38c2718full},
        {"pattern_adfa_g1", 0x8e818f509fde2801ull},
        {"pattern_adfa_g2", 0x555d21d5cb9edcc4ull},
        {"pattern_adfa_g3", 0x8661074ad7b11dceull},
        {"pattern_nfa_g0", 0xea333706c5598976ull},
        {"pattern_nfa_g1", 0x0e06328187422e05ull},
    };
    BackendGuard guard;
    const auto plans = kernel_plans();
    ASSERT_EQ(plans.size(), pins.size());
    for (const SimBackend backend :
         {SimBackend::Threaded, SimBackend::Legacy}) {
        SCOPED_TRACE(sim_backend_name(backend));
        set_sim_backend(backend);
        for (const auto &[name, plan] : plans) {
            SCOPED_TRACE(name);
            EXPECT_EQ(observer_digest(plan), pinned(pins, name));
        }
    }
}

TEST(ThreadedCode, StepOnceTracksRunStepsAndLegacy)
{
    // step_once is a forced-trap check plus run_steps(1); stepping one
    // dispatch at a time must track run_steps(1) exactly, including
    // interleaved use of both entries — and must track the reference's
    // step_once bit for bit.
    BackendGuard guard;
    const std::string text = workloads::crimes_csv(10);
    const Bytes data(text.begin(), text.end());
    const auto plan = csv_kernel_spec().make_job(data);

    set_sim_backend(SimBackend::Threaded);
    Machine ma(AddressingMode::Restricted);
    Machine mb(AddressingMode::Restricted);
    runtime::stage_job(ma, 0, 0, plan);
    runtime::stage_job(mb, 0, 0, plan);
    Lane &a = ma.lane(0);
    Lane &b = mb.lane(0);
    ASSERT_TRUE(a.fast_path());

    set_sim_backend(SimBackend::Legacy);
    Machine mc(AddressingMode::Restricted);
    runtime::stage_job(mc, 0, 0, plan);
    Lane &c = mc.lane(0);
    ASSERT_FALSE(c.fast_path());

    LaneStatus sa = LaneStatus::Running;
    std::uint64_t steps = 0;
    while (sa == LaneStatus::Running && steps < 1'000'000) {
        sa = a.step_once();
        // Interleave both entries on one lane.
        const LaneStatus sb =
            (steps % 3 == 0) ? b.run_steps(1) : b.step_once();
        const LaneStatus sc = c.step_once();
        ASSERT_EQ(sa, sb) << "threaded entries diverged at step " << steps;
        ASSERT_EQ(sa, sc) << "backends diverged at step " << steps;
        ASSERT_EQ(a.stats(), b.stats()) << "diverged at step " << steps;
        ASSERT_EQ(a.stats(), c.stats()) << "diverged at step " << steps;
        ++steps;
    }
    EXPECT_NE(sa, LaneStatus::Running);
    EXPECT_EQ(a.output(), b.output());
    EXPECT_EQ(a.output(), c.output());
}

TEST(ThreadedCode, StepOnceMatchesRunSteps)
{
    // A lane may change interpreter between any two steps: attaching an
    // observer sends it to the reference, detaching it returns the lane
    // to the threaded engine, which must resume from the architectural
    // state.  Such a lane, alternating step_once with run_steps(1), must
    // track a lane that only ever steps the threaded engine, step for
    // step, on every DFA kernel.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    for (const auto &[name, plan] : kernel_plans()) {
        if (plan.nfa_mode)
            continue; // NFA lanes have no single-step entry
        SCOPED_TRACE(name);
        Machine ma(AddressingMode::Restricted);
        Machine mb(AddressingMode::Restricted);
        runtime::stage_job(ma, 0, 0, plan);
        runtime::stage_job(mb, 0, 0, plan);
        Lane &a = ma.lane(0);
        Lane &b = mb.lane(0);
        Tracer tracer;

        LaneStatus sa = LaneStatus::Running;
        std::uint64_t steps = 0;
        while (sa == LaneStatus::Running && steps < 1'000'000) {
            sa = a.step_once();
            // Runs of three reference steps and four threaded ones, with
            // run_steps(1) every eighth step: every switch in either
            // direction is met from and into both entries.
            const bool observed = steps % 7 < 3;
            b.set_tracer(observed ? &tracer : nullptr);
            ASSERT_EQ(b.fast_path(), !observed);
            const LaneStatus sb =
                (steps % 8 == 0) ? b.run_steps(1) : b.step_once();
            ASSERT_EQ(sa, sb) << "paths diverged at step " << steps;
            ASSERT_EQ(a.stats(), b.stats()) << "diverged at step " << steps;
            ++steps;
        }
        EXPECT_EQ(sa, LaneStatus::Done);
        EXPECT_EQ(a.output(), b.output());
        for (unsigned r = 0; r < kNumScalarRegs; ++r)
            EXPECT_EQ(a.reg(r), b.reg(r)) << "r" << r;
        EXPECT_GT(tracer.total(0), 0u);
    }
}

TEST(ThreadedCode, LockstepBitIdenticalAcrossBothBackends)
{
    BackendGuard guard;
    const std::string text = workloads::crimes_csv(20);
    const Bytes data(text.begin(), text.end());
    const auto plan = csv_kernel_spec().make_job(data);

    const auto run_lockstep = [&](SimBackend backend) {
        set_sim_backend(backend);
        Machine m(AddressingMode::Restricted);
        std::vector<JobSpec> jobs(4);
        for (unsigned i = 0; i < 4; ++i) {
            jobs[i].program = plan.program.get();
            jobs[i].input = plan.input;
            jobs[i].window_base =
                static_cast<ByteAddr>(i) * plan.window_bytes;
            jobs[i].init_regs = plan.init_regs;
        }
        m.assign(std::move(jobs));
        return m.run_lockstep();
    };

    const MachineResult threaded = run_lockstep(SimBackend::Threaded);
    const MachineResult legacy = run_lockstep(SimBackend::Legacy);
    EXPECT_EQ(threaded.wall_cycles, legacy.wall_cycles);
    EXPECT_EQ(threaded.total, legacy.total);
    EXPECT_EQ(threaded.status, legacy.status);
    EXPECT_GT(threaded.total.stall_cycles, 0u)
        << "lockstep arbitration should see bank conflicts here";
}

TEST(ThreadedCode, LockstepBitIdenticalAcrossPaths)
{
    // Lanes of one lockstep run may take different interpreters: an
    // observed lane runs the reference while its neighbours stay on the
    // threaded engine, all arbitrating for the same banks each round.
    // Mixing paths must not move a single stall.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    const std::string text = workloads::crimes_csv(20);
    const Bytes data(text.begin(), text.end());
    const auto plan = csv_kernel_spec().make_job(data);

    const auto run_lockstep = [&](bool observe_odd_lanes) {
        Tracer tracer;
        Machine m(AddressingMode::Restricted);
        std::vector<JobSpec> jobs(4);
        for (unsigned i = 0; i < 4; ++i) {
            jobs[i].program = plan.program.get();
            jobs[i].input = plan.input;
            jobs[i].window_base =
                static_cast<ByteAddr>(i) * plan.window_bytes;
            jobs[i].init_regs = plan.init_regs;
        }
        m.assign(std::move(jobs));
        for (unsigned i = 0; i < 4; ++i) {
            const bool observed = observe_odd_lanes && i % 2 == 1;
            if (observed)
                m.lane(i).set_tracer(&tracer);
            EXPECT_EQ(m.lane(i).fast_path(), !observed) << "lane " << i;
        }
        MachineResult res = m.run_lockstep();
        EXPECT_EQ(tracer.total(1) > 0, observe_odd_lanes);
        return res;
    };

    const MachineResult bare = run_lockstep(false);
    const MachineResult mixed = run_lockstep(true);
    EXPECT_EQ(bare.wall_cycles, mixed.wall_cycles);
    EXPECT_EQ(bare.total, mixed.total);
    EXPECT_EQ(bare.status, mixed.status);
    EXPECT_GT(bare.total.stall_cycles, 0u)
        << "lockstep arbitration should see bank conflicts here";
}

TEST(ThreadedCode, SerialWavesMatchPooledAndLegacy)
{
    // threads == 1 runs every lane of a wave on the calling thread; a
    // thread pool spreads the lanes over workers, every lane sharing one
    // read-only compiled image (TSan in CI proves the sharing
    // race-free).  Both must agree with each other and with a serial
    // reference run.
    BackendGuard guard;
    const std::string text = workloads::crimes_csv(600);
    const Bytes data(text.begin(), text.end());

    const auto run_with = [&](SimBackend backend, unsigned threads) {
        set_sim_backend(backend);
        const auto jobs = runtime::chunk_jobs(
            csv_kernel_spec(), data, 4 * 1024,
            runtime::align_after_delim('\n'));
        runtime::SchedulerOptions opts;
        opts.threads = threads;
        runtime::Scheduler sched(opts);
        return sched.run(jobs);
    };

    const auto serial = run_with(SimBackend::Threaded, 1);
    const auto pooled = run_with(SimBackend::Threaded, 8);
    const auto reference = run_with(SimBackend::Legacy, 1);
    EXPECT_GT(serial.waves.size(), 0u);
    for (const auto *other : {&pooled, &reference}) {
        EXPECT_EQ(serial.total, other->total);
        EXPECT_EQ(serial.wall_cycles, other->wall_cycles);
        ASSERT_EQ(serial.jobs.size(), other->jobs.size());
        for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
            EXPECT_EQ(serial.jobs[i].stats, other->jobs[i].stats);
            EXPECT_EQ(serial.jobs[i].extracts, other->jobs[i].extracts);
        }
    }
}

TEST(ThreadedCode, ThreadedWavesShareOneDecodedImage)
{
    // NFA lanes never batch: each runs the one NFA loop, Lane::run_nfa.
    // Under the threaded backend every lane still binds the same image
    // at load (its arc actions take the inline memory path), so a thread
    // pool shares one image across many lanes at once (TSan in CI proves
    // it race-free); the totals must match a serial run and the Legacy
    // backend bit for bit.
    BackendGuard guard;
    const auto pats = workloads::nids_patterns(8, false);
    const Bytes payload = workloads::packet_payloads(16 * 1024, pats, 0.01);
    const auto spec = pattern_group_specs(pats, FaModel::Nfa, 2)[0];

    const auto run_with = [&](SimBackend backend, unsigned threads) {
        set_sim_backend(backend);
        const auto jobs = runtime::chunk_jobs(spec, payload, 2 * 1024);
        EXPECT_GT(jobs.size(), 1u);
        for (const auto &j : jobs)
            EXPECT_TRUE(j.nfa_mode);
        runtime::SchedulerOptions opts;
        opts.threads = threads;
        runtime::Scheduler sched(opts);
        auto rep = sched.run(jobs);
        expect_last_wave_shares_image(sched, rep, jobs, backend);
        return rep;
    };

    const auto serial = run_with(SimBackend::Threaded, 1);
    const auto pooled = run_with(SimBackend::Threaded, 8);
    const auto reference = run_with(SimBackend::Legacy, 1);
    EXPECT_GT(serial.total.accepts, 0u) << "no match: a vacuous comparison";
    for (const auto *other : {&pooled, &reference}) {
        EXPECT_EQ(serial.total, other->total);
        EXPECT_EQ(serial.wall_cycles, other->wall_cycles);
        ASSERT_EQ(serial.jobs.size(), other->jobs.size());
        for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
            SCOPED_TRACE(i);
            expect_identical(serial.jobs[i], other->jobs[i]);
        }
    }
}

TEST(ThreadedCode, FaultCorpusMatchesPinnedTrapDigests)
{
    // A deterministic malformed-image corpus, in DFA and NFA mode: every
    // mutated plan must reproduce the pinned full trap record (stats
    // included) on both interpreters, fault detail text and all.  The
    // pins were captured from a build in which a third, since removed,
    // interpreter tier agreed bit for bit; the aux-word entries (and
    // poison_program, which poisons the entry state's aux word too) are
    // the reference's records.
    const std::map<std::string, std::uint64_t> pins = {
        {"poison_program", 0x454fede769a8e5d8ull},
        {"poison_dispatch_word", 0x87a97408d874aabfull},
        {"poison_action_0", 0x87a97408d874aabfull},
        {"poison_action_1", 0x87a97408d874aabfull},
        {"poison_action_2", 0x87a97408d874aabfull},
        {"poison_action_3", 0x87a97408d874aabfull},
        {"flip_bit_0", 0x87a97408d874aabfull},
        {"flip_bit_1", 0x87a97408d874aabfull},
        {"flip_bit_2", 0x87a97408d874aabfull},
        {"flip_bit_3", 0x87a97408d874aabfull},
        {"flip_bit_4", 0x87a97408d874aabfull},
        {"flip_bit_5", 0x87a97408d874aabfull},
        {"flip_bit_6", 0x87a97408d874aabfull},
        {"flip_bit_7", 0x87a97408d874aabfull},
        {"corrupt_input_0", 0x29b56a23d968571eull},
        {"corrupt_input_1", 0xd739383bbc45da43ull},
        {"corrupt_input_2", 0xe43631d838a487dcull},
        {"truncate_half", 0xac89aa97d47aba2aull},
        {"truncate_one", 0x2b8ebe92f7355828ull},
        {"force_trap_100", 0x3cb381939c906fa3ull},
        {"poison_entry_aux", 0x454fede769a8e5d8ull},
        {"nfa_poison_program", 0xe9a5d29009365249ull},
        {"nfa_poison_dispatch_word", 0xd3560beb374c949cull},
        {"nfa_poison_action_0", 0x5fa3463876bf80aaull},
        {"nfa_poison_action_1", 0x4f57274e443b2b9dull},
        {"nfa_poison_action_2", 0xd03b2539bf29ff67ull},
        {"nfa_poison_action_3", 0xd03b2539bf29ff67ull},
        {"nfa_flip_bit_0", 0x2206ae54dc27c666ull},
        {"nfa_flip_bit_1", 0xd3560beb374c949cull},
        {"nfa_flip_bit_2", 0x1190ec976d0d3903ull},
        {"nfa_flip_bit_3", 0xd3560beb374c949cull},
        {"nfa_flip_bit_4", 0xd3560beb374c949cull},
        {"nfa_flip_bit_5", 0x130e054c78f4b278ull},
        {"nfa_flip_bit_6", 0x33b2d059b30ea9b9ull},
        {"nfa_flip_bit_7", 0xd3560beb374c949cull},
        {"nfa_corrupt_input_0", 0xd3560beb374c949cull},
        {"nfa_corrupt_input_1", 0xd3560beb374c949cull},
        {"nfa_corrupt_input_2", 0x3f2b9094d1b5d80aull},
        {"nfa_truncate_half", 0x1cb6baf28fbf97e1ull},
        {"nfa_truncate_one", 0xe062c3c0b16996ecull},
        {"nfa_force_trap_100", 0xe39f30fd77d2a8fcull},
        {"nfa_poison_every_action", 0xd03b2539bf29ff67ull},
        {"nfa_poison_first_dispatch", 0xe9a5d29009365249ull},
        {"nfa_poison_every_aux", 0x2ff71f7b37011c11ull},
    };

    // Bound runaway mutants: a flipped bit can loop; the watchdog cut
    // must land on the same cycle on both interpreters.
    constexpr std::uint64_t kBudget = 2'000'000;
    std::size_t checked = 0;
    bool saw_dfa_fault = false;
    bool saw_nfa_fault = false;
    for (const auto &corpus : {dfa_fault_corpus(), nfa_fault_corpus()}) {
        for (const auto &[name, plan] : corpus) {
            SCOPED_TRACE(name);
            const auto threaded =
                run_backend(plan, SimBackend::Threaded, kBudget);
            const auto legacy =
                run_backend(plan, SimBackend::Legacy, kBudget);
            EXPECT_EQ(trap_digest(threaded), pinned(pins, name));
            ++checked;
            expect_identical(threaded, legacy);
            EXPECT_EQ(threaded.fault.detail, legacy.fault.detail);
            const bool faulted = threaded.status == LaneStatus::Faulted;
            (plan.nfa_mode ? saw_nfa_fault : saw_dfa_fault) |= faulted;
        }
    }
    EXPECT_EQ(checked, pins.size());
    EXPECT_TRUE(saw_dfa_fault && saw_nfa_fault)
        << "corpus never trapped: not exercising the fault paths at all";
}

TEST(ThreadedCode, FaultCodesAgreeAcrossPaths)
{
    // A corrupt word on the *taken* path must trap with the same
    // terminal status and FaultCode on both interpreters
    // (docs/ROBUSTNESS.md).
    BackendGuard guard;
    const auto make = [] {
        ProgramBuilder b;
        const StateId s = b.add_state();
        b.on_symbol(s, 'a', s,
                    b.add_block({act_imm(Opcode::Addi, 1, 1, 1)}));
        b.set_entry(s);
        return b.build();
    };

    struct Case {
        const char *name;
        Program prog;
        FaultCode expect;
    };
    std::vector<Case> cases;
    { // Reserved transition type on the arc the input drives into.
        Program p = make();
        p.dispatch[p.entry + 'a'] = Word{7u} << 8;
        cases.push_back({"poisoned dispatch", std::move(p),
                         FaultCode::BadDispatch});
    }
    { // Undefined opcode in the taken arc's action block.
        Program p = make();
        const Transition t = decode_transition(p.dispatch[p.entry + 'a']);
        const std::size_t addr =
            t.attach_mode == AttachMode::Direct
                ? std::size_t{t.attach}
                : std::size_t{p.init_action_base} +
                      (std::size_t{t.attach} << p.init_action_scale);
        p.actions.at(addr) = Word{0x7Fu} << 25;
        cases.push_back({"poisoned actions", std::move(p),
                         FaultCode::BadAction});
    }

    const Bytes input(8, 'a');
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        for (const SimBackend backend :
             {SimBackend::Threaded, SimBackend::Legacy}) {
            SCOPED_TRACE(sim_backend_name(backend));
            set_sim_backend(backend);
            LocalMemory mem;
            Lane lane(0, mem);
            lane.load(c.prog);
            lane.set_input(input);
            EXPECT_EQ(lane.run(), LaneStatus::Faulted);
            EXPECT_EQ(lane.fault().code, c.expect);
        }
    }
}

TEST(ThreadedCode, NfaTargetPastTheImageFaultsOnBothBackends)
{
    // An arc whose target lies past the dispatch image is no state: both
    // NFA interpreters must trap BadDispatch with the identical record
    // instead of indexing past their activation stamps (ASan in CI).
    const auto cpats = workloads::nids_patterns(8, true);
    auto plan = pattern_group_specs(cpats, FaModel::Nfa, 2)[0].make_job(
        workloads::packet_payloads(8 * 1024, cpats));
    auto prog = std::make_shared<Program>(*plan.program);
    ASSERT_EQ(prog->init_dispatch_base, 0u);
    ASSERT_LT(prog->dispatch.size(), std::size_t{4095});
    for (Word &w : prog->dispatch) {
        Transition t;
        try {
            t = decode_transition(w);
        } catch (const UdpError &) {
            continue; // not a transition word
        }
        if (t.type == TransitionType::Labeled) {
            t.target = 4095; // the largest 12-bit target
            w = encode_transition(t);
        }
    }
    plan.program = prog;
    plan.compiled = nullptr; // lanes resolve the mutated image on load

    const auto threaded = run_backend(plan, SimBackend::Threaded);
    const auto legacy = run_backend(plan, SimBackend::Legacy);
    EXPECT_EQ(threaded.status, LaneStatus::Faulted);
    EXPECT_EQ(threaded.fault.code, FaultCode::BadDispatch);
    expect_identical(threaded, legacy);
    EXPECT_EQ(threaded.fault.detail, legacy.fault.detail);
}

TEST(ThreadedCode, BitFlippedImagesAgreeAcrossInterpreters)
{
    // Seeded differential fuzz: flip 1-3 random bits anywhere in one
    // kernel's dispatch and action images and run the damaged program
    // on both interpreters under a cycle cap.  They must agree on the
    // whole record, fault detail included.  A divergence is an engine
    // bug: the failing case names its kernel and case number, and the
    // fixed seed replays it.
    constexpr unsigned kCases = 2000;
    constexpr std::uint64_t kCycleCap = 20'000;
    const auto plans = kernel_plans();
    runtime::FaultInjector rng(0xB17F'11D5ull);
    unsigned faulted = 0, finished = 0;
    for (unsigned c = 0; c < kCases && !HasFailure(); ++c) {
        const auto &[name, base] = plans[rng.next_below(plans.size())];
        auto prog = std::make_shared<Program>(*base.program);
        const std::size_t words = prog->dispatch.size() + prog->actions.size();
        const unsigned flips = 1 + static_cast<unsigned>(rng.next_below(3));
        for (unsigned f = 0; f < flips; ++f) {
            const std::size_t at = rng.next_below(words);
            Word &w = at < prog->dispatch.size()
                          ? prog->dispatch[at]
                          : prog->actions[at - prog->dispatch.size()];
            w ^= Word{1} << rng.next_below(32);
        }
        runtime::JobPlan plan = base;
        plan.program = prog;
        plan.compiled = nullptr; // a stale image would run the original

        SCOPED_TRACE(name + " case " + std::to_string(c));
        const auto threaded =
            run_backend(plan, SimBackend::Threaded, kCycleCap);
        const auto legacy = run_backend(plan, SimBackend::Legacy, kCycleCap);
        expect_identical(threaded, legacy);
        EXPECT_EQ(threaded.fault.detail, legacy.fault.detail);
        faulted += threaded.status == LaneStatus::Faulted;
        finished += threaded.status == LaneStatus::Done ||
                    threaded.status == LaneStatus::Reject;
    }
    // Both outcomes must be common, or the comparison proves little.
    EXPECT_GE(faulted * 10, kCases) << faulted << " of " << kCases;
    EXPECT_GE(finished * 10, kCases) << finished << " of " << kCases;
}

TEST(ThreadedCode, WatchdogCutsEveryBackendAtTheSameCycle)
{
    // DFA mode (run) and NFA mode (run_nfa) alike.
    const std::string text = workloads::crimes_csv(40);
    const auto dfa =
        csv_kernel_spec().make_job(Bytes(text.begin(), text.end()));
    const auto cpats = workloads::nids_patterns(8, true);
    const auto nfa = pattern_group_specs(cpats, FaModel::Nfa, 2)[0].make_job(
        workloads::packet_payloads(8 * 1024, cpats));
    ASSERT_TRUE(nfa.nfa_mode);

    for (const auto *plan : {&dfa, &nfa}) {
        SCOPED_TRACE(plan->nfa_mode ? "nfa" : "dfa");
        const auto threaded = run_backend(*plan, SimBackend::Threaded, 2'000);
        const auto legacy = run_backend(*plan, SimBackend::Legacy, 2'000);
        EXPECT_EQ(threaded.status, LaneStatus::TimedOut);
        expect_identical(threaded, legacy);
    }
}

TEST(ThreadedCode, SharedCacheReturnsOneImagePerProgramContent)
{
    const Program prog = csv_parser_program();
    const auto a = shared_compiled(prog);
    const auto b = shared_compiled(prog);
    EXPECT_EQ(a.get(), b.get());

    // A content-identical copy maps to the same image; the cache is
    // keyed by fingerprint, not address.
    const Program copy = prog;
    EXPECT_EQ(shared_compiled(copy).get(), a.get());
    EXPECT_EQ(a->fingerprint(), program_fingerprint(copy));

    // Mutated content gets its own image.
    Program other = prog;
    other.dispatch[other.entry] ^= 1u;
    EXPECT_NE(shared_compiled(other).get(), a.get());
}

TEST(ThreadedCode, WavesAndLanesShareOneCompiledImage)
{
    // Every lane the scheduler stages a chunk on must bind the exact
    // same CompiledProgram instance, which each resolves at load.
    BackendGuard guard;
    set_sim_backend(SimBackend::Threaded);
    const std::string text = workloads::crimes_csv(80);
    const Bytes data(text.begin(), text.end());
    const auto jobs = runtime::chunk_jobs(
        csv_kernel_spec(), data, 1024, runtime::align_after_delim('\n'));
    ASSERT_GT(jobs.size(), 1u);
    runtime::Scheduler sched;
    const auto rep = sched.run(jobs);
    expect_last_wave_shares_image(sched, rep, jobs, SimBackend::Threaded);
}

TEST(ThreadedCode, ToggleControlsEveryRunEntryPoint)
{
    // load/run/run_steps/step_once must all honor set_sim_backend
    // consistently — no entry may silently run another interpreter than
    // the toggle and the attached observers select.
    BackendGuard guard;
    const Program prog = csv_parser_program();
    const std::string text = workloads::crimes_csv(5);
    const Bytes input(text.begin(), text.end());

    LocalMemory mem;
    Lane lane(0, mem);

    set_sim_backend(SimBackend::Legacy);
    lane.load(prog);
    EXPECT_EQ(lane.compiled(), nullptr);
    EXPECT_FALSE(lane.fast_path());

    set_sim_backend(SimBackend::Threaded);
    lane.load(prog);
    EXPECT_NE(lane.compiled(), nullptr);
    EXPECT_TRUE(lane.fast_path());

    // An observer sends the lane to the reference; detaching it returns
    // the lane to the threaded engine.
    Tracer tracer;
    lane.set_tracer(&tracer);
    EXPECT_FALSE(lane.fast_path());
    lane.set_tracer(nullptr);
    EXPECT_TRUE(lane.fast_path());

    // Each entry point, each backend: identical architectural outcome.
    struct Outcome {
        LaneStats stats;
        Bytes output;
    };
    const auto run_entry = [&](SimBackend backend, int entry) {
        set_sim_backend(backend);
        LocalMemory lm;
        Lane ln(0, lm);
        ln.load(prog);
        ln.set_input(input);
        EXPECT_EQ(ln.compiled() != nullptr,
                  backend == SimBackend::Threaded);
        LaneStatus st = LaneStatus::Running;
        switch (entry) {
        case 0:
            st = ln.run();
            break;
        case 1:
            while (st == LaneStatus::Running)
                st = ln.run_steps(7);
            break;
        default:
            while (st == LaneStatus::Running)
                st = ln.step_once();
            break;
        }
        EXPECT_EQ(st, LaneStatus::Done);
        ln.finish_output();
        return Outcome{ln.stats(), ln.output()};
    };

    const Outcome ref = run_entry(SimBackend::Threaded, 0);
    EXPECT_GT(ref.stats.cycles, 0u);
    for (const SimBackend backend :
         {SimBackend::Legacy, SimBackend::Threaded})
        for (int entry = 0; entry < 3; ++entry) {
            SCOPED_TRACE(std::string(sim_backend_name(backend)) +
                         " entry " + std::to_string(entry));
            const Outcome got = run_entry(backend, entry);
            EXPECT_EQ(got.stats, ref.stats);
            EXPECT_EQ(got.output, ref.output);
        }
}

TEST(ThreadedCode, DisassembleCompiledListsStatesArcsAndOps)
{
    const auto cp = shared_compiled(csv_parser_program());
    const std::string text = disassemble_compiled(*cp);
    // Eyeballable next to disassemble_state output: state headers with
    // full word addresses, per-symbol arc lines, and the op stream.
    EXPECT_NE(text.find("state @0x"), std::string::npos);
    EXPECT_NE(text.find("miss:"), std::string::npos);
    EXPECT_NE(text.find("ops:"), std::string::npos);
    EXPECT_NE(text.find("take -> @0x"), std::string::npos);
    EXPECT_NE(text.find("<trap: fetch out of range>"), std::string::npos);
    EXPECT_GT(cp->op_count(), 0u);
    EXPECT_GT(cp->num_states(), 0u);
}

} // namespace
