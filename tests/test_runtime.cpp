/**
 * @file
 * Runtime layer tests: wave scheduling equivalences, >64-job runs,
 * threaded-backend determinism, instrumentation neutrality, and the
 * between-batches lane reset (docs/RUNTIME.md).
 */
#include "baselines/csv.hpp"
#include "baselines/dictionary.hpp"
#include "baselines/histogram.hpp"
#include "core/trace.hpp"
#include "etl/loader.hpp"
#include "kernels/csv.hpp"
#include "kernels/dictionary.hpp"
#include "kernels/histogram.hpp"
#include "kernels/trigger.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <random>

using namespace udp;
using namespace udp::runtime;

namespace {

/// Field-by-field LaneStats equality (no operator== on the POD).
void
expect_stats_eq(const LaneStats &a, const LaneStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.sig_misses, b.sig_misses);
    EXPECT_EQ(a.actions, b.actions);
    EXPECT_EQ(a.mem_reads, b.mem_reads);
    EXPECT_EQ(a.mem_writes, b.mem_writes);
    EXPECT_EQ(a.dispatch_reads, b.dispatch_reads);
    EXPECT_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_EQ(a.stream_bits, b.stream_bits);
    EXPECT_EQ(a.output_bytes, b.output_bytes);
    EXPECT_EQ(a.accepts, b.accepts);
}

/// Complete architectural equality of two job results.
void
expect_results_eq(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.status, b.status);
    expect_stats_eq(a.stats, b.stats);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.extracts, b.extracts);
    ASSERT_EQ(a.accepts.size(), b.accepts.size());
    for (std::size_t i = 0; i < a.accepts.size(); ++i)
        EXPECT_EQ(a.accepts[i].stream_bit_pos,
                  b.accepts[i].stream_bit_pos);
}

/// >64 single-bank histogram jobs over a shared fp stream.
std::vector<JobPlan>
histogram_fleet(const KernelSpec &spec, const Bytes &packed,
                std::size_t jobs_wanted)
{
    const std::size_t values = packed.size() / 8;
    const std::size_t shard =
        std::max<std::size_t>(1, ceil_div(values, jobs_wanted)) * 8;
    return chunk_jobs(spec, packed, shard);
}

} // namespace

TEST(Runtime, MultiWaveEqualsConcatenatedSingleWaves)
{
    const auto xs = workloads::fp_values(40'000, 3);
    const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    const Bytes packed = kernels::pack_fp_stream(xs);
    const auto jobs = histogram_fleet(spec, packed, 100);
    ASSERT_GT(jobs.size(), kNumLanes);

    Scheduler all_at_once;
    const ScheduleReport whole = all_at_once.run(jobs);
    ASSERT_EQ(whole.waves.size(), 2u);

    // The same jobs split at the wave boundary and run as two separate
    // scheduled batches must cost exactly the same machine time.
    const std::size_t cut = whole.waves[0].jobs;
    const std::vector<JobPlan> first(jobs.begin(), jobs.begin() + cut);
    const std::vector<JobPlan> second(jobs.begin() + cut, jobs.end());
    Scheduler split;
    const ScheduleReport ra = split.run(first);
    const ScheduleReport rb = split.run(second);
    EXPECT_EQ(whole.wall_cycles, ra.wall_cycles + rb.wall_cycles);
    EXPECT_DOUBLE_EQ(whole.energy_j, ra.energy_j + rb.energy_j);

    for (std::size_t i = 0; i < jobs.size(); ++i)
        expect_results_eq(whole.jobs[i], i < cut ? ra.jobs[i]
                                                 : rb.jobs[i - cut]);
}

TEST(Runtime, OverSixtyFourHistogramJobsMatchBaseline)
{
    const auto xs = workloads::fp_values(50'000, 7);
    auto h = baselines::Histogram::uniform(10, 41.2, 42.5);
    const auto spec = kernels::histogram_kernel_spec(h.edges());
    const auto jobs =
        histogram_fleet(spec, kernels::pack_fp_stream(xs), 150);
    ASSERT_GT(jobs.size(), 2 * std::size_t{kNumLanes});

    Scheduler sched;
    const ScheduleReport rep = sched.run(jobs);
    ASSERT_EQ(rep.waves.size(), 3u);
    EXPECT_EQ(rep.jobs[jobs.size() - 1].wave, 2u);

    std::vector<std::uint64_t> counts(10, 0);
    for (const JobResult &r : rep.jobs) {
        const auto res = kernels::decode_histogram_result(r);
        for (std::size_t b = 0; b < counts.size(); ++b)
            counts[b] += res.counts[b];
    }
    h.add_all(xs);
    EXPECT_EQ(counts, h.counts());
}

TEST(Runtime, OverSixtyFourCsvJobsMatchBaseline)
{
    // Two-bank windows: 32 jobs per wave, so ~70 chunks span 3 waves.
    const std::string text = workloads::crimes_csv(2500);
    const Bytes data(text.begin(), text.end());
    const auto jobs = chunk_jobs(
        kernels::csv_kernel_spec(), data,
        std::max<std::size_t>(1, ceil_div(data.size(), 70)),
        align_after_delim('\n'));
    ASSERT_GT(jobs.size(), 64u);

    Scheduler sched;
    const ScheduleReport rep = sched.run(jobs);
    EXPECT_GE(rep.waves.size(), 3u);

    std::uint64_t rows = 0, fields = 0;
    for (const JobResult &r : rep.jobs) {
        const auto res = kernels::decode_csv_result(r);
        rows += res.rows;
        fields += res.fields;
    }
    const auto base = baselines::parse_csv(data);
    EXPECT_EQ(rows, base.rows);
    EXPECT_EQ(fields, base.fields);
}

TEST(Runtime, ThreadCountDoesNotChangeResults)
{
    const std::string text = workloads::crimes_csv(1200);
    const Bytes data(text.begin(), text.end());
    const auto jobs = chunk_jobs(
        kernels::csv_kernel_spec(), data,
        std::max<std::size_t>(1, ceil_div(data.size(), 40)),
        align_after_delim('\n'));
    ASSERT_GT(jobs.size(), 32u); // at least two waves of 2-bank jobs

    auto run_with = [&](unsigned threads) {
        SchedulerOptions opts;
        opts.threads = threads;
        Scheduler sched(opts);
        return sched.run(jobs);
    };
    const ScheduleReport serial = run_with(1);
    for (const unsigned threads : {4u, 16u}) {
        const ScheduleReport pooled = run_with(threads);
        EXPECT_EQ(pooled.sim_threads, threads);
        EXPECT_EQ(serial.wall_cycles, pooled.wall_cycles);
        EXPECT_DOUBLE_EQ(serial.energy_j, pooled.energy_j);
        expect_stats_eq(serial.total, pooled.total);
        ASSERT_EQ(serial.jobs.size(), pooled.jobs.size());
        for (std::size_t i = 0; i < serial.jobs.size(); ++i)
            expect_results_eq(serial.jobs[i], pooled.jobs[i]);
    }
}

TEST(Runtime, TracerIsNeutralUnderThreads)
{
    const auto xs = workloads::fp_values(20'000, 9);
    const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    const auto jobs =
        histogram_fleet(spec, kernels::pack_fp_stream(xs), 64);

    Machine bare(AddressingMode::Restricted);
    Scheduler plain(bare, {.threads = 1, .retry = {}});
    const ScheduleReport ref = plain.run(jobs);

    Machine instrumented(AddressingMode::Restricted);
    Tracer tracer;
    instrumented.set_tracer(&tracer);
    Scheduler traced(instrumented, {.threads = 4, .retry = {}});
    const ScheduleReport rep = traced.run(jobs);

    EXPECT_EQ(rep.sim_threads, 4u);
    EXPECT_EQ(ref.wall_cycles, rep.wall_cycles);
    EXPECT_DOUBLE_EQ(ref.energy_j, rep.energy_j);
    expect_stats_eq(ref.total, rep.total);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expect_results_eq(ref.jobs[i], rep.jobs[i]);
}

TEST(Runtime, ProfiledRunUsesThreadsAndStaysNeutral)
{
    // Each lane profiles into its own Tracer entry, so a profiled run
    // keeps the pool it asked for, and its results and merged profile
    // equal the serial run's.
    const auto xs = workloads::fp_values(10'000, 11);
    const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    const auto jobs =
        histogram_fleet(spec, kernels::pack_fp_stream(xs), 32);

    Machine serial(AddressingMode::Restricted);
    Tracer serial_tracer;
    serial.set_tracer(&serial_tracer);
    Scheduler plain(serial, {.threads = 1, .retry = {}});
    const ScheduleReport ref = plain.run(jobs);

    Machine pooled(AddressingMode::Restricted);
    Tracer pooled_tracer;
    pooled.set_tracer(&pooled_tracer);
    Scheduler sched(pooled, {.threads = 8, .retry = {}});
    EXPECT_EQ(pooled.resolved_sim_threads(), 8u);
    const ScheduleReport rep = sched.run(jobs);
    EXPECT_EQ(rep.sim_threads, 8u);
    EXPECT_EQ(ref.wall_cycles, rep.wall_cycles);
    expect_stats_eq(ref.total, rep.total);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expect_results_eq(ref.jobs[i], rep.jobs[i]);

    const Profile a = serial_tracer.profile();
    const Profile b = pooled_tracer.profile();
    EXPECT_EQ(a.total_state_cycles(), ref.total.cycles);
    EXPECT_EQ(a.states(), b.states());
    EXPECT_EQ(a.actions(), b.actions());
    EXPECT_FALSE(a.actions().empty());
}

TEST(Runtime, DirectRunHonoursThePlanBudget)
{
    // A plan's own cycle budget overrides the caller's on the direct
    // path as it does in the Scheduler: both runs time out alike.
    const Bytes samples =
        kernels::samples_from_bits(workloads::waveform(20'000, 13));
    JobPlan plan = kernels::trigger_kernel_spec(6).make_job(samples);
    plan.max_cycles = 64;

    Machine m(AddressingMode::Restricted);
    const JobResult direct = run_job_on(m, 0, 0, plan);
    Scheduler sched;
    const ScheduleReport rep = sched.run({plan});
    ASSERT_EQ(rep.jobs.size(), 1u);

    EXPECT_EQ(direct.status, LaneStatus::TimedOut);
    EXPECT_EQ(rep.jobs[0].status, LaneStatus::TimedOut);
    EXPECT_EQ(direct.fault.code, FaultCode::WatchdogTimeout);
    expect_stats_eq(direct.stats, rep.jobs[0].stats);
}

TEST(Runtime, AssignResetsStaleLaneState)
{
    // Batch 1: dictionary jobs on lanes 0 and 1 leave registers, output
    // and a non-trivial stream position behind.
    const std::vector<std::string> rows(200, "value");
    const auto base = baselines::dictionary_encode(rows);
    const auto spec = kernels::dictionary_kernel_spec(base.dict, false);
    const Bytes input = kernels::dict_input(rows);

    Machine m(AddressingMode::Restricted);
    Scheduler sched(m, {});
    const std::vector<JobPlan> batch1{spec.make_job(input),
                                      spec.make_job(input)};
    const ScheduleReport r1 = sched.run(batch1);
    ASSERT_EQ(r1.jobs[1].status, LaneStatus::Done);
    ASSERT_FALSE(r1.jobs[1].output.empty());

    // Batch 2 occupies lane 0 only; every other lane must come up from
    // architectural reset, not with wave-1 leftovers.
    std::vector<JobSpec> specs(1);
    const JobPlan plan = spec.make_job(input);
    specs[0].program = plan.program.get();
    specs[0].input = plan.input;
    m.assign(std::move(specs));

    const Lane &stale = m.lane(1);
    for (unsigned r = 0; r < kNumScalarRegs; ++r)
        EXPECT_EQ(stale.reg(r), 0u) << "reg " << r;
    EXPECT_TRUE(stale.output().empty());
    EXPECT_TRUE(stale.accepts().empty());
    EXPECT_EQ(stale.window_base(), 0u);
    EXPECT_EQ(stale.stats().cycles, 0u);
    EXPECT_EQ(stale.stats().stream_bits, 0u);
}

TEST(Runtime, ChunkJobsCoversInputExactlyAndRejectsNoSplit)
{
    const std::string text = workloads::crimes_csv(300);
    const Bytes data(text.begin(), text.end());
    const auto jobs = chunk_jobs(kernels::csv_kernel_spec(), data, 4096,
                                 align_after_delim('\n'));
    std::size_t covered = 0;
    Bytes glued;
    for (const JobPlan &j : jobs) {
        covered += j.input.size();
        glued.insert(glued.end(), j.input.begin(), j.input.end());
    }
    EXPECT_EQ(covered, data.size());
    EXPECT_EQ(glued, data);

    // A delimiter-free input cannot be split on row boundaries.
    const Bytes solid(256, 'a');
    EXPECT_THROW(chunk_jobs(kernels::csv_kernel_spec(), solid, 64,
                            align_after_delim('\n')),
                 UdpError);
}

TEST(Runtime, StreamedCutsMatchChunkJobs)
{
    // A caller that receives the input in pieces (the ETL offload, one
    // Snappy wave at a time) cuts through chunk_end exactly the chunks
    // chunk_jobs cuts from the whole input, the final one included.
    const auto spec = kernels::csv_kernel_spec();
    const auto row_end = align_after_delim('\n');
    constexpr std::size_t kChunk = 12 * 1024;
    const auto as_bytes = [](const std::string &s) {
        return BytesView(reinterpret_cast<const std::uint8_t *>(s.data()),
                         s.size());
    };
    const auto whole_ends = [&](BytesView all) {
        std::vector<std::size_t> ends;
        for (const JobPlan &j : chunk_jobs(spec, ArenaSlice::borrow(all),
                                           kChunk, row_end))
            ends.push_back(std::size_t(j.input.data() - all.data()) +
                           j.input.size());
        return ends;
    };
    // Feeds `all` in seeded random pieces of 1 byte to 40 KiB.
    const auto streamed_ends = [&](BytesView all, unsigned seed) {
        std::mt19937 rng(seed);
        std::vector<std::size_t> ends;
        std::size_t have = 0, begin = 0;
        const auto cut = [&](bool at_end) {
            for (std::size_t end;
                 (end = chunk_end(spec, all.first(have), begin, kChunk,
                                  row_end, at_end)) != begin;
                 begin = end)
                ends.push_back(end);
        };
        while (have < all.size()) {
            have = std::min<std::size_t>(all.size(),
                                         have + 1 + rng() % (40 * 1024));
            cut(false);
        }
        cut(true);
        return ends;
    };
    const std::string text = etl::lineitem_csv(0.5);
    const auto ends = whole_ends(as_bytes(text));
    ASSERT_GT(ends.size(), 10u);
    EXPECT_EQ(ends.back(), text.size());
    for (const unsigned seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        EXPECT_EQ(streamed_ends(as_bytes(text), seed), ends);
    }

    // A 12 KiB window with no '\n' is refused with the same error.
    const std::string solid =
        text.substr(0, 30'000) + std::string(kChunk, 'a') + text;
    const auto error_of = [](const auto &cut) {
        try {
            cut();
        } catch (const UdpError &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    const std::string whole_error =
        error_of([&] { whole_ends(as_bytes(solid)); });
    EXPECT_NE(whole_error.find("no legal split point"), std::string::npos)
        << whole_error;
    for (const unsigned seed : {1u, 2u}) {
        EXPECT_EQ(error_of([&] { streamed_ends(as_bytes(solid), seed); }),
                  whole_error);
    }
}

TEST(Runtime, SchedulerRejectsOversizedWindowsAndBadWaveCap)
{
    const auto spec = kernels::csv_kernel_spec();
    JobPlan plan = spec.make_job(Bytes{'a', ',', 'b', '\n'});
    plan.window_bytes = (std::size_t{kNumBanks} + 1) * kBankBytes;
    Scheduler sched;
    EXPECT_THROW(sched.run({plan}), UdpError);

    // Unusable options are refused when the Scheduler is built.
    SchedulerOptions opts;
    opts.max_jobs_per_wave = 0;
    EXPECT_THROW(Scheduler{opts}, UdpError);
    opts.max_jobs_per_wave = kNumLanes + 1;
    EXPECT_THROW(Scheduler{opts}, UdpError);

    SchedulerOptions zero_retry;
    zero_retry.retry.max_attempts = 0;
    EXPECT_THROW(Scheduler{zero_retry}, UdpError);
    Machine m;
    EXPECT_THROW(Scheduler(m, zero_retry), UdpError);
}

// --- Fault containment and recovery (docs/ROBUSTNESS.md) ------------------

namespace {

/// A small histogram fleet shared by the retry tests.
std::vector<JobPlan>
retry_jobs(std::size_t count)
{
    const auto xs = workloads::fp_values(8'000, 21);
    static const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    return histogram_fleet(spec, kernels::pack_fp_stream(xs), count);
}

} // namespace

TEST(Scheduler, TransientTrapRecoversOnRetry)
{
    auto jobs = retry_jobs(8);
    Scheduler clean_sched;
    const ScheduleReport clean = clean_sched.run(jobs);

    // Trap job 2 mid-run on its first attempt only.
    FaultInjector inj(7);
    inj.force_trap(jobs[2], 50, /*attempts=*/1);
    SchedulerOptions opts;
    opts.retry.max_attempts = 3;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);

    EXPECT_EQ(rep.faulted_runs, 1u);
    EXPECT_EQ(rep.retries, 1u);
    EXPECT_EQ(rep.quarantined, 0u);
    ASSERT_EQ(rep.waves.size(), 2u); // retry lands in a second wave
    EXPECT_EQ(rep.waves[0].retried, 1u);
    EXPECT_EQ(rep.waves[1].completed, 1u);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(rep.jobs[i].status, LaneStatus::Done) << "job " << i;
        EXPECT_FALSE(rep.jobs[i].quarantined);
        expect_results_eq(rep.jobs[i], clean.jobs[i]);
    }
    EXPECT_EQ(rep.jobs[2].attempts, 2u);
    EXPECT_EQ(rep.jobs[2].wave, 1u);
}

TEST(Scheduler, PermanentFaultQuarantinesAfterMaxAttempts)
{
    auto jobs = retry_jobs(8);
    Scheduler clean_sched;
    const ScheduleReport clean = clean_sched.run(jobs);

    FaultInjector inj(11);
    inj.poison_program(jobs[5]); // BadDispatch on every attempt
    SchedulerOptions opts;
    opts.retry.max_attempts = 3;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);

    EXPECT_EQ(rep.faulted_runs, 3u);
    EXPECT_EQ(rep.retries, 2u);
    EXPECT_EQ(rep.quarantined, 1u);
    const JobResult &bad = rep.jobs[5];
    EXPECT_EQ(bad.status, LaneStatus::Faulted);
    EXPECT_EQ(bad.fault.code, FaultCode::BadDispatch);
    EXPECT_TRUE(bad.quarantined);
    EXPECT_EQ(bad.attempts, 3u);
    EXPECT_THROW(require_done(bad, "test"), UdpError);

    // Containment: every healthy job's result matches the clean run.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == 5)
            continue;
        expect_results_eq(rep.jobs[i], clean.jobs[i]);
    }
}

TEST(Scheduler, TimeoutRetryGrowsCycleBudget)
{
    auto jobs = retry_jobs(4);
    // Far below what a shard needs: every job must time out at least
    // once, then recover as the policy doubles the budget.
    SchedulerOptions opts;
    opts.max_cycles_per_lane = 64;
    opts.retry.max_attempts = 16;
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);

    EXPECT_GT(rep.faulted_runs, 0u);
    EXPECT_EQ(rep.quarantined, 0u);
    for (const JobResult &jr : rep.jobs) {
        EXPECT_EQ(jr.status, LaneStatus::Done);
        EXPECT_GT(jr.attempts, 1u);
    }

    // Two attempts are not enough: budgets of 64 and then 128 cycles
    // both time out, and the job quarantines as TimedOut, carrying the
    // watchdog fault record.
    SchedulerOptions twice = opts;
    twice.retry.max_attempts = 2;
    Scheduler stuck(twice);
    const ScheduleReport srep = stuck.run(jobs);
    EXPECT_EQ(srep.quarantined, unsigned(jobs.size()));
    for (const JobResult &jr : srep.jobs) {
        EXPECT_EQ(jr.status, LaneStatus::TimedOut);
        EXPECT_EQ(jr.fault.code, FaultCode::WatchdogTimeout);
        EXPECT_TRUE(jr.quarantined);
        EXPECT_EQ(jr.attempts, 2u);
    }
}

TEST(Scheduler, FaultFreeRunsIgnoreRetryPolicy)
{
    // With nothing faulting, a generous retry policy must be invisible:
    // identical packing, identical results, identical accounting.
    const auto jobs = retry_jobs(100);
    ASSERT_GT(jobs.size(), kNumLanes);

    Scheduler plain;
    const ScheduleReport a = plain.run(jobs);
    SchedulerOptions opts;
    opts.retry.max_attempts = 5;
    Scheduler retrying(opts);
    const ScheduleReport b = retrying.run(jobs);

    EXPECT_EQ(a.wall_cycles, b.wall_cycles);
    EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
    expect_stats_eq(a.total, b.total);
    ASSERT_EQ(a.waves.size(), b.waves.size());
    for (std::size_t w = 0; w < a.waves.size(); ++w) {
        EXPECT_EQ(a.waves[w].jobs, b.waves[w].jobs);
        EXPECT_EQ(a.waves[w].completed, b.waves[w].completed);
        EXPECT_EQ(b.waves[w].retried, 0u);
        EXPECT_EQ(b.waves[w].quarantined, 0u);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expect_results_eq(a.jobs[i], b.jobs[i]);
        EXPECT_EQ(a.jobs[i].wave, b.jobs[i].wave);
        EXPECT_EQ(b.jobs[i].attempts, 1u);
    }
    EXPECT_EQ(b.faulted_runs, 0u);
    EXPECT_EQ(b.retries, 0u);
    EXPECT_EQ(b.quarantined, 0u);
}
