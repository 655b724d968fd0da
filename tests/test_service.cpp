/**
 * @file
 * udp_service tests (docs/SERVICE.md): the retry requeue, JobControl
 * cancellation at both scheduler requeue points, plan validation at
 * submit, admission control (token buckets, circuit breakers, overflow
 * policies), deadlines, graceful drain, per-tenant labeled metrics and
 * post-mortem routing — plus the cancellation-race and concurrent-client
 * coverage the sanitizer jobs run.
 */
#include "assembler/builder.hpp"
#include "core/decoded_program.hpp"
#include "kernels/csv.hpp"
#include "kernels/trigger.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/spantrace.hpp"
#include "service/service.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>

using namespace udp;
using namespace udp::runtime;
using namespace udp::service;

namespace {

/// Complete architectural equality of two job results (the bench's
/// fault-containment definition: status, counters, registers, bytes).
void
expect_results_eq(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.dispatches, b.stats.dispatches);
    EXPECT_EQ(a.stats.actions, b.stats.actions);
    EXPECT_EQ(a.stats.stream_bits, b.stats.stream_bits);
    EXPECT_EQ(a.stats.output_bytes, b.stats.output_bytes);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.extracts, b.extracts);
    ASSERT_EQ(a.accepts.size(), b.accepts.size());
    for (std::size_t i = 0; i < a.accepts.size(); ++i)
        EXPECT_EQ(a.accepts[i].stream_bit_pos,
                  b.accepts[i].stream_bit_pos);
}

/// Shared trigger-sample stream; static so the arena the chunks pin
/// outlives every scheduled run in this binary.
const Bytes &
samples()
{
    static const Bytes s =
        kernels::samples_from_bits(workloads::waveform(200'000, 13));
    return s;
}

/// `n` trigger jobs of >= 2 KB each (so a forced trap at cycle 300
/// always lands inside the run).
std::vector<JobPlan>
trigger_jobs(std::size_t n)
{
    const auto spec = kernels::trigger_kernel_spec(6);
    const std::size_t chunk =
        std::max<std::size_t>(2048, ceil_div(samples().size(), n));
    auto jobs = chunk_jobs(spec, ArenaSlice::borrow(samples()), chunk);
    jobs.resize(std::min(jobs.size(), n));
    return jobs;
}

/// One deliberately long job (the whole stream as a single chunk) —
/// parks the service run loop for a few tens of milliseconds so tests
/// can fill queues / expire deadlines / cancel before staging
/// deterministically.
JobPlan
slow_job()
{
    static const Bytes big =
        kernels::samples_from_bits(workloads::waveform(3'000'000, 13));
    return kernels::trigger_kernel_spec(6).make_job(
        ArenaSlice::borrow(big));
}

/// Telemetry sink that cancels `cancel_job` the moment `trigger_job`'s
/// run event is emitted (mid-harvest, same wave: the deterministic
/// cancel-mid-wave window).
struct JobCancelSink final : TelemetrySink {
    JobControl *control = nullptr;
    std::size_t trigger_job = ~std::size_t{0};
    std::size_t cancel_job = ~std::size_t{0};
    void on_job_run(const JobRunEvent &e) override {
        if (e.job_index == trigger_job)
            control->cancel(cancel_job);
    }
    void on_wave(const WaveEvent &) override {}
};

/// Telemetry sink that cancels `job` when wave `wave` closes — after
/// that wave's retries were requeued, before the next wave stages
/// (the deterministic cancel-while-queued-for-retry window).
struct WaveCancelSink final : TelemetrySink {
    JobControl *control = nullptr;
    unsigned wave = 0;
    std::size_t job = ~std::size_t{0};
    void on_wave(const WaveEvent &e) override {
        if (e.index == wave)
            control->cancel(job);
    }
    void on_job_run(const JobRunEvent &) override {}
};

std::uint64_t
counter_of(const MetricRegistry &reg, const std::string &name)
{
    for (const auto &[n, v] : reg.counters())
        if (n == name)
            return v;
    ADD_FAILURE() << "no counter " << name;
    return 0;
}

std::uint64_t
samples_of(const MetricRegistry &reg, const std::string &name)
{
    for (const auto &[n, h] : reg.histograms())
        if (n == name)
            return h.count;
    ADD_FAILURE() << "no histogram " << name;
    return 0;
}

/// Non-overlapping occurrences of `needle` in `text`.
std::size_t
occurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

} // namespace

// ---------------------------------------------------------------------------
// Scheduler: retry requeue.
// ---------------------------------------------------------------------------

TEST(Scheduler, RetryJoinsTheNextWave)
{
    // A faulted run requeues at the back of the pending queue: job 10's
    // retry runs beside the one job that did not fit in wave 0.
    auto jobs = trigger_jobs(65);
    ASSERT_GT(jobs.size(), std::size_t{kNumLanes});
    FaultInjector inj(0xBEEF);
    inj.force_trap(jobs[10], 300, 1);

    SchedulerOptions o;
    o.retry.max_attempts = 3;
    Scheduler s(o);
    const auto r = s.run(jobs);
    ASSERT_EQ(r.waves.size(), 2u);
    EXPECT_EQ(r.jobs[10].status, LaneStatus::Done);
    EXPECT_EQ(r.jobs[10].wave, 1u);
    EXPECT_EQ(r.jobs[10].attempts, 2u);
}

// ---------------------------------------------------------------------------
// Scheduler: an extract cursor the program left outside its window.
// ---------------------------------------------------------------------------

namespace {

/// CSV rows for the extract tests; static so the arenas the jobs borrow
/// outlive every run.
const Bytes &
csv_rows()
{
    static const Bytes rows = [] {
        std::string s;
        for (int i = 0; i < 64; ++i)
            s += std::to_string(i) + ",left,right\n";
        return Bytes(s.begin(), s.end());
    }();
    return rows;
}

JobPlan
csv_job()
{
    return kernels::csv_kernel_spec().make_job(ArenaSlice::borrow(csv_rows()));
}

/// A CSV job with no input whose output cursor r5 starts at 40000, past
/// its 32 KiB window.  The plan is valid, and the run stores nothing and
/// completes; only the harvest can tell that the extract ends outside
/// the window.  (Given input, its first field store would fault.)
JobPlan
csv_job_past_window()
{
    JobPlan p = kernels::csv_kernel_spec().make_job(ArenaSlice{});
    p.init_regs = {{5, 40000}};
    return p;
}

} // namespace

TEST(Scheduler, ExtractPastWindowFaultsOnlyItsJob)
{
    Scheduler s;
    const auto ref = s.run({csv_job(), csv_job()});
    const auto r = s.run({csv_job(), csv_job(), csv_job_past_window()});
    ASSERT_EQ(r.waves.size(), 1u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(r.jobs[i].status, LaneStatus::Done);
        expect_results_eq(ref.jobs[i], r.jobs[i]);
    }
    const JobResult &bad = r.jobs[2];
    EXPECT_EQ(bad.status, LaneStatus::Faulted);
    EXPECT_TRUE(bad.quarantined);
    EXPECT_EQ(r.quarantined, 1u);
    EXPECT_EQ(bad.fault.code, FaultCode::FetchOutOfRange);
    EXPECT_EQ(bad.fault.lane, 4u);
    EXPECT_NE(bad.fault.detail.find("job 'csv' extract 0 cursor"),
              std::string::npos)
        << bad.fault.detail;
    ASSERT_EQ(bad.extracts.size(), 1u);
    EXPECT_TRUE(bad.extracts[0].empty());
    EXPECT_THROW(kernels::csv_field_stream(bad), UdpError);

    // A direct run returns the same fault instead of throwing.
    Machine m(AddressingMode::Restricted);
    const JobResult direct = run_job_on(m, 0, 0, csv_job_past_window());
    EXPECT_EQ(direct.status, LaneStatus::Faulted);
    EXPECT_EQ(direct.fault.code, FaultCode::FetchOutOfRange);
    EXPECT_THROW(kernels::decode_csv_result(direct), UdpError);
}

TEST(Scheduler, OutOfWindowStoreFaultsOnlyItsJob)
{
    // A scribbler stores 'Z' once per input byte from r1 on, after the
    // `prologue` actions, into a wave-mate's two-bank CSV window.
    const auto scribbler = [](std::vector<Action> prologue, Opcode store,
                              Word offset) {
        prologue.push_back(act_imm(Opcode::Movi, 2, 0, 'Z'));
        prologue.push_back(act_imm(store, 2, 1, 0));
        prologue.push_back(act_imm(Opcode::Addi, 1, 1, 1));
        ProgramBuilder b;
        const StateId st = b.add_state();
        b.on_any(st, st, b.add_block(std::move(prologue)));
        b.set_entry(st);
        JobPlan p;
        p.name = "scribbler";
        p.program = std::make_shared<const Program>(b.build());
        p.input = Bytes(64, 'x');
        p.window_bytes = 2 * kBankBytes;
        p.init_regs = {{1, offset}};
        return p;
    };
    struct Case {
        const char *what;
        JobPlan bad;
        bool bad_first; ///< else the CSV job runs first in the wave
    };
    struct Restore {
        ~Restore() { set_sim_backend(SimBackend::Threaded); }
    } restore;
    for (const SimBackend backend : {SimBackend::Threaded, SimBackend::Legacy}) {
        set_sim_backend(backend);
        const Case cases[] = {
            // Past its window: the CSV job's staged input from byte 100.
            {"stb", scribbler({}, Opcode::Stb, 2 * kBankBytes + 100), true},
            // A word whose first two bytes end its own window.
            {"stw", scribbler({}, Opcode::Stw, 2 * kBankBytes - 2), true},
            // Its base moved down onto the first job's window, then
            // stores into that job's extracted fields.
            {"setbase",
             scribbler({act_imm(Opcode::Setbase, 0, 0, 0)}, Opcode::Stb,
                       kernels::kCsvOutBase + 10),
             false}};
        for (const Case &c : cases)
            for (const unsigned threads : {1u, 2u}) {
                SCOPED_TRACE(testing::Message()
                             << sim_backend_name(backend) << ", " << c.what
                             << ", " << threads << " threads");
                SchedulerOptions o;
                o.threads = threads;
                Scheduler s(o);
                const auto solo = s.run({csv_job()});
                const auto r = c.bad_first ? s.run({c.bad, csv_job()})
                                           : s.run({csv_job(), c.bad});
                ASSERT_EQ(r.jobs.size(), 2u);
                const JobResult &bad = r.jobs[c.bad_first ? 0 : 1];
                const JobResult &good = r.jobs[c.bad_first ? 1 : 0];
                EXPECT_EQ(bad.status, LaneStatus::Faulted);
                EXPECT_EQ(bad.fault.code, FaultCode::FetchOutOfRange);
                EXPECT_EQ(bad.fault.lane, c.bad_first ? 0u : 2u);
                EXPECT_EQ(bad.stats.mem_writes, 0u);
                EXPECT_EQ(good.status, LaneStatus::Done);
                expect_results_eq(solo.jobs[0], good);
            }
    }
}

// ---------------------------------------------------------------------------
// Scheduler: JobControl cancellation.
// ---------------------------------------------------------------------------

TEST(Scheduler, IdleControlBitIdentical)
{
    const auto jobs = trigger_jobs(65);
    Scheduler plain;
    const auto ref = plain.run(jobs);

    JobControl control(jobs.size());
    SchedulerOptions o;
    o.control = &control;
    Scheduler s(o);
    const auto rep = s.run(jobs);

    ASSERT_EQ(ref.jobs.size(), rep.jobs.size());
    EXPECT_EQ(ref.wall_cycles, rep.wall_cycles);
    EXPECT_EQ(rep.cancelled, 0u);
    for (std::size_t i = 0; i < ref.jobs.size(); ++i)
        expect_results_eq(ref.jobs[i], rep.jobs[i]);
}

TEST(Scheduler, CancelBeforeStageSkipsJob)
{
    const auto jobs = trigger_jobs(8);
    Scheduler plain;
    const auto ref = plain.run(jobs);

    JobControl control(jobs.size());
    control.cancel(5); // before run(): never staged at all
    SchedulerOptions o;
    o.control = &control;
    Scheduler s(o);
    const auto rep = s.run(jobs);

    EXPECT_EQ(rep.cancelled, 1u);
    EXPECT_EQ(rep.jobs[5].status, LaneStatus::Cancelled);
    EXPECT_TRUE(rep.jobs[5].cancelled);
    EXPECT_EQ(rep.jobs[5].attempts, 0u); // counts only real runs
    EXPECT_TRUE(rep.jobs[5].output.empty());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (i != 5)
            expect_results_eq(ref.jobs[i], rep.jobs[i]);
}

TEST(Scheduler, CancelMidWaveDiscardsAttempt)
{
    const auto jobs = trigger_jobs(3);
    ASSERT_EQ(jobs.size(), 3u);
    Scheduler plain;
    const auto ref = plain.run(jobs);

    // Job 0's harvest event fires before job 1's harvest check: the
    // cancel lands after job 1 ran but before its payload is kept.
    JobControl control(jobs.size());
    JobCancelSink sink;
    sink.control = &control;
    sink.trigger_job = 0;
    sink.cancel_job = 1;
    SchedulerOptions o;
    o.control = &control;
    o.sinks = {&sink};
    Scheduler s(o);
    const auto rep = s.run(jobs);

    EXPECT_EQ(rep.cancelled, 1u);
    EXPECT_EQ(rep.waves.size(), 1u);
    EXPECT_EQ(rep.waves[0].cancelled, 1u);
    const auto &jr = rep.jobs[1];
    EXPECT_EQ(jr.status, LaneStatus::Cancelled);
    EXPECT_TRUE(jr.cancelled);
    EXPECT_EQ(jr.attempts, 1u); // it ran; the payload was discarded
    EXPECT_TRUE(jr.output.empty());
    EXPECT_TRUE(jr.extracts.empty());
    EXPECT_TRUE(jr.accepts.empty());
    expect_results_eq(ref.jobs[0], rep.jobs[0]);
    expect_results_eq(ref.jobs[2], rep.jobs[2]);
}

TEST(Scheduler, CancelWhileQueuedForRetryDropsRetry)
{
    auto jobs = trigger_jobs(3);
    FaultInjector inj(0xBEEF);
    inj.force_trap(jobs[1], 300, 1); // transient: a retry would succeed

    // Cancel job 1 when wave 0 closes — its retry is already queued,
    // and must be dropped at the next pack without staging.
    JobControl control(jobs.size());
    WaveCancelSink sink;
    sink.control = &control;
    sink.wave = 0;
    sink.job = 1;
    SchedulerOptions o;
    o.control = &control;
    o.sinks = {&sink};
    o.retry.max_attempts = 3;
    Scheduler s(o);
    const auto rep = s.run(jobs);

    EXPECT_EQ(rep.waves.size(), 1u); // the retry wave never materializes
    EXPECT_EQ(rep.cancelled, 1u);
    EXPECT_EQ(rep.jobs[1].status, LaneStatus::Cancelled);
    EXPECT_TRUE(rep.jobs[1].cancelled);
    EXPECT_EQ(rep.jobs[1].attempts, 1u); // the faulted first run only
    EXPECT_EQ(rep.jobs[0].status, LaneStatus::Done);
    EXPECT_EQ(rep.jobs[2].status, LaneStatus::Done);
}

TEST(Scheduler, JobsDroppedBeforeStagingReachTheSinks)
{
    // A job the Scheduler drops before staging — its queued retry
    // cancelled, or cancelled before its first run — still reaches
    // every sink once, as its final disposition: counted cancelled,
    // one end-to-end sample and one job span, but no run and no
    // attempt on a lane.
    auto jobs = trigger_jobs(3);
    FaultInjector inj(0xBEEF);
    inj.force_trap(jobs[1], 300, 1); // transient: a retry would succeed

    for (const bool before_first_run : {false, true}) {
        SCOPED_TRACE(before_first_run ? "before its first run"
                                      : "queued for retry");
        JobControl control(jobs.size());
        if (before_first_run)
            control.cancel(1);
        WaveCancelSink cancel;
        cancel.control = &control;
        cancel.wave = 0;
        cancel.job = 1;
        MetricRegistry reg;
        RegistryTelemetry telemetry(reg);
        SpanTracer spans;
        SchedulerOptions o;
        o.control = &control;
        o.sinks = {&cancel, &telemetry, &spans};
        o.retry.max_attempts = 3;
        Scheduler s(o);
        const auto rep = s.run(jobs);
        const std::uint64_t runs = before_first_run ? 2 : 3;

        ASSERT_EQ(rep.cancelled, 1u);
        EXPECT_EQ(rep.jobs[1].status, LaneStatus::Cancelled);
        EXPECT_EQ(counter_of(reg, "scheduler.jobs.cancelled"),
                  rep.cancelled);
        EXPECT_EQ(counter_of(reg, "scheduler.runs"), runs);
        EXPECT_EQ(counter_of(reg, "kernel.trigger-p6.runs"), runs);
        EXPECT_EQ(samples_of(reg, "job.service_cycles"), runs);
        EXPECT_EQ(samples_of(reg, "job.e2e_cycles"), jobs.size());

        std::ostringstream os;
        spans.write_chrome_trace(os);
        const std::string trace = os.str();
        // Every job span begins and ends once; attempts run on lanes.
        EXPECT_EQ(occurrences(trace, "\"name\":\"job "), 2 * jobs.size());
        EXPECT_EQ(occurrences(trace, "\"cat\":\"udp.attempt\""), runs);
    }
}

// ---------------------------------------------------------------------------
// Admission primitives.
// ---------------------------------------------------------------------------

TEST(Admission, TokenBucketIsDeterministicWithScriptedClock)
{
    TokenBucket b(/*rate=*/2.0, /*burst=*/2.0, /*now=*/0.0);
    EXPECT_TRUE(b.try_take(0.0));
    EXPECT_TRUE(b.try_take(0.0));
    EXPECT_FALSE(b.try_take(0.0)); // burst exhausted
    EXPECT_NEAR(b.seconds_to_token(0.0), 0.5, 1e-9);
    EXPECT_TRUE(b.try_take(0.6)); // 0.6 s * 2/s = 1.2 tokens refilled
    EXPECT_FALSE(b.try_take(0.6));
    // rate == 0: a pure burst quota, never refills.
    TokenBucket q(0.0, 1.0, 0.0);
    EXPECT_TRUE(q.try_take(0.0));
    EXPECT_FALSE(q.try_take(1e6));
    EXPECT_GT(q.seconds_to_token(1e6), 1e6);
}

TEST(Admission, CircuitBreakerTripsAndCoolsDown)
{
    CircuitBreaker::Options o;
    o.window = 8;
    o.trip_quarantines = 2;
    o.cooldown_s = 1.0;
    CircuitBreaker br(o);
    EXPECT_FALSE(br.open(0.0));
    br.record(true, 0.0);
    EXPECT_FALSE(br.open(0.0));
    br.record(true, 0.1); // second quarantine in window: trip
    EXPECT_TRUE(br.open(0.1));
    EXPECT_EQ(br.trips(), 1u);
    EXPECT_NEAR(br.remaining(0.1), 1.0, 1e-9);
    EXPECT_FALSE(br.open(1.2)); // cooled down
    // The window was cleared on trip: one quarantine doesn't re-trip.
    br.record(true, 1.2);
    EXPECT_FALSE(br.open(1.2));
    br.record(true, 1.3);
    EXPECT_TRUE(br.open(1.3));
    EXPECT_EQ(br.trips(), 2u);
}

// ---------------------------------------------------------------------------
// Service.
// ---------------------------------------------------------------------------

namespace {

TenantOptions
open_tenant(const std::string &name)
{
    TenantOptions t;
    t.name = name;
    t.rate_jobs_per_s = 0;
    t.burst = 1e9; // effectively unthrottled
    t.queue_capacity = 1 << 12;
    return t;
}

} // namespace

TEST(Service, ResultsBitIdenticalToDirectScheduler)
{
    const auto jobs = trigger_jobs(40);
    Scheduler direct;
    const auto ref = direct.run(jobs);

    Service svc;
    auto client = svc.client(svc.register_tenant(open_tenant("alice")));
    std::vector<JobId> ids;
    for (const auto &j : jobs)
        ids.push_back(client.submit(j));
    for (std::size_t i = 0; i < ids.size(); ++i) {
        auto out = client.wait(ids[i], 60.0);
        ASSERT_TRUE(out.has_value());
        ASSERT_EQ(out->state, JobState::Done);
        EXPECT_GT(out->attempts, 0u);
        expect_results_eq(ref.jobs[i], out->result);
        svc.recycle(std::move(*out));
    }
    // Consumed: the ids are forgotten.
    EXPECT_FALSE(svc.poll(ids[0]).has_value());
}

TEST(Service, MalformedPlansAreRefusedAtSubmit)
{
    // A plan that cannot run, whatever its program does, is refused on
    // the caller's thread: the run loop never sees it, so it cannot
    // take the service down.
    Service svc;
    const TenantId tid = svc.register_tenant(open_tenant("strict"));
    auto client = svc.client(tid);
    const JobPlan good = trigger_jobs(1)[0];

    std::vector<JobPlan> bad(7, good);
    bad[0].window_bytes = kLocalMemBytes + 1;
    bad[6].window_bytes = 0; // would leave the lane unbounded
    bad[1].program = nullptr;
    bad[2].stages.push_back(
        {static_cast<ByteAddr>(bad[2].window_bytes), good.input});
    bad[3].init_regs.emplace_back(kNumScalarRegs, 0);
    bad[4].extracts.push_back({0, 0, static_cast<int>(kNumScalarRegs)});
    const ArenaSlice stolen = std::move(bad[5].input); // input unpinned
    for (std::size_t i = 0; i < bad.size(); ++i)
        EXPECT_THROW(client.submit(bad[i]), UdpError) << "plan " << i;
    const TenantStats st = svc.stats().tenants[tid];
    EXPECT_EQ(st.submitted, 0u);
    EXPECT_EQ(st.admitted, 0u);
    EXPECT_EQ(st.rejected_total(), 0u);

    auto out = client.wait(client.submit(good), 60.0);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->state, JobState::Done);

    ServiceOptions zero_retry;
    zero_retry.sched.retry.max_attempts = 0;
    EXPECT_THROW(Service{zero_retry}, UdpError);
    ServiceOptions zero_batch;
    zero_batch.max_batch_jobs = 0;
    EXPECT_THROW(Service{zero_batch}, UdpError);
}

TEST(Service, SpanTracerInSinksSeesEveryScheduledRun)
{
    // A caller's SpanTracer rides along with the Service's own registry
    // sink: one attempt span per run the registry counts.
    SpanTracer spans;
    ServiceOptions so;
    so.sched.retry.max_attempts = 2;
    so.sched.sinks = {&spans};
    Service svc(so);
    auto client = svc.client(svc.register_tenant(open_tenant("traced")));
    auto jobs = trigger_jobs(8);
    FaultInjector inj(0xF01D);
    inj.force_trap(jobs[3], 300, 1); // transient: one retry run
    std::vector<JobId> ids;
    for (const auto &j : jobs)
        ids.push_back(client.submit(j));
    for (const JobId id : ids) {
        auto out = client.wait(id, 60.0);
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->state, JobState::Done);
    }
    svc.drain(); // joins the run loop, the SpanTracer's only writer

    std::uint64_t runs = 0;
    for (const auto &[name, v] : svc.registry().counters())
        if (name == "scheduler.runs")
            runs = v;
    EXPECT_EQ(runs, jobs.size() + 1);
    EXPECT_EQ(spans.attempts().size(), runs);
    EXPECT_EQ(spans.waves().size(), svc.stats().waves);
}

TEST(Service, ShedsWhenOverRate)
{
    Service svc;
    TenantOptions t;
    t.name = "bursty";
    t.rate_jobs_per_s = 0; // no refill: a 4-job quota
    t.burst = 4;
    t.overflow = OverflowPolicy::Shed;
    auto client = svc.client(svc.register_tenant(t));

    const auto jobs = trigger_jobs(8);
    unsigned admitted = 0, rate_limited = 0;
    for (const auto &j : jobs) {
        auto out = svc.poll(client.submit(j));
        ASSERT_TRUE(out.has_value());
        if (out->state == JobState::Rejected) {
            EXPECT_EQ(out->reject, RejectReason::RateLimited);
            ++rate_limited;
        } else {
            ++admitted;
        }
    }
    EXPECT_EQ(admitted, 4u);
    EXPECT_EQ(rate_limited, 4u);
    const auto st = svc.stats();
    EXPECT_EQ(st.tenants[0].rejected_rate_limited, 4u);
    EXPECT_EQ(st.tenants[0].admitted, 4u);
}

TEST(Service, QueueFullShedsWhileLoopIsBusy)
{
    Service svc;
    TenantOptions t = open_tenant("filler");
    t.queue_capacity = 3;
    auto client = svc.client(svc.register_tenant(t));

    // Park the run loop on a long job, then overfill the queue.
    const JobId blocker = client.submit(slow_job());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto jobs = trigger_jobs(8);
    unsigned queue_full = 0;
    std::vector<JobId> ids;
    for (const auto &j : jobs) {
        const JobId id = client.submit(j);
        auto out = svc.poll(id);
        ASSERT_TRUE(out.has_value());
        if (out->state == JobState::Rejected) {
            EXPECT_EQ(out->reject, RejectReason::QueueFull);
            ++queue_full;
        } else {
            ids.push_back(id);
        }
    }
    EXPECT_GE(queue_full, 5u); // capacity 3 of 8 submissions
    for (auto id : ids)
        EXPECT_TRUE(client.wait(id, 60.0).has_value());
    EXPECT_TRUE(client.wait(blocker, 60.0).has_value());
}

TEST(Service, DegradeAdmitsOverflowWithSmallerBudget)
{
    Service svc;
    TenantOptions t;
    t.name = "elastic";
    t.rate_jobs_per_s = 0;
    t.burst = 2; // everything past 2 jobs is over-rate
    t.overflow = OverflowPolicy::Degrade;
    t.degraded_max_cycles = 1 << 22; // still plenty to finish
    auto client = svc.client(svc.register_tenant(t));

    const auto jobs = trigger_jobs(6);
    std::vector<JobId> ids;
    for (const auto &j : jobs)
        ids.push_back(client.submit(j));
    for (auto id : ids) {
        auto out = client.wait(id, 60.0);
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->state, JobState::Done); // degraded, not refused
    }
    const auto st = svc.stats();
    EXPECT_EQ(st.tenants[0].admitted, 6u);
    EXPECT_EQ(st.tenants[0].degraded, 4u);
    EXPECT_EQ(st.tenants[0].rejected_total(), 0u);
}

TEST(Service, DegradedBudgetActuallyLimitsCycles)
{
    Service svc;
    TenantOptions t;
    t.name = "starved";
    t.rate_jobs_per_s = 0;
    t.burst = 0; // every job is over-rate -> degraded
    t.overflow = OverflowPolicy::Degrade;
    t.degraded_max_cycles = 64; // far below what the job needs
    auto client = svc.client(svc.register_tenant(t));

    auto out = client.wait(client.submit(trigger_jobs(4)[0]), 60.0);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->state, JobState::Quarantined);
    EXPECT_EQ(out->result.status, LaneStatus::TimedOut);
}

TEST(Service, BlockPolicyTimesOut)
{
    Service svc;
    TenantOptions t;
    t.name = "patient";
    t.rate_jobs_per_s = 0;
    t.burst = 1;
    t.overflow = OverflowPolicy::Block;
    t.block_timeout_s = 0.05;
    auto client = svc.client(svc.register_tenant(t));

    const auto jobs = trigger_jobs(2);
    const JobId first = client.submit(jobs[0]);
    const auto t0 = std::chrono::steady_clock::now();
    const JobId second = client.submit(jobs[1]); // no token: blocks
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    auto out = svc.poll(second);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->state, JobState::Rejected);
    EXPECT_EQ(out->reject, RejectReason::Timeout);
    EXPECT_GE(waited, 0.04);
    EXPECT_TRUE(client.wait(first, 60.0).has_value());
}

TEST(Service, DeadlineExpiresQueuedJob)
{
    Service svc;
    auto client = svc.client(svc.register_tenant(open_tenant("dl")));
    const JobId blocker = client.submit(slow_job());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    SubmitOptions so;
    so.deadline_s = 0.001; // expires while the blocker still runs
    auto out = client.wait(client.submit(trigger_jobs(4)[0], so), 60.0);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->state, JobState::Expired);
    EXPECT_EQ(out->attempts, 0u); // never ran
    EXPECT_TRUE(client.wait(blocker, 60.0).has_value());
    EXPECT_EQ(svc.stats().tenants[0].expired, 1u);
}

TEST(Service, CancelBeforeStage)
{
    Service svc;
    auto client = svc.client(svc.register_tenant(open_tenant("cx")));
    const JobId blocker = client.submit(slow_job());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    const JobId id = client.submit(trigger_jobs(4)[0]);
    EXPECT_TRUE(client.cancel(id));
    auto out = client.wait(id, 60.0);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->state, JobState::Cancelled);
    EXPECT_EQ(out->attempts, 0u);
    EXPECT_TRUE(client.wait(blocker, 60.0).has_value());
}

TEST(Service, CancelAfterCompletionIsNoOp)
{
    Service svc;
    auto client = svc.client(svc.register_tenant(open_tenant("done")));
    const JobId id = client.submit(trigger_jobs(4)[0]);
    auto out = client.wait(id, 60.0);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->state, JobState::Done);
    EXPECT_FALSE(client.cancel(id));        // consumed: unknown id
    EXPECT_FALSE(client.cancel(id + 999));  // never existed
}

TEST(Service, ConcurrentCancelAndSubmit)
{
    Service svc;
    auto client = svc.client(svc.register_tenant(open_tenant("racy")));
    const auto jobs = trigger_jobs(8);

    constexpr unsigned kThreads = 4, kPerThread = 48;
    std::atomic<std::uint64_t> done{0}, cancelled{0}, other{0};
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < kThreads; ++w) {
        ts.emplace_back([&, w] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                const JobId id = client.submit(jobs[i % jobs.size()]);
                if ((i + w) % 3 == 0)
                    client.cancel(id); // races the run loop's staging
                auto out = client.wait(id, 60.0);
                if (!out)
                    continue;
                switch (out->state) {
                case JobState::Done:
                    done.fetch_add(1);
                    svc.recycle(std::move(*out));
                    break;
                case JobState::Cancelled:
                    cancelled.fetch_add(1);
                    break;
                default:
                    other.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : ts)
        t.join();
    // Every submission resolved to exactly one terminal outcome.
    EXPECT_EQ(done + cancelled + other, kThreads * kPerThread);
    EXPECT_EQ(other.load(), 0u);
    EXPECT_GT(done.load(), 0u);
    EXPECT_GT(cancelled.load(), 0u);
    const auto st = svc.stats();
    EXPECT_EQ(st.tenants[0].submitted, kThreads * kPerThread);
    EXPECT_EQ(st.tenants[0].completed + st.tenants[0].cancelled,
              kThreads * kPerThread);
}

TEST(Service, BreakerIsolatesHostileTenant)
{
    Service svc;
    TenantOptions hostile = open_tenant("hostile");
    hostile.breaker.window = 8;
    hostile.breaker.trip_quarantines = 2;
    hostile.breaker.cooldown_s = 3600; // stays open for the test
    const TenantId h = svc.register_tenant(hostile);
    const TenantId g = svc.register_tenant(open_tenant("good"));
    auto hc = svc.client(h);
    auto gc = svc.client(g);

    FaultInjector inj(0xF01D);
    // Two sequential quarantines reach trip_quarantines exactly.
    for (unsigned i = 0; i < 2; ++i) {
        auto plan = trigger_jobs(4)[i];
        inj.force_trap(plan, 300); // faults on every attempt
        auto out = hc.wait(hc.submit(std::move(plan)), 60.0);
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->state, JobState::Quarantined);
        EXPECT_TRUE(out->result.fault);
    }

    // Tripped: further hostile submissions are refused outright...
    auto rejected = svc.poll(hc.submit(trigger_jobs(4)[0]));
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(rejected->state, JobState::Rejected);
    EXPECT_EQ(rejected->reject, RejectReason::BreakerOpen);
    EXPECT_GE(svc.stats().tenants[h].breaker_trips, 1u);

    // ...while the well-behaved tenant is untouched.
    auto out = gc.wait(gc.submit(trigger_jobs(4)[1]), 60.0);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->state, JobState::Done);
}

TEST(Service, ExtractPastWindowFaultsTheJob)
{
    // The run loop used to throw out of its thread here, which ended the
    // process.  Now the job is quarantined and the service carries on.
    Service svc;
    auto client = svc.client(svc.register_tenant(open_tenant("csv")));
    auto bad = client.wait(client.submit(csv_job_past_window()), 60.0);
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(bad->state, JobState::Quarantined);
    EXPECT_EQ(bad->result.fault.code, FaultCode::FetchOutOfRange);

    auto good = client.wait(client.submit(csv_job()), 60.0);
    ASSERT_TRUE(good.has_value());
    EXPECT_EQ(good->state, JobState::Done);
    svc.drain();
    EXPECT_TRUE(svc.stats().drained);
}

TEST(Service, PostmortemsRoutedPerTenant)
{
    Service svc;
    const TenantId h = svc.register_tenant(open_tenant("faulty"));
    const TenantId g = svc.register_tenant(open_tenant("clean"));
    auto hc = svc.client(h);
    auto gc = svc.client(g);

    FaultInjector inj(0xF01D);
    auto bad = trigger_jobs(4)[0];
    inj.force_trap(bad, 300); // faults on every attempt
    const JobId bad_id = hc.submit(std::move(bad));
    const JobId good_id = gc.submit(trigger_jobs(4)[1]);
    ASSERT_EQ(hc.wait(bad_id, 60.0)->state, JobState::Quarantined);
    ASSERT_EQ(gc.wait(good_id, 60.0)->state, JobState::Done);

    const auto hpm = svc.postmortems(h);
    ASSERT_FALSE(hpm.empty()); // the hostile tenant sees its own faults
    EXPECT_EQ(hpm.back().status, LaneStatus::Faulted);
    EXPECT_FALSE(hpm.back().disassembly.empty());
    EXPECT_TRUE(svc.postmortems(g).empty()); // and nobody else's
}

TEST(Service, CallerPostmortemSinkSeesEveryFaultedRun)
{
    // A caller's PostmortemSink in sched.sinks receives every faulted
    // run of every tenant, while each tenant's ring keeps only its own
    // reports, at most 8.  Job names tell the tenants apart.  The
    // tenants' breakers cannot trip: with the default one, tenant a's
    // last two jobs were refused whenever the run loop quarantined its
    // first four before they were submitted.
    PostmortemSink caller;
    ServiceOptions so;
    so.sched.retry.max_attempts = 2;
    so.sched.sinks = {&caller};
    Service svc(so);
    const auto tenant = [](const std::string &name) {
        TenantOptions t = open_tenant(name);
        t.breaker.trip_quarantines = 0;
        return t;
    };
    const TenantId a = svc.register_tenant(tenant("a"));
    const TenantId b = svc.register_tenant(tenant("b"));
    const TenantId c = svc.register_tenant(tenant("clean"));

    FaultInjector inj(0xF01D);
    const auto plans = trigger_jobs(9);
    std::vector<JobId> ids;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        JobPlan plan = plans[i];
        TenantId t = c;
        if (i < 6) { // faults on every attempt: 12 runs for tenant a
            plan.name = "a-job";
            inj.force_trap(plan, 300);
            t = a;
        } else if (i < 8) { // 4 runs for tenant b
            plan.name = "b-job";
            inj.force_trap(plan, 300);
            t = b;
        }
        ids.push_back(svc.submit(t, std::move(plan)));
    }
    for (const JobId id : ids)
        ASSERT_TRUE(svc.wait(id, 60.0).has_value());
    svc.drain(); // joins the run loop: the caller's sink is ours again

    std::size_t a_runs = 0, b_runs = 0;
    for (const FaultReport &fr : caller.reports()) {
        a_runs += fr.job_name == "a-job";
        b_runs += fr.job_name == "b-job";
    }
    EXPECT_EQ(a_runs, 12u);
    EXPECT_EQ(b_runs, 4u);
    EXPECT_EQ(caller.reports().size(), 16u);

    const auto apm = svc.postmortems(a);
    const auto bpm = svc.postmortems(b);
    EXPECT_EQ(apm.size(), 8u); // the newest 8 of 12
    EXPECT_EQ(bpm.size(), 4u);
    for (const FaultReport &fr : apm)
        EXPECT_EQ(fr.job_name, "a-job");
    for (const FaultReport &fr : bpm)
        EXPECT_EQ(fr.job_name, "b-job");
    EXPECT_TRUE(svc.postmortems(c).empty());
}

TEST(Service, DrainCompletesQueuedJobsAndRejectsNewOnes)
{
    Service svc;
    auto client = svc.client(svc.register_tenant(open_tenant("dr")));
    const auto jobs = trigger_jobs(32);
    std::vector<JobId> ids;
    for (const auto &j : jobs)
        ids.push_back(client.submit(j));
    svc.drain();

    EXPECT_TRUE(svc.stats().drained);
    for (auto id : ids) {
        auto out = svc.poll(id); // outcomes stay pollable after drain
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->state, JobState::Done); // work-conserving drain
    }
    auto late = svc.poll(client.submit(jobs[0]));
    ASSERT_TRUE(late.has_value());
    EXPECT_EQ(late->state, JobState::Rejected);
    EXPECT_EQ(late->reject, RejectReason::ShuttingDown);
}

TEST(Service, LabeledMetricsExposition)
{
    MetricRegistry reg;
    ServiceOptions so;
    so.registry = &reg;
    Service svc(so);
    auto client =
        svc.client(svc.register_tenant(open_tenant("al\"ice\\")));
    auto out = client.wait(client.submit(trigger_jobs(4)[0]), 60.0);
    ASSERT_TRUE(out.has_value());
    ASSERT_EQ(out->state, JobState::Done);

    const std::string text = svc.prometheus_text();
    // One TYPE line per family, label value escaped per the format.
    EXPECT_NE(text.find("# TYPE udp_service_jobs_submitted counter"),
              std::string::npos);
    EXPECT_NE(text.find("udp_service_jobs_submitted{tenant=\"al\\\"ice"
                        "\\\\\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("udp_service_e2e_host_us"), std::string::npos);
    EXPECT_EQ(text.find("# TYPE udp_service_jobs_submitted counter",
                        text.find("# TYPE udp_service_jobs_submitted "
                                  "counter") +
                            1),
              std::string::npos);

    const std::string json = svc.metrics_json();
    EXPECT_NE(json.find("\"tenants\""), std::string::npos);
    EXPECT_NE(json.find("\"service\""), std::string::npos);
}
