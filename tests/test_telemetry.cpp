/**
 * @file
 * Telemetry tests: metric primitives, log-bucketed histograms, registry
 * snapshots/merge/expositions, concurrent recording, and the scheduler
 * lifecycle instrumentation (docs/OBSERVABILITY.md).
 */
#include "assembler/builder.hpp"
#include "baselines/histogram.hpp"
#include "core/metrics_json.hpp"
#include "kernels/csv.hpp"
#include "kernels/histogram.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>

using namespace udp;
using namespace udp::runtime;

namespace {

/// >64 single-bank histogram jobs over a shared fp stream (the same
/// fleet shape test_runtime uses for its scheduling equivalences).
std::vector<JobPlan>
telemetry_fleet(std::size_t jobs_wanted)
{
    const auto xs = workloads::fp_values(8'000, 21);
    static const auto spec = kernels::histogram_kernel_spec(
        baselines::Histogram::uniform(10, 41.2, 42.5).edges());
    const Bytes packed = kernels::pack_fp_stream(xs);
    const std::size_t values = packed.size() / 8;
    const std::size_t shard =
        std::max<std::size_t>(1, ceil_div(values, jobs_wanted)) * 8;
    return chunk_jobs(spec, packed, shard);
}

/// A job that ends Reject: its program has no arc for the second byte.
JobPlan
reject_job()
{
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_symbol(s, 'a', s);
    b.set_entry(s);
    JobPlan plan;
    plan.name = "reject";
    plan.program = std::make_shared<const Program>(b.build());
    plan.input = Bytes{'a', 'b'};
    return plan;
}

/// Value of a named counter, 0 if the registry never made it.
std::uint64_t
counter_value(const MetricRegistry &reg, const std::string &name)
{
    for (const auto &[n, v] : reg.counters())
        if (n == name)
            return v;
    return 0;
}

/// Snapshot of a named histogram (empty snapshot if absent).
HistogramSnapshot
histogram_snap(const MetricRegistry &reg, const std::string &name)
{
    for (const auto &[n, s] : reg.histograms())
        if (n == name)
            return s;
    return {};
}

/// Complete architectural equality of two job results.
void
expect_results_eq(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.dispatches, b.stats.dispatches);
    EXPECT_EQ(a.regs, b.regs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.extracts, b.extracts);
    EXPECT_EQ(a.accepts.size(), b.accepts.size());
}

} // namespace

// --- Metric primitives ----------------------------------------------------

TEST(Telemetry, CounterAndGaugeBasics)
{
    MetricRegistry reg;
    Counter &c = reg.counter("events");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name resolves to the same metric (stable references).
    EXPECT_EQ(&reg.counter("events"), &c);
    EXPECT_EQ(counter_value(reg, "events"), 42u);

    Gauge &g = reg.gauge("occupancy");
    EXPECT_EQ(g.value(), 0.0);
    g.set(0.25);
    g.set(0.75); // last write wins
    EXPECT_EQ(reg.gauges().size(), 1u);
    EXPECT_DOUBLE_EQ(reg.gauges()[0].second, 0.75);

    // Counters, gauges and histograms are separate namespaces.
    reg.histogram("events");
    EXPECT_EQ(reg.counters().size(), 1u);
    EXPECT_EQ(reg.histograms().size(), 1u);
}

TEST(Telemetry, HistogramEmptyAndSingleSample)
{
    Histogram h;
    const HistogramSnapshot empty = h.snapshot();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.sum, 0u);
    EXPECT_TRUE(empty.buckets.empty());
    EXPECT_EQ(empty.percentile(0.5), 0u);
    EXPECT_EQ(empty.percentile(0.999), 0u);
    EXPECT_TRUE(std::isnan(empty.mean()));

    // A single sample is every percentile, min, max and mean.
    h.record(12345);
    const HistogramSnapshot one = h.snapshot();
    EXPECT_EQ(one.count, 1u);
    EXPECT_EQ(one.sum, 12345u);
    EXPECT_EQ(one.min, 12345u);
    EXPECT_EQ(one.max, 12345u);
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(one.percentile(q), 12345u) << "q=" << q;
    EXPECT_DOUBLE_EQ(one.mean(), 12345.0);
}

TEST(Telemetry, HistogramBucketBoundaries)
{
    // Values 0..7 get exact buckets.
    for (std::uint64_t v = 0; v < 8; ++v) {
        EXPECT_EQ(Histogram::bucket_index(v), unsigned(v));
        EXPECT_EQ(Histogram::bucket_upper(unsigned(v)), v);
    }

    const std::uint64_t probes[] = {
        8,    9,     15,         16,         17,        255,
        256,  1023,  1024,       1025,       (1u << 20) - 1,
        1u << 20,    (1u << 20) + 1,         ~std::uint64_t{0} >> 1,
        ~std::uint64_t{0}};
    for (const std::uint64_t v : probes) {
        const unsigned idx = Histogram::bucket_index(v);
        ASSERT_LT(idx, kHistogramBuckets) << "v=" << v;
        const std::uint64_t upper = Histogram::bucket_upper(idx);
        // v lands inside its bucket, and the bucket's bound round-trips
        // to the same bucket (the property registry merge relies on).
        EXPECT_LE(v, upper) << "v=" << v;
        EXPECT_EQ(Histogram::bucket_index(upper), idx) << "v=" << v;
        if (idx > 0) {
            EXPECT_LT(Histogram::bucket_upper(idx - 1), v) << "v=" << v;
        }
        // 8 sub-buckets per power of two bound quantization at 12.5%.
        EXPECT_LE(upper - v, v / 8 + 1) << "v=" << v;
    }

    // Bucket indices are monotone in the value.
    unsigned prev = 0;
    for (std::uint64_t v = 0; v < 100'000; v += 97) {
        const unsigned idx = Histogram::bucket_index(v);
        EXPECT_GE(idx, prev);
        prev = idx;
    }
}

TEST(Telemetry, HistogramPercentilesMonotoneAndExact)
{
    Histogram h;
    std::uint64_t x = 0x2545F4914F6CDD1Dull, sum = 0;
    const unsigned n = 10'000;
    for (unsigned i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t v = x % 1'000'000;
        sum += v;
        h.record(v);
    }
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, n);
    EXPECT_EQ(s.sum, sum);

    const std::uint64_t p50 = s.percentile(0.50);
    const std::uint64_t p90 = s.percentile(0.90);
    const std::uint64_t p99 = s.percentile(0.99);
    const std::uint64_t p999 = s.percentile(0.999);
    EXPECT_GE(p50, s.min);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, p999);
    EXPECT_LE(p999, s.max);
    // Uniform draws below 1e6: the median must sit near the middle
    // (generous bounds — this checks rank math, not the RNG).
    EXPECT_GT(p50, 350'000u);
    EXPECT_LT(p50, 650'000u);
}

TEST(Telemetry, RegistryMergeFoldsExactly)
{
    MetricRegistry a, b;
    a.counter("shared").add(10);
    b.counter("shared").add(32);
    b.counter("only_b").add(7);
    a.gauge("g").set(1.0);
    b.gauge("g").set(2.0);

    a.histogram("lat").record(10);
    a.histogram("lat").record(1000);
    b.histogram("lat").record(5);
    b.histogram("lat").record(500'000);
    b.histogram("only_b_h").record(3);

    a.merge(b);
    EXPECT_EQ(counter_value(a, "shared"), 42u);
    EXPECT_EQ(counter_value(a, "only_b"), 7u);
    EXPECT_DOUBLE_EQ(a.gauges()[0].second, 2.0); // last-writer-wins

    const HistogramSnapshot lat = histogram_snap(a, "lat");
    EXPECT_EQ(lat.count, 4u);
    EXPECT_EQ(lat.sum, 10u + 1000u + 5u + 500'000u);
    EXPECT_EQ(lat.min, 5u);
    EXPECT_EQ(lat.max, 500'000u);
    EXPECT_EQ(histogram_snap(a, "only_b_h").count, 1u);
    // b is untouched by the merge.
    EXPECT_EQ(counter_value(b, "shared"), 32u);
    EXPECT_EQ(histogram_snap(b, "lat").count, 2u);

    // Merging via snapshots loses no samples: merged quantiles stay
    // inside the widened range and monotone.
    EXPECT_GE(lat.percentile(0.5), lat.min);
    EXPECT_LE(lat.percentile(0.999), lat.max);
}

// --- Expositions ----------------------------------------------------------

TEST(Telemetry, JsonSnapshotIsValidAndEscaped)
{
    MetricRegistry reg;
    // Hostile metric names must survive the strict JSON validator.
    reg.counter("quoted\"name").add(1);
    reg.counter("back\\slash").add(2);
    reg.gauge("g").set(0.5);
    reg.histogram("empty"); // mean is NaN -> null, never bare NaN
    reg.histogram("lat").record(77);

    std::ostringstream os;
    JsonWriter w(os);
    reg.write_json(w);
    const std::string text = os.str();
    EXPECT_TRUE(w.done());
    EXPECT_TRUE(json_parse_ok(text)) << text;
    EXPECT_NE(text.find("quoted\\\"name"), std::string::npos);
    EXPECT_NE(text.find("back\\\\slash"), std::string::npos);
    EXPECT_NE(text.find("\"mean\": null"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(Telemetry, WriteHistogramJsonHandlesNonFinite)
{
    // An empty snapshot has a NaN mean; the writer must emit null.
    HistogramSnapshot empty;
    std::ostringstream os;
    JsonWriter w(os);
    write_histogram_json(w, empty);
    const std::string text = os.str();
    EXPECT_TRUE(json_parse_ok(text)) << text;
    EXPECT_NE(text.find("null"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(Telemetry, PrometheusExpositionWellFormed)
{
    MetricRegistry reg;
    reg.counter("scheduler.runs").add(3);
    reg.gauge("wave.occupancy").set(0.5);
    reg.histogram("job.service_cycles").record(100);
    reg.histogram("job.service_cycles").record(200);
    reg.histogram("empty.hist");
    reg.counter("we\"ird name").add(1); // sanitized, not escaped

    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("# TYPE udp_scheduler_runs counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("udp_scheduler_runs 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE udp_wave_occupancy gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE udp_job_service_cycles summary\n"),
              std::string::npos);
    EXPECT_NE(text.find("udp_job_service_cycles{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("udp_job_service_cycles{quantile=\"0.999\"}"),
              std::string::npos);
    EXPECT_NE(text.find("udp_job_service_cycles_count 2\n"),
              std::string::npos);
    // Empty histograms expose only _sum/_count — no NaN samples.
    EXPECT_NE(text.find("udp_empty_hist_sum 0\n"), std::string::npos);
    EXPECT_NE(text.find("udp_empty_hist_count 0\n"), std::string::npos);
    EXPECT_EQ(text.find("udp_empty_hist{"), std::string::npos);
    EXPECT_EQ(text.find("udp_empty_hist_mean"), std::string::npos);
    // Sanitization: no quotes or spaces survive in a metric name.
    EXPECT_NE(text.find("udp_we_ird_name 1\n"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(Telemetry, PrometheusNameSanitization)
{
    EXPECT_EQ(prometheus_name("job.e2e_cycles"), "udp_job_e2e_cycles");
    EXPECT_EQ(prometheus_name("a b\"c\\d"), "udp_a_b_c_d");
    EXPECT_EQ(prometheus_name("0weird"), "udp_0weird"); // prefix guards
    EXPECT_EQ(prometheus_name(""), "udp_");
}

// --- Concurrency (TSan-exercised in CI) -----------------------------------

TEST(Telemetry, ConcurrentRecordingIsExact)
{
    MetricRegistry reg;
    Counter &runs = reg.counter("runs");
    Histogram &lat = reg.histogram("lat");

    constexpr unsigned kThreads = 8, kPer = 20'000;
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < kThreads; ++t)
            pool.emplace_back([&, t] {
                for (unsigned i = 0; i < kPer; ++i) {
                    runs.add();
                    lat.record(t * kPer + i);
                }
            });
    }
    EXPECT_EQ(runs.value(), std::uint64_t{kThreads} * kPer);
    const HistogramSnapshot s = lat.snapshot();
    EXPECT_EQ(s.count, std::uint64_t{kThreads} * kPer);
    // Sum of 0 .. kThreads*kPer-1, exactly — no lost updates.
    const std::uint64_t n = std::uint64_t{kThreads} * kPer;
    EXPECT_EQ(s.sum, n * (n - 1) / 2);
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, n - 1);
}

TEST(Telemetry, ConcurrentSinksMergeToFleetView)
{
    // One registry per "shard", merged into a fleet registry — the
    // scale-out pattern for the ROADMAP's rack-scale direction.
    constexpr unsigned kShards = 4, kPer = 1'000;
    std::vector<MetricRegistry> shards(kShards);
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < kShards; ++t)
            pool.emplace_back([&shards, t] {
                RegistryTelemetry sink(shards[t]);
                JobPlan plan;
                plan.name = "csv";
                for (unsigned i = 0; i < kPer; ++i) {
                    JobResult result;
                    result.service_cycles = 100 + i;
                    result.e2e_cycles = 150 + i;
                    sink.on_job_run({plan, result});
                }
            });
    }
    MetricRegistry fleet;
    for (const MetricRegistry &s : shards)
        fleet.merge(s);
    EXPECT_EQ(counter_value(fleet, "scheduler.runs"),
              std::uint64_t{kShards} * kPer);
    EXPECT_EQ(counter_value(fleet, "kernel.csv.runs"),
              std::uint64_t{kShards} * kPer);
    EXPECT_EQ(histogram_snap(fleet, "job.service_cycles").count,
              std::uint64_t{kShards} * kPer);
    EXPECT_EQ(histogram_snap(fleet, "job.e2e_cycles").min, 150u);
}

// --- Scheduler lifecycle instrumentation ----------------------------------

TEST(Telemetry, SchedulerLifecycleCountsMatchReport)
{
    // Fault-injected multi-wave run: >64 jobs (2+ waves) with one
    // transient trap, so retries, faults and multi-wave queue-wait all
    // appear in the registry.  The second fleet adds a run that ends
    // Reject, which completes rather than faults.
    auto faulty = telemetry_fleet(100);
    ASSERT_GT(faulty.size(), std::size_t{kNumLanes});
    FaultInjector inj(7);
    inj.force_trap(faulty[2], 50, /*attempts=*/1);
    auto with_reject = faulty;
    with_reject.push_back(reject_job());

    for (const std::vector<JobPlan> *fleet : {&faulty, &with_reject}) {
        const std::vector<JobPlan> &jobs = *fleet;
        const std::uint64_t rejects = jobs.size() - faulty.size();
        SCOPED_TRACE(rejects ? "with a Reject run" : "faults only");

        MetricRegistry reg;
        RegistryTelemetry sink(reg);
        SchedulerOptions opts;
        opts.retry.max_attempts = 3;
        opts.sinks = {&sink};
        Scheduler sched(opts);
        const ScheduleReport rep = sched.run(jobs);
        if (rejects) {
            EXPECT_EQ(rep.jobs.back().status, LaneStatus::Reject);
        }

        const std::uint64_t runs = jobs.size() + rep.retries;
        std::uint64_t completed = 0;
        for (const WaveReport &w : rep.waves)
            completed += w.completed;
        EXPECT_EQ(counter_value(reg, "scheduler.runs"), runs);
        EXPECT_EQ(counter_value(reg, "scheduler.runs.faulted"),
                  rep.faulted_runs);
        EXPECT_EQ(counter_value(reg, "scheduler.jobs.completed"),
                  completed);
        EXPECT_EQ(completed, runs - rep.faulted_runs);
        EXPECT_EQ(counter_value(reg, "scheduler.retries"), rep.retries);
        EXPECT_EQ(counter_value(reg, "scheduler.jobs.quarantined"),
                  rep.quarantined);
        EXPECT_EQ(counter_value(reg, "scheduler.waves"), rep.waves.size());
        EXPECT_GT(rep.retries, 0u);

        // The forced trap lands in its per-FaultCode counter.
        const std::string trap_name =
            "scheduler.fault." +
            std::string(fault_code_name(FaultCode::ForcedTrap));
        EXPECT_EQ(counter_value(reg, trap_name), rep.faulted_runs);

        // Per-run latency samples: one per run; e2e only per final
        // disposition (exactly one per submitted job).
        EXPECT_EQ(histogram_snap(reg, "job.queue_wait_cycles").count, runs);
        EXPECT_EQ(histogram_snap(reg, "job.service_cycles").count, runs);
        EXPECT_EQ(histogram_snap(reg, "job.e2e_cycles").count, jobs.size());

        // Wave metrics: one sample per wave; walls sum to the report's.
        const HistogramSnapshot walls =
            histogram_snap(reg, "wave.wall_cycles");
        EXPECT_EQ(walls.count, rep.waves.size());
        EXPECT_EQ(walls.sum, rep.wall_cycles);
        const HistogramSnapshot occ =
            histogram_snap(reg, "wave.occupancy_lanes");
        EXPECT_EQ(occ.count, rep.waves.size());
        EXPECT_EQ(occ.max, std::uint64_t{rep.waves[0].jobs});

        // First-wave jobs waited zero; later waves waited the machine
        // time of everything before them.
        const HistogramSnapshot qw =
            histogram_snap(reg, "job.queue_wait_cycles");
        EXPECT_EQ(qw.min, 0u);
        EXPECT_GT(qw.max, 0u);

        // Per-kernel throughput: every other run was the histogram
        // kernel.
        EXPECT_EQ(counter_value(reg, "kernel." + jobs[0].name + ".runs"),
                  runs - rejects);
        EXPECT_EQ(counter_value(reg, "kernel.reject.runs"), rejects);
    }
}

TEST(Telemetry, SchedulerResultsBitIdenticalWithTelemetry)
{
    const auto jobs = telemetry_fleet(100);

    Scheduler plain;
    const ScheduleReport ref = plain.run(jobs);

    MetricRegistry reg;
    RegistryTelemetry sink(reg);
    SchedulerOptions opts;
    opts.sinks = {&sink};
    Scheduler observed(opts);
    const ScheduleReport rep = observed.run(jobs);

    EXPECT_EQ(ref.wall_cycles, rep.wall_cycles);
    EXPECT_DOUBLE_EQ(ref.energy_j, rep.energy_j);
    ASSERT_EQ(ref.jobs.size(), rep.jobs.size());
    for (std::size_t i = 0; i < ref.jobs.size(); ++i)
        expect_results_eq(ref.jobs[i], rep.jobs[i]);

    // No serial pinning: the threaded backend runs with telemetry
    // attached and stays bit-identical.
    MetricRegistry reg4;
    RegistryTelemetry sink4(reg4);
    SchedulerOptions threaded;
    threaded.threads = 4;
    threaded.sinks = {&sink4};
    Scheduler pooled(threaded);
    const ScheduleReport rep4 = pooled.run(jobs);
    EXPECT_EQ(rep4.sim_threads, 4u);
    EXPECT_EQ(ref.wall_cycles, rep4.wall_cycles);
    for (std::size_t i = 0; i < ref.jobs.size(); ++i)
        expect_results_eq(ref.jobs[i], rep4.jobs[i]);
    EXPECT_EQ(counter_value(reg4, "scheduler.runs"), jobs.size());
}

TEST(Telemetry, JobResultLatencyFieldsAreDeterministic)
{
    const auto jobs = telemetry_fleet(100);
    Scheduler sched;
    const ScheduleReport rep = sched.run(jobs);
    ASSERT_GE(rep.waves.size(), 2u);

    Cycles wave_start = 0;
    std::vector<Cycles> starts; // machine time each wave begins
    for (const WaveReport &w : rep.waves) {
        starts.push_back(wave_start);
        wave_start += w.wall_cycles;
    }
    for (const JobResult &jr : rep.jobs) {
        EXPECT_EQ(jr.queue_wait_cycles, starts[jr.wave]);
        EXPECT_EQ(jr.service_cycles, jr.stats.cycles);
        EXPECT_EQ(jr.e2e_cycles,
                  starts[jr.wave] + rep.waves[jr.wave].wall_cycles);
        EXPECT_LE(jr.service_cycles, rep.waves[jr.wave].wall_cycles);
    }

    const JobLatencySummary lat = summarize_job_latencies(rep.jobs);
    EXPECT_EQ(lat.queue_wait.count, rep.jobs.size());
    EXPECT_EQ(lat.service.count, rep.jobs.size());
    EXPECT_EQ(lat.e2e.count, rep.jobs.size());
    EXPECT_EQ(lat.queue_wait.min, 0u); // first wave starts immediately
    EXPECT_EQ(lat.e2e.max, rep.wall_cycles); // last wave's jobs
    EXPECT_LE(lat.service.max, lat.e2e.max);
}

TEST(Telemetry, RunJobOnFillsLatencyFields)
{
    const auto spec = kernels::csv_kernel_spec();
    const JobPlan plan = spec.make_job(Bytes{'a', ',', 'b', '\n'});
    Machine m;
    const JobResult res = run_job_on(m, 0, 0, plan);
    EXPECT_EQ(res.status, LaneStatus::Done);
    EXPECT_EQ(res.queue_wait_cycles, 0u);
    EXPECT_EQ(res.service_cycles, res.stats.cycles);
    EXPECT_EQ(res.e2e_cycles, res.stats.cycles);

    // A second run of the same plan on a fresh machine matches exactly.
    Machine m2;
    const JobResult again = run_job_on(m2, 0, 0, plan);
    expect_results_eq(res, again);
}

TEST(Telemetry, QuarantineReachesRegistry)
{
    auto jobs = telemetry_fleet(8);
    FaultInjector inj(11);
    inj.poison_program(jobs[5]); // BadDispatch on every attempt

    MetricRegistry reg;
    RegistryTelemetry sink(reg);
    SchedulerOptions opts;
    opts.retry.max_attempts = 3;
    opts.sinks = {&sink};
    Scheduler sched(opts);
    const ScheduleReport rep = sched.run(jobs);

    EXPECT_EQ(rep.quarantined, 1u);
    EXPECT_EQ(counter_value(reg, "scheduler.jobs.quarantined"), 1u);
    EXPECT_EQ(counter_value(reg, "scheduler.retries"), 2u);
    const std::string bad_name =
        "scheduler.fault." +
        std::string(fault_code_name(FaultCode::BadDispatch));
    EXPECT_EQ(counter_value(reg, bad_name), 3u); // one per attempt
    // The quarantined job still contributes exactly one e2e sample.
    EXPECT_EQ(histogram_snap(reg, "job.e2e_cycles").count, jobs.size());

    // The whole registry round-trips both expositions.
    std::ostringstream os;
    JsonWriter w(os);
    reg.write_json(w);
    EXPECT_TRUE(json_parse_ok(os.str()));
    const std::string prom = reg.prometheus_text();
    EXPECT_NE(prom.find("udp_scheduler_fault_bad_dispatch 3\n"),
              std::string::npos);
}
