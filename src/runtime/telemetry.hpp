/**
 * @file
 * Runtime telemetry: metric registry, latency histograms, and job/wave
 * lifecycle events (docs/OBSERVABILITY.md).
 *
 * The core simulator's Tracer answers "what did one lane do?".
 * This layer answers the service-level question the ROADMAP's `udpd`
 * front-end and rack-scale items need: "what did thousands of jobs
 * flowing through the Scheduler look like?" — p50/p99/p999 queue-wait
 * and service latency, wave occupancy, per-FaultCode retry/quarantine
 * rates, per-kernel throughput.
 *
 * Three pieces, all dependency-free:
 *
 *  - Metric primitives: `Counter` (monotone u64), `Gauge` (latest
 *    double) and `Histogram` (log-bucketed u64 distribution with
 *    exact-count percentiles).  All updates are lock-free atomics, so
 *    metrics can be recorded concurrently — including from inside the
 *    `std::jthread` simulation backend — with *exact* totals.
 *  - `MetricRegistry`: named metrics, created on first use, stable
 *    references (hot paths look up once and keep the reference).
 *    Snapshotable to JSON (via `JsonWriter`) and to a Prometheus-style
 *    text exposition; `merge()` folds one registry into another — the
 *    scale-out primitive for per-shard registries.
 *  - Lifecycle events: the Scheduler sends `JobRunEvent` / `WaveEvent`
 *    records to every `TelemetrySink` in `SchedulerOptions::sinks`.
 *    An event points at the run it describes (the job's plan and
 *    result, the wave's report) instead of copying it, so every sink
 *    reads the same record.  `RegistryTelemetry` is the standard sink
 *    that turns those events into registry metrics; `SpanTracer`
 *    (spantrace.hpp) turns them into a trace and `PostmortemSink`
 *    (postmortem.hpp) into fault reports.  With no sink attached (the
 *    default) no event is built — the same zero-overhead discipline as
 *    the core Tracer — and simulated results are bit-identical either
 *    way.
 */
#pragma once

#include "core/fault.hpp"
#include "core/lane.hpp"
#include "core/types.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace udp {
class JsonWriter;
class Tracer; // core/trace.hpp
}

namespace udp::runtime {

struct JobPlan;    // runtime/job.hpp
struct JobResult;  // runtime/job.hpp
struct WaveReport; // runtime/scheduler.hpp

// ---------------------------------------------------------------------------
// Metric primitives.
// ---------------------------------------------------------------------------

/// Monotonically increasing event count.  Lock-free; exact under
/// concurrent adds from any number of threads.
class Counter
{
  public:
    void add(std::uint64_t n = 1) {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/// Last-written scalar (occupancy fraction, thread count, ...).
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/// Number of log buckets a Histogram tracks (see Histogram).
inline constexpr unsigned kHistogramBuckets = 496;

/**
 * Read-only copy of one histogram's state, decoupled from the live
 * atomics: counts per non-empty bucket plus exact count/sum/min/max.
 * Percentiles are *exact-count*: the value reported for quantile q is
 * the upper bound of the bucket containing the ceil(q*count)-th sample
 * (clamped into [min, max]), so a single-sample histogram reports that
 * sample for every quantile and chains p50 <= p90 <= p99 <= p999 <= max
 * always hold.
 */
struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0; ///< meaningless when count == 0
    std::uint64_t max = 0;
    /// (bucket upper bound, samples in bucket), ascending, non-empty only.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

    /// Arithmetic mean; NaN when empty (serialized as JSON null).
    double mean() const;

    /// Exact-count quantile, q in [0, 1].  0 when empty.
    std::uint64_t percentile(double q) const;
};

/**
 * Log-bucketed distribution of u64 samples (latencies in cycles, sizes
 * in bytes, ...).  Values 0..7 get exact buckets; above that each
 * power-of-two range is split into 8 sub-buckets, bounding the relative
 * quantization error at 12.5% over the full u64 range in ~4 KB.
 * `record` is lock-free (one relaxed fetch_add per of count/sum/bucket
 * plus min/max CAS), so lanes or schedulers on different threads can
 * share one histogram with exact count/sum.
 */
class Histogram
{
  public:
    void record(std::uint64_t v);

    /// Consistent-enough copy for reporting: taken metric-at-a-time
    /// (quiesce writers for a perfectly consistent snapshot).
    HistogramSnapshot snapshot() const;

    /// Fold a snapshot in: bucket counts and sum add exactly, min/max
    /// widen.  The merge primitive for per-shard registries.
    void merge(const HistogramSnapshot &s);

    /// Bucket index a value lands in (exposed for boundary tests).
    static unsigned bucket_index(std::uint64_t v);
    /// Largest value mapping to `index` (inverse of bucket_index).
    static std::uint64_t bucket_upper(unsigned index);

  private:
    static constexpr unsigned kSubBits = 3;
    static constexpr unsigned kSubBuckets = 1u << kSubBits;

    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/**
 * Named metrics, created on first use.  Lookup takes a mutex; the
 * returned references are stable for the registry's lifetime, so hot
 * paths resolve once and update lock-free after that.  Counters,
 * gauges and histograms live in separate namespaces (prefer distinct
 * names anyway — the expositions emit all three side by side).
 */
class MetricRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * Fold `other` into this registry (the scale-out primitive: one
     * registry per shard/machine, merged for the fleet view).
     * Counters and histogram buckets add; min/max widen; a gauge takes
     * `other`'s latest value (last-writer-wins).
     */
    void merge(const MetricRegistry &other);

    /**
     * Emit the registry as one JSON object under the writer's current
     * position: {"counters": {...}, "gauges": {...}, "histograms":
     * {name: {count,sum,min,max,mean,p50,p90,p99,p999}}}.  Non-finite
     * doubles (e.g. the mean of an empty histogram) become null.
     */
    void write_json(JsonWriter &w) const;

    /**
     * Prometheus-style text exposition.  Names are prefixed `udp_` and
     * sanitized to [a-zA-Z0-9_:].  Counters/gauges get `# TYPE` lines;
     * histograms are exposed as summaries: `{quantile="0.5|0.9|0.99|
     * 0.999"}` sample lines (monotone by construction) plus `_min`,
     * `_max`, `_sum` and `_count`.  Empty histograms emit only
     * `_sum 0` / `_count 0` — never a NaN sample.
     *
     * Labeled series: a registry name may carry a trailing label block
     * — `service.jobs.submitted{tenant="alice"}` — one registry entry
     * per label set.  The part before '{' is the metric *family*:
     * every series of a family emits under a single `# TYPE` line,
     * with the label block passed through verbatim (summary quantile
     * labels are merged into it).  Families should keep one consistent
     * label key set across their series — udp_service does, and
     * tools/check_exposition.py enforces it.
     */
    std::string prometheus_text() const;

    /// Snapshot accessors for tests/tools (copies, alphabetical).
    std::vector<std::pair<std::string, std::uint64_t>> counters() const;
    std::vector<std::pair<std::string, double>> gauges() const;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms() const;

  private:
    mutable std::mutex mu_; ///< guards map shape only, not metric values
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    // Histogram holds a large atomic array; node-allocated map keeps
    // references stable without making Histogram movable.
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Sanitize an arbitrary metric name for the text exposition
/// ([a-zA-Z0-9_:], leading digit guarded by '_').
std::string prometheus_name(std::string_view name);

// ---------------------------------------------------------------------------
// Job / wave lifecycle events.
// ---------------------------------------------------------------------------

/**
 * One run (attempt) of one job, emitted by the Scheduler as each wave
 * is harvested, or one job the Scheduler dropped because it was
 * cancelled before it was staged (`ran` false).  The event points at
 * the run: `result` is the attempt's JobResult — status, LaneFault,
 * lane, wave, attempt count, counters — and its latencies are
 * *simulated* cycles, so they are deterministic and thread-count
 * independent: queue-wait is the machine time of every wave that ran
 * before this one (submission happens at t = 0), service is the lane's
 * own cycle count, end-to-end is queue-wait plus the wave's wall (a
 * wave is a barrier — results become visible when it closes).  Both
 * references are valid for the duration of the call only.
 */
struct JobRunEvent {
    const JobPlan &plan;     ///< the job's plan (name, program)
    const JobResult &result; ///< this run's outcome
    std::size_t job_index = 0;  ///< submission-order index
    /// Unique per job across every Scheduler run in the process; shared
    /// by the job's attempts, its spans and its post-mortems.
    std::uint64_t trace_id = 0;
    unsigned max_attempts = 1;  ///< the retry policy's cap
    /// Requeued into a later wave; otherwise this is the job's final
    /// disposition (completed, quarantined or cancelled).
    bool requeued = false;
    /// False for a job cancelled before it was staged: `result` is its
    /// Cancelled disposition and no lane ran it.
    bool ran = true;
    /// The machine's lane Tracer (nullptr when none is attached); its
    /// ring for `result.lane` holds this wave's micro-events.
    const Tracer *lane_tracer = nullptr;
};

/// One closed scheduler wave.
struct WaveEvent {
    const WaveReport &report; ///< the wave's accounting
    unsigned index = 0;
    Cycles start_cycle = 0;   ///< machine time of the run's earlier waves
    /// The machine's lane Tracer (nullptr when none is attached), valid
    /// for the duration of the call.  Its rings hold this wave's
    /// micro-events, stamped from cycle 0 at `start_cycle`; the
    /// Scheduler clears them after the sinks ran.
    const Tracer *lane_tracer = nullptr;
};

/**
 * Receiver for lifecycle events.  Implementations must tolerate calls
 * from whichever thread drives the Scheduler (the Scheduler itself
 * emits from its caller's thread; the atomic registry sink below is
 * safe from any number of threads).
 */
class TelemetrySink
{
  public:
    virtual ~TelemetrySink() = default;
    /// A Scheduler run over `jobs` jobs (> 0) is starting.
    virtual void on_schedule(std::size_t /*jobs*/) {}
    virtual void on_job_run(const JobRunEvent &e) = 0;
    virtual void on_wave(const WaveEvent &e) = 0;
};

/**
 * The standard sink: maps lifecycle events onto a MetricRegistry.
 *
 * Well-known names (see docs/OBSERVABILITY.md):
 *   counters   scheduler.runs, scheduler.runs.faulted,
 *              scheduler.jobs.completed, scheduler.jobs.quarantined,
 *              scheduler.jobs.cancelled,
 *              scheduler.retries, scheduler.waves,
 *              scheduler.fault.<code> (one per FaultCode),
 *              kernel.<name>.runs, kernel.<name>.input_bytes
 *   gauges     wave.occupancy (last wave's busy-lane fraction, 0..1)
 *   histograms job.queue_wait_cycles, job.service_cycles (per run),
 *              job.e2e_cycles (final dispositions only),
 *              wave.occupancy_lanes, wave.banks_used, wave.wall_cycles
 *
 * scheduler.runs, the per-run histograms and the per-kernel counters
 * count only events that ran; a job cancelled before staging still
 * counts once in scheduler.jobs.cancelled and job.e2e_cycles.
 *
 * All fixed-name metrics are resolved once at construction; per-kernel
 * counters are resolved on first sight of each kernel name.
 */
class RegistryTelemetry final : public TelemetrySink
{
  public:
    explicit RegistryTelemetry(MetricRegistry &reg);

    void on_job_run(const JobRunEvent &e) override;
    void on_wave(const WaveEvent &e) override;

    MetricRegistry &registry() { return reg_; }

  private:
    struct KernelCounters {
        Counter *runs = nullptr;
        Counter *input_bytes = nullptr;
    };
    KernelCounters &kernel(std::string_view name);

    MetricRegistry &reg_;
    Counter &runs_;
    Counter &runs_faulted_;
    Counter &jobs_completed_;
    Counter &jobs_quarantined_;
    Counter &jobs_cancelled_;
    Counter &retries_;
    Counter &waves_;
    std::array<Counter *, kNumFaultCodes> fault_counters_{};
    Gauge &occupancy_;
    Histogram &queue_wait_;
    Histogram &service_;
    Histogram &e2e_;
    Histogram &wave_occupancy_;
    Histogram &wave_banks_;
    Histogram &wave_wall_;
    std::mutex kernels_mu_;
    std::map<std::string, KernelCounters, std::less<>> kernels_;
};

// ---------------------------------------------------------------------------
// Latency summaries for bench --json (docs/OBSERVABILITY.md).
// ---------------------------------------------------------------------------

/// Queue-wait / service / end-to-end distributions of one scheduled run.
struct JobLatencySummary {
    HistogramSnapshot queue_wait;
    HistogramSnapshot service;
    HistogramSnapshot e2e;
};

/// Write one snapshot as {count,min,max,mean,sum,p50,p90,p99,p999}.
void write_histogram_json(JsonWriter &w, const HistogramSnapshot &h);

} // namespace udp::runtime
