/**
 * @file
 * The perf ledger: one program that measures the system end to end on
 * three workloads (etl_offload, rule_update, service_mix) and, in a
 * separate traced run, layer by layer.
 *
 * Every metric carries its clock: `host` numbers are wall or CPU time of
 * this process on the machine running it; `sim` numbers are simulated
 * cycles of the modelled UDP at 1 GHz (exact, repeatable, and not
 * validated against silicon); `count` numbers are event counts.
 *
 * Tracing lives only in the benchmark: a Spans recorder wraps each call
 * the traced run makes into a layer's public functions, keeps one span
 * per call in memory, and writes them out as a Chrome trace at exit.
 */
#pragma once

#include "core/stats.hpp"
#include "runtime/scheduler.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Command-line knobs of one workload run.
struct RunConfig {
    std::uint64_t seed = 1;
    double seconds = 10;     ///< measured window (split in two when traced)
    bool trace = false;      ///< also run the traced half
    bool setup_only = false; ///< stop after the first completed request
    /// A few requests at small scale: fills the per-layer metrics of the
    /// layers another workload's traced run does not exercise.
    bool probe = false;
};

// --- statistics and host measures -----------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// User + system CPU seconds of this process so far.
double cpu_seconds();

// --- metrics ----------------------------------------------------------------

/// One reported number with its unit and clock ("host", "sim", "count").
struct Metric {
    double value = 0;
    std::string unit;
    std::string clock;
};

/**
 * What one workload run reports.  `e2e` holds the BENCHMARK.json
 * end-to-end metrics (untraced run), `layer` the per-layer metrics
 * (traced run; names must be in the per-layer catalog), `named` the
 * workload-specific names (load_mbps, ruleset_ms_p90, goodput_jps, ...)
 * and fail_frac, printed for humans.
 */
struct Report {
    std::map<std::string, Metric> e2e;
    std::map<std::string, Metric> named;
    std::map<std::string, double> layer;
    std::map<std::string, std::string> env;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< first few mismatches, for humans

    void set_e2e(const std::string &name, double v, const char *unit,
                 const char *clock);
    void set_named(const std::string &name, double v, const char *unit,
                   const char *clock);
    /// Per-layer metric; throws on a name missing from the catalog.
    void set_layer(const std::string &name, double v);
    /// Count one failed request, keeping its description.
    void fail(const std::string &why);
};

/// One per-layer catalog row (the names BENCHMARK.json lists).
struct LayerMetricInfo {
    const char *name;
    const char *unit;
    const char *clock;
};
const std::vector<LayerMetricInfo> &layer_catalog();

// --- spans ------------------------------------------------------------------

/**
 * In-memory span recorder for the traced run.  Single-threaded: every
 * span is opened and closed on the benchmark's own thread, so spans nest
 * as a stack and one track holds them all.
 */
class Spans
{
  public:
    struct Span {
        const char *layer;
        const char *name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int32_t parent; ///< index into spans(), -1 for a root
        std::uint64_t req;   ///< request id shared by a request's spans
    };

    /// RAII span: opened on construction, closed on destruction.
    class Scope
    {
      public:
        Scope(Spans *s, const char *layer, const char *name,
              std::uint64_t req);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *s_;
        std::int32_t ix_ = -1;
    };

    Spans();

    /**
     * The Scheduler's per-wave host phases (setup, simulate, harvest) as
     * child spans of the innermost open span.  They are rebuilt from the
     * report's WaveReport durations and laid end to end from the open
     * span's start; the Scheduler itself records no spans.
     */
    void wave_phases(const udp::runtime::ScheduleReport &rep,
                     std::uint64_t req);

    /// Summed duration of all spans called `name`, in seconds.
    double total_s(const std::string &name) const;
    std::size_t calls(const std::string &name) const;

    /// Self time per layer: a span's duration minus what its direct
    /// children cover, summed by layer, in seconds.
    std::map<std::string, double> self_s_by_layer() const;

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write the first `max_spans` spans (by start) as Chrome trace_event
     * JSON ("X" slices, timestamps in whole microseconds, floored so
     * nesting is exact).  Returns false when the file cannot be written.
     */
    bool write_chrome(const std::string &path, std::size_t max_spans) const;

  private:
    std::int32_t open(const char *layer, const char *name,
                      std::uint64_t req);
    void close(std::int32_t ix);
    std::int64_t now_ns() const;

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/// Open a span on `s` when tracing (s != nullptr); a no-op otherwise.
#define LEDGER_SPAN(var, s, layer, name, req)                                \
    ::ledger::Spans::Scope var((s), (layer), (name), (req))

// --- scheduler accounting -----------------------------------------------------

/// Sums over a set of ScheduleReports: exact simulated totals plus the
/// host phase times the Scheduler reports per wave.
struct SchedTotals {
    udp::LaneStats sim;        ///< summed lane counters (exact)
    udp::Cycles wall_cycles = 0; ///< summed machine time (exact)
    std::uint64_t jobs = 0;
    std::uint64_t waves = 0;
    std::uint64_t active_lanes = 0; ///< summed over waves
    std::uint64_t retries = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t cancelled = 0;
    double host_setup_s = 0;
    double host_simulate_s = 0;
    double host_harvest_s = 0;

    void add(const udp::runtime::ScheduleReport &rep);
    void add(const SchedTotals &o);
    /// Input MB per simulated second at the nominal clock.
    double sim_mbps() const;
};

/// Report the exact sim.* counters of `t` on `r`.
void set_sim_layer(Report &r, const SchedTotals &t);

/// Report the runtime.* metrics derivable from scheduler totals
/// (per-job phase times, waves per request, occupancy, fault counts per
/// thousand jobs).  `lane_cap` is the deployment's jobs-per-wave cap.
void set_runtime_layer(Report &r, const SchedTotals &t, double requests,
                       unsigned lane_cap);

/// Report the span-derived self times (`<layer>.self_ms`, per request)
/// and the span count.
void set_span_layer(Report &r, const Spans &sp, double requests);

// --- workloads ----------------------------------------------------------------

void run_etl_offload(const RunConfig &cfg, Report &r, Spans *sp);
void run_rule_update(const RunConfig &cfg, Report &r, Spans *sp);
void run_service_mix(const RunConfig &cfg, Report &r, Spans *sp);

/// Determinism checks: simulated results repeat exactly across runs
/// (and across 1 vs 2 host threads for etl).  Returns mismatch count.
int determinism_etl_offload(std::uint64_t seed);
int determinism_rule_update(std::uint64_t seed);
int determinism_service_mix(std::uint64_t seed);

} // namespace ledger
