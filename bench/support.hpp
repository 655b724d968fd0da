/**
 * @file
 * Shared benchmark support: CPU wall-clock measurement, UDP simulation
 * harnesses per workload, and table printing.
 *
 * Methodology mirrors the paper's Section 4.4:
 *  - "CPU thread" numbers are measured wall-clock on the host (a laptop-
 *    class core, not the paper's Xeon E5620 - absolute rates shift).
 *  - "8-thread CPU" is single-thread x8, the paper's own optimistic
 *    scaling assumption.
 *  - UDP rates come from the cycle-accurate simulation at 1 GHz; 64-lane
 *    throughput is lane rate x achievable parallelism (code-size bound).
 *  - Power: UDP system 0.864 W, CPU TDP 80 W (Table 3).
 */
#pragma once

#include "core/energy.hpp"
#include "core/machine.hpp"
#include "runtime/postmortem.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/spantrace.hpp"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace udp::bench {

/// Measured performance of one workload.
struct WorkloadPerf {
    std::string name;
    double cpu_mbps = 0;       ///< one CPU thread, measured
    double udp_lane_mbps = 0;  ///< one UDP lane, simulated
    unsigned parallelism = 64; ///< lanes the program footprint allows
    LaneStats lane_stats;      ///< simulated lane counters (summed)
    double energy_j = 0;       ///< modeled energy of the simulated run

    // Full-machine run: the same total input chunked over the lanes and
    // executed through the wave Scheduler (docs/RUNTIME.md).
    double udp64_real_mbps = 0; ///< measured from the scheduled run
    unsigned waves = 0;         ///< scheduler waves of that run
    unsigned sim_threads = 0;   ///< host threads used to simulate it
    double sim_host_seconds = 0; ///< host wall-clock of the simulation
    double sim_host_mbps = 0;   ///< host simulation rate (input/host time)

    // Fault containment counters of the scheduled run
    // (docs/ROBUSTNESS.md); all zero on a healthy run.
    unsigned faulted_runs = 0; ///< job runs ending Faulted/TimedOut
    unsigned retries = 0;      ///< faulted runs requeued per RetryPolicy
    unsigned quarantined = 0;  ///< jobs given up on after max_attempts
    /// Jobs of measure_pattern_matching's two scheduled runs that
    /// ended other than Done (a Reject included).
    unsigned jobs_not_done = 0;

    // Per-job latency distributions of the scheduled run (simulated
    // cycles; docs/OBSERVABILITY.md "latency" block).  Empty (count 0)
    // in benches that never run the wave scheduler.
    runtime::JobLatencySummary latency;

    /// Extrapolated 64-lane rate: lane rate x achievable parallelism.
    double udp64_mbps() const { return udp_lane_mbps * parallelism; }
    double speedup_vs_8t() const {
        return cpu_mbps > 0 ? udp64_mbps() / (8 * cpu_mbps) : 0;
    }
    double speedup_real_vs_8t() const {
        return cpu_mbps > 0 && udp64_real_mbps > 0
                   ? udp64_real_mbps / (8 * cpu_mbps)
                   : 0;
    }
    double perf_watt_ratio(const UdpCostModel &m) const {
        const double udp = udp64_mbps() / m.system_power_w();
        const double cpu = 8 * cpu_mbps / m.cpu_tdp_w;
        return cpu > 0 ? udp / cpu : 0;
    }
};

/**
 * Host simulation threads every bench Scheduler run uses.  0 (default)
 * defers to the machine (UDP_SIM_THREADS env, else serial).  Set from
 * `--threads N` by MetricsRecorder before any workload runs.
 */
void set_sim_threads(unsigned n);
unsigned sim_threads_option();

/**
 * The bench-wide lane tracer (core/trace.hpp), attached to every
 * Scheduler via sched_options().  nullptr unless `--trace <path>` was
 * given (the zero-overhead default).  Benches that drive a Machine
 * directly (outside the Scheduler) attach it themselves;
 * MetricsRecorder::finish() absorbs whatever is left in its rings
 * before writing the merged trace file.
 */
Tracer *bench_lane_tracer();

/// Scheduler options every bench run starts from (threads, the
/// MetricsRecorder's sinks — post-mortem capture included — and lane
/// tracer prefilled from the flags).
runtime::SchedulerOptions sched_options();

/// Record a scheduled multi-lane run on `p`: real 64-lane throughput
/// over `bytes` of input, wave count, and host simulation cost.
void attach_schedule(WorkloadPerf &p, const runtime::ScheduleReport &rep,
                     std::uint64_t bytes);

/// Record simulated counters + modeled energy on `p` (single-lane run).
void attach_sim(WorkloadPerf &p, const LaneStats &stats,
                AddressingMode mode = AddressingMode::Restricted);

/// Multi-lane variant: `total` summed over lanes, `wall` the machine time.
void attach_sim(WorkloadPerf &p, const LaneStats &total, Cycles wall,
                unsigned active_lanes,
                AddressingMode mode = AddressingMode::Restricted);

/**
 * Machine-readable benchmark output (`--json <path>`).
 *
 * Every bench main constructs one from argv, feeds it the workloads /
 * scalar metrics it prints, and returns `finish()` as its exit code.
 * Without `--json` on the command line this is a no-op.  The schema is
 * documented in docs/OBSERVABILITY.md.
 *
 * Also parses `--threads N` (host simulation threads, see
 * set_sim_threads; a value that is not an integer in 1..256 in full
 * exits 2) — the resolved count lands in the JSON as the
 * top-level `sim_threads` field — and the observer flags, each of
 * which adds to the `SchedulerOptions::sinks` of every Scheduler the
 * bench runs through sched_options():
 *
 * `--metrics <path>` adds a RegistryTelemetry sink over registry(),
 * which `finish()` dumps as a Prometheus-style text exposition at
 * <path> (docs/OBSERVABILITY.md; validated by
 * tools/check_exposition.py).
 * `--trace <path>` adds a SpanTracer and attaches a lane Tracer;
 * `finish()` writes the merged runtime+lane Chrome trace there
 * (validated by tools/check_trace.py).
 * `--postmortem <dir>` adds a PostmortemSink: every faulted run writes
 * a structured FaultReport JSON into <dir>, and the last 16 reports
 * stay readable through postmortems() (docs/OBSERVABILITY.md "Tracing
 * & post-mortems").
 */
class MetricsRecorder
{
  public:
    MetricsRecorder(std::string bench, int argc, char **argv);
    ~MetricsRecorder();

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

    void add_workload(const WorkloadPerf &p) { workloads_.push_back(p); }
    void add_metric(const std::string &key, double value) {
        metrics_.emplace_back(key, value);
    }

    /// The registry behind --metrics (always usable; only attached to
    /// schedulers and dumped when --metrics was given).
    runtime::MetricRegistry &registry() { return registry_; }

    /// The --postmortem sink (nullptr when the flag was absent).
    const runtime::PostmortemSink *postmortems() const {
        return postmortems_.get();
    }

    /// Write the JSON/exposition files for the flags that were given.
    /// Returns a main() exit code.
    int finish() const;

  private:
    std::string bench_;
    std::string path_;
    std::string metrics_path_;   ///< --metrics exposition dump
    std::string trace_path_;     ///< --trace merged Chrome trace
    std::vector<WorkloadPerf> workloads_;
    std::vector<std::pair<std::string, double>> metrics_;
    runtime::MetricRegistry registry_;
    runtime::RegistryTelemetry sink_;
    // --trace machinery, created only when the flag is present.
    std::unique_ptr<Tracer> lane_tracer_;
    std::unique_ptr<runtime::SpanTracer> spans_;
    std::unique_ptr<runtime::PostmortemSink> postmortems_; ///< --postmortem
};

/// Wall-clock MB/s of `fn` over `bytes` of input (repeats for stability).
double time_cpu_mbps(const std::function<void()> &fn, std::size_t bytes,
                     int min_reps = 3, double min_seconds = 0.05);

/// Geometric mean of positive values.
double geomean(const std::vector<double> &xs);

/// Simple fixed-width table printer.
void print_header(const std::string &title,
                  const std::vector<std::string> &cols);
void print_row(const std::vector<std::string> &cells);
std::string fmt(double v, int prec = 1);

// --- Per-workload measurement (used by Figs 13-22 and Table 4) ------------
// Each runs the CPU baseline (measured) and the UDP kernel (simulated)
// on the same synthetic dataset and returns both rates.

WorkloadPerf measure_csv_parsing();
WorkloadPerf measure_huffman_encode();
WorkloadPerf measure_huffman_decode();
WorkloadPerf measure_pattern_matching(bool complex_set);
WorkloadPerf measure_dictionary(bool rle);
WorkloadPerf measure_histogram();
WorkloadPerf measure_snappy_compress();
WorkloadPerf measure_snappy_decompress();
WorkloadPerf measure_trigger();

/// All nine headline workloads (Fig 21/22 order).
std::vector<WorkloadPerf> measure_all();

} // namespace udp::bench
