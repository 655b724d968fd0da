/**
 * @file
 * Post-mortem fault reports (docs/ROBUSTNESS.md, docs/OBSERVABILITY.md).
 *
 * Aggregate fault counters say *how often* lanes trap; a post-mortem
 * says what lane 37 was doing in the cycles before it did.
 * `PostmortemSink` is a lifecycle sink (telemetry.hpp): put it in
 * `SchedulerOptions::sinks` and every scheduled run that ends Faulted or
 * TimedOut becomes a `FaultReport` — the structured LaneFault, the
 * job's attempt history, the lane's recent micro-event ring (when a
 * Tracer is attached), and a defensive disassembly of the state the
 * automaton trapped in.  The sink serializes reports via `metrics_json`
 * into its directory (a bench's `--postmortem <dir>`) and keeps the last
 * N queryable in memory; udp_service drains its own sink into
 * per-tenant rings after every batch.
 */
#pragma once

#include "core/fault.hpp"
#include "core/lane.hpp"
#include "core/trace.hpp"
#include "runtime/telemetry.hpp"

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace udp {
class JsonWriter;
}

namespace udp::runtime {

/// Outcome of one earlier attempt of the same job (newest last).
struct AttemptOutcome {
    unsigned wave = 0;
    unsigned attempt = 1;
    LaneStatus status = LaneStatus::Done;
    FaultCode fault = FaultCode::None;
    Cycles cycle = 0; ///< simulated cycle of that attempt's trap
};

/// Structured snapshot of one faulted job run.
struct FaultReport {
    std::string job_name;
    std::size_t job_index = 0;
    std::uint64_t trace_id = 0; ///< matches the trace file's job span
    unsigned wave = 0;
    unsigned attempt = 1;       ///< attempt this report describes
    unsigned max_attempts = 1;  ///< the retry policy's cap
    unsigned lane = 0;
    LaneStatus status = LaneStatus::Faulted;
    LaneFault fault;            ///< what/where/when the lane trapped
    bool quarantined = false;   ///< final disposition (won't rerun)
    bool will_retry = false;    ///< requeued into a later wave
    Cycles queue_wait_cycles = 0;
    Cycles service_cycles = 0;
    /// Prior faulted attempts of the same job, oldest first.
    std::vector<AttemptOutcome> attempt_history;
    /// The lane's recent micro-events at the moment of capture (empty
    /// when no Tracer was attached), oldest first.
    std::vector<TraceEvent> recent_events;
    std::uint64_t dropped_events = 0; ///< evicted from the ring before capture
    /// Listing of the state the automaton trapped in (never throws on
    /// poisoned programs — see disassemble_state).
    std::string disassembly;
};

/// Emit one report as a JSON object under the writer's current position.
void write_fault_report_json(JsonWriter &w, const FaultReport &r);

/// Write one report as a standalone JSON document; false on I/O failure.
bool write_fault_report_file(const std::string &path, const FaultReport &r);

/// Deterministic filename for a report within a --postmortem dir:
/// "postmortem-job<index>-attempt<N>.json".
std::string postmortem_filename(const FaultReport &r);

/// Cap on report *files* a PostmortemSink writes per scheduler run (a
/// mass-timeout run can fault hundreds of times; the first reports
/// carry the diagnosis).  In-memory capture ignores this cap.
/// Filenames are deterministic per (job, attempt), so successive runs
/// into the same dir overwrite matching reports.
inline constexpr std::size_t kMaxPostmortemFiles = 64;

/**
 * Post-mortem capture as a lifecycle sink.  Each Faulted or TimedOut
 * run that was not cancelled becomes one FaultReport, written as
 * `<dir>/postmortem_filename(report)` (at most kMaxPostmortemFiles per
 * scheduler run; `dir` is created on first write) when `dir` is set,
 * and appended to reports(), which keeps the newest `keep_last` (0
 * keeps none).  `on_schedule` restarts the file cap and the attempt
 * history, so one sink can serve any number of Schedulers in turn and
 * a report lists only its own run's attempts.
 *
 * Not thread-safe, like SpanTracer: events arrive from the thread that
 * drives the Scheduler, and reports() is read from that thread or after
 * it is joined.
 */
class PostmortemSink final : public TelemetrySink
{
  public:
    explicit PostmortemSink(std::string dir = {},
                            std::size_t keep_last = ~std::size_t{0});

    void on_schedule(std::size_t jobs) override;
    void on_job_run(const JobRunEvent &e) override;
    void on_wave(const WaveEvent &) override {}

    /// The newest `keep_last` reports, oldest first.  A caller may
    /// drain it (udp_service clears it after every batch).
    std::deque<FaultReport> &reports() { return reports_; }
    const std::deque<FaultReport> &reports() const { return reports_; }

    /// Directory reports are written to ("" = none).
    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
    std::size_t keep_last_;
    std::size_t files_written_ = 0; ///< this scheduler run's files
    /// Faulted attempts of each job of this run, oldest first, keyed by
    /// trace id: the next report's attempt history.
    std::map<std::uint64_t, std::vector<AttemptOutcome>> history_;
    std::deque<FaultReport> reports_;
};

} // namespace udp::runtime
