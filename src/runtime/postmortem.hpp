/**
 * @file
 * Post-mortem fault reports (docs/ROBUSTNESS.md, docs/OBSERVABILITY.md).
 *
 * Aggregate fault counters (PR 6) say *how often* lanes trap; a
 * post-mortem says what lane 37 was doing in the cycles before it did.
 * When a scheduled run ends Faulted or TimedOut the Scheduler snapshots
 * a `FaultReport`: the structured LaneFault, the job's attempt history,
 * the lane's recent micro-event ring (when a Tracer is attached), and a
 * defensive disassembly of the state the automaton trapped in.  Reports
 * are serialized via `metrics_json` to a `--postmortem <dir>` path and
 * the Scheduler keeps the last N queryable in memory — the future
 * `udpd` `/debug` endpoint reads that deque.
 */
#pragma once

#include "core/fault.hpp"
#include "core/lane.hpp"
#include "core/trace.hpp"

#include <cstdint>
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

/// Cap on report *files* one scheduler run writes into
/// `PostmortemPolicy::dir` (a mass-timeout run can fault hundreds of
/// times; the first reports carry the diagnosis).  In-memory capture
/// ignores this cap.  Filenames are deterministic per (job, attempt),
/// so successive runs into the same dir overwrite matching reports.
inline constexpr std::size_t kMaxPostmortemFiles = 64;

/// Post-mortem capture knobs (SchedulerOptions::postmortem).
struct PostmortemPolicy {
    /// Directory reports are written to ("" = don't write files;
    /// in-memory capture still happens when `keep_last` > 0).  Created
    /// on first write if missing.  At most kMaxPostmortemFiles per run.
    std::string dir;
    /// Reports the Scheduler keeps queryable in memory, oldest evicted
    /// (0 = none).  Capture is fully off — one branch per faulted run —
    /// when this is 0 and `dir` is empty (the default).
    std::size_t keep_last = 0;
};

} // namespace udp::runtime
