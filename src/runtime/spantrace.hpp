/**
 * @file
 * Causal runtime tracing: job/wave spans merged with lane micro-events
 * (docs/OBSERVABILITY.md).
 *
 * The telemetry layer (PR 6) aggregates; it cannot answer "why was
 * *this* job slow".  `SpanTracer` records causality: it is a
 * TelemetrySink that turns Scheduler lifecycle events into nested
 * spans — job → attempt (retries are sibling attempts) → wave →
 * lane-run — and interleaves them with the core Tracer's per-lane
 * micro-events on one shared timeline.  The export is Chrome
 * `trace_event` JSON (Perfetto-loadable): one file shows the
 * scheduler's decisions stacked directly above the micro-ops they
 * caused.  Timestamps are deterministic *simulated* cycles (1 cycle =
 * 1 ns at the nominal clock); per-wave host seconds ride along in span
 * args as a secondary clock.  It is the one trace exporter: a Tracer
 * driven outside any Scheduler exports through `absorb_lane_events`
 * then `write_chrome_trace`.
 *
 * Purely observational, following the telemetry sink discipline: a
 * Scheduler without sinks (the default) builds no event and changes
 * nothing.
 */
#pragma once

#include "core/trace.hpp"
#include "runtime/telemetry.hpp"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace udp::runtime {

/// One attempt of one job, placed on the shared timeline.
struct AttemptSpan {
    std::string job_name;       ///< copied: plans die before export
    std::uint64_t trace_id = 0; ///< unique per job across scheduler runs
    std::size_t job_index = 0;
    unsigned wave = 0;
    unsigned attempt = 1;
    unsigned lane = 0;
    LaneStatus status = LaneStatus::Done;
    FaultCode fault = FaultCode::None;
    Cycles submit = 0;  ///< global cycle the job was submitted
    Cycles start = 0;   ///< global cycle the attempt's wave opened
    Cycles service = 0; ///< lane cycles of this run
    Cycles end = 0;     ///< global cycle the result became visible
    bool final_disposition = false;
    bool quarantined = false;
    /// False for a job cancelled before staging: only its job span is
    /// drawn, with no attempt on a lane.
    bool ran = true;
};

/// One closed scheduler wave on the shared timeline.
struct WaveSpan {
    unsigned index = 0; ///< wave index within its scheduler run
    unsigned run = 0;   ///< 0-based scheduler-run ordinal within the trace
    unsigned jobs = 0;
    unsigned banks_used = 0;
    Cycles start = 0; ///< global cycle the wave opened
    Cycles wall = 0;
    double host_seconds = 0; ///< secondary (host) clock for this wave
};

/// Default cap on retained spans / absorbed lane micro-events; keep-first
/// with a dropped counter, bounding trace files in CI.
inline constexpr std::size_t kDefaultMaxSpans = std::size_t{1} << 16;
inline constexpr std::size_t kDefaultMaxLaneEvents = std::size_t{1} << 16;

/**
 * Builds one merged Chrome trace from scheduler lifecycle events and
 * lane micro-events.
 *
 * Lifecycle events arrive through the TelemetrySink interface, so a
 * SpanTracer drops into `SchedulerOptions::sinks` next to any other
 * sink.  Lane cycle stamps are wave-local (the Scheduler clears the
 * Tracer every wave); `on_wave` absorbs the wave's lane events rebased
 * by the wave's global start cycle, so micro-ops land inside their
 * attempt's span.  Successive scheduler runs through one SpanTracer
 * lay out sequentially (`on_schedule` advances the run base to the
 * current timeline end); trace ids come from the events.
 *
 * Not thread-safe: lifecycle events are emitted from the scheduler
 * caller's thread (telemetry.hpp); use one SpanTracer per run stream.
 */
class SpanTracer final : public TelemetrySink
{
  public:
    explicit SpanTracer(std::size_t max_spans = kDefaultMaxSpans,
                        std::size_t max_lane_events = kDefaultMaxLaneEvents);

    // TelemetrySink: a scheduler run starts (lay it out after
    // everything already recorded) / one attempt harvested / one wave
    // closed (its span, plus the lane events of `e.lane_tracer`).
    void on_schedule(std::size_t jobs) override;
    void on_job_run(const JobRunEvent &e) override;
    void on_wave(const WaveEvent &e) override;

    /// Pull the retained micro-events out of `t`, rebased so run-local
    /// cycle 0 lands at global cycle `wave_start` (the emitting wave's
    /// queue wait).  The caller clears the tracer afterwards — stamps
    /// restart per wave, so stale events would rebase wrongly.
    void absorb_lane_events(const Tracer &t, Cycles wave_start);

    /// Emit everything as one Chrome trace_event JSON document:
    /// scheduler pid (wave + job async tracks) above the machine pid
    /// (one track per lane: attempt slices over micro-events).
    void write_chrome_trace(std::ostream &os) const;

    /// Convenience: write the trace to a file; false on I/O failure.
    bool write_file(const std::string &path) const;

    /// Drop all recorded spans and events (the timeline restarts at 0).
    void clear();

    // Accessors for tests / capacity introspection.
    const std::vector<AttemptSpan> &attempts() const { return attempts_; }
    const std::vector<WaveSpan> &waves() const { return waves_; }
    std::size_t lane_event_count() const { return lane_events_.size(); }
    std::uint64_t dropped_spans() const { return dropped_spans_; }
    std::uint64_t dropped_lane_events() const { return dropped_lane_events_; }
    Cycles timeline_end() const { return timeline_end_; }

  private:
    struct PlacedEvent {
        TraceEvent ev;
        Cycles base = 0; ///< global cycle of the event's wave start
    };

    std::size_t max_spans_;
    std::size_t max_lane_events_;
    std::vector<AttemptSpan> attempts_;
    std::vector<WaveSpan> waves_;
    std::vector<PlacedEvent> lane_events_;
    std::uint64_t dropped_spans_ = 0;
    std::uint64_t dropped_lane_events_ = 0;
    Cycles run_base_ = 0;     ///< global cycle this scheduler run starts at
    Cycles timeline_end_ = 0; ///< latest global cycle seen
    unsigned run_ordinal_ = 0; ///< on_schedule count
};

} // namespace udp::runtime
