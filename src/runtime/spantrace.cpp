/**
 * @file
 * SpanTracer implementation.
 */
#include "spantrace.hpp"

#include "core/isa.hpp"
#include "core/metrics_json.hpp"
#include "runtime/scheduler.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>

namespace udp::runtime {

SpanTracer::SpanTracer(std::size_t max_spans, std::size_t max_lane_events)
    : max_spans_(max_spans), max_lane_events_(max_lane_events)
{
    if (max_spans_ == 0 || max_lane_events_ == 0)
        throw UdpError("SpanTracer: capacities must be positive");
}

void
SpanTracer::on_schedule(std::size_t /*jobs*/)
{
    // Lay this run out after everything already on the timeline, so a
    // bench that schedules several times produces one sequential trace.
    run_base_ = timeline_end_;
    ++run_ordinal_;
}

void
SpanTracer::on_job_run(const JobRunEvent &e)
{
    if (attempts_.size() >= max_spans_) {
        ++dropped_spans_;
        return;
    }
    const JobResult &r = e.result;
    AttemptSpan s;
    s.job_name = e.plan.name;
    s.trace_id = e.trace_id;
    s.job_index = e.job_index;
    s.wave = r.wave;
    s.attempt = r.attempts;
    s.lane = r.lane;
    s.status = r.status;
    s.fault = r.fault.code;
    s.submit = run_base_;
    s.start = run_base_ + r.queue_wait_cycles;
    s.service = r.service_cycles;
    s.end = run_base_ + r.e2e_cycles;
    s.final_disposition = !e.requeued;
    s.quarantined = r.quarantined;
    s.ran = e.ran;
    timeline_end_ = std::max(timeline_end_, s.end);
    attempts_.push_back(std::move(s));
}

void
SpanTracer::on_wave(const WaveEvent &e)
{
    // The wave's lane events are absorbed even when its span is dropped.
    if (e.lane_tracer)
        absorb_lane_events(*e.lane_tracer, e.start_cycle);
    if (waves_.size() >= max_spans_) {
        ++dropped_spans_;
        return;
    }
    WaveSpan s;
    s.index = e.index;
    // 0-based run ordinal (on_schedule pre-increments; waves seen
    // before any on_schedule count as run 0).
    s.run = run_ordinal_ ? run_ordinal_ - 1 : 0;
    s.jobs = e.report.jobs;
    s.banks_used = e.report.banks_used;
    s.start = run_base_ + e.start_cycle;
    s.wall = e.report.wall_cycles;
    s.host_seconds = e.report.host_seconds;
    timeline_end_ = std::max(timeline_end_, s.start + s.wall);
    waves_.push_back(s);
}

void
SpanTracer::absorb_lane_events(const Tracer &t, Cycles wave_start)
{
    const Cycles base = run_base_ + wave_start;
    for (const unsigned lane : t.active_lanes()) {
        dropped_lane_events_ += t.dropped(lane); // evicted before absorb
        for (const TraceEvent &ev : t.events(lane)) {
            if (lane_events_.size() >= max_lane_events_) {
                ++dropped_lane_events_;
                continue;
            }
            lane_events_.push_back({ev, base});
            timeline_end_ =
                std::max(timeline_end_, base + ev.cycle);
        }
    }
}

void
SpanTracer::clear()
{
    attempts_.clear();
    waves_.clear();
    lane_events_.clear();
    dropped_spans_ = 0;
    dropped_lane_events_ = 0;
    run_base_ = timeline_end_ = 0;
    run_ordinal_ = 0;
}

namespace {

/// Cycle stamp -> microseconds at the nominal clock (1 cycle = 1 ns).
double
cycles_to_us(Cycles c)
{
    return double(c) * (1e6 / kClockHz);
}

/// Process ids of the merged trace: the machine's lane tracks sit under
/// pid 0, the scheduler above them.
constexpr int kMachinePid = 0;
constexpr int kSchedulerPid = 1;
constexpr std::uint64_t kWaveTid = 0;
constexpr std::uint64_t kJobTid = 1;

/// One sortable record of the merged emission.  Records are sorted by
/// (pid, tid, ts, rank, -dur) so every track's timestamps come out
/// monotone and, at equal timestamps, enclosing slices precede enclosed
/// ones ("b" before children, longer "X" first, "e" closes inner-out).
struct Rec {
    enum class Type : std::uint8_t {
        Micro,        ///< lane micro-event (write_lane_event)
        AttemptSlice, ///< X slice on the lane track
        WaveSlice,    ///< X slice on the scheduler wave track
        JobBegin,     ///< async b on the scheduler job track
        JobEnd,       ///< async e
        AttemptBegin, ///< async b nested inside the job span
        AttemptEnd,   ///< async e
    };
    int pid = 0;
    std::uint64_t tid = 0;
    Cycles ts = 0;
    int rank = 500;
    Cycles dur = 0;
    Type type = Type::Micro;
    std::size_t idx = 0; ///< into attempts_ / waves_ / lane_events_

    bool operator<(const Rec &o) const {
        if (pid != o.pid) return pid < o.pid;
        if (tid != o.tid) return tid < o.tid;
        if (ts != o.ts) return ts < o.ts;
        if (rank != o.rank) return rank < o.rank;
        return dur > o.dur; // longer slice first => proper nesting
    }
};

void
write_process_metadata(JsonWriter &w, int pid, const char *name)
{
    w.begin_object();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("tid", std::uint64_t{0});
    w.key("args").begin_object();
    w.field("name", name);
    w.end_object();
    w.end_object();
}

void
write_thread_metadata(JsonWriter &w, int pid, std::uint64_t tid,
                      const std::string &name)
{
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("tid", tid);
    w.key("args").begin_object();
    w.field("name", name);
    w.end_object();
    w.end_object();
}

std::string
trace_id_string(std::uint64_t id)
{
    return "job-" + std::to_string(id);
}

/// Lane micro-events with a duration render as "X" (complete) slices;
/// the rest as instant events, which chrome://tracing draws as markers.
bool
is_slice(TraceEventKind k)
{
    return k == TraceEventKind::Dispatch || k == TraceEventKind::Action ||
           k == TraceEventKind::Stall;
}

/// The sort record of a lane micro-event whose wave opened at global
/// cycle `base`.  Events are stamped *after* the cycle charge, so a
/// slice starts at the cycle the work occupied, clamped into its wave
/// so a rebased slice can never start before the wave.
Rec
lane_event_rec(const TraceEvent &ev, Cycles base, std::size_t idx)
{
    Rec r;
    r.pid = kMachinePid;
    r.tid = ev.lane;
    r.type = Rec::Type::Micro;
    r.idx = idx;
    if (is_slice(ev.kind)) {
        r.dur = ev.kind == TraceEventKind::Stall ? Cycles{ev.b} : Cycles{1};
        r.ts = base + (ev.cycle >= r.dur ? ev.cycle - r.dur : 0);
    } else {
        r.ts = base + ev.cycle;
    }
    return r;
}

/// Emit one lane micro-event at the stamp `r` holds; `cycle` is its
/// global cycle stamp.
void
write_lane_event(JsonWriter &w, const TraceEvent &ev, const Rec &r,
                 Cycles cycle)
{
    const bool slice = is_slice(ev.kind);
    w.begin_object();
    w.field("name", trace_event_kind_name(ev.kind));
    w.field("cat", "udp");
    w.field("ph", slice ? "X" : "i");
    w.field("ts", cycles_to_us(r.ts));
    if (slice)
        w.field("dur", cycles_to_us(r.dur));
    else
        w.field("s", "t"); // thread-scoped instant
    w.field("pid", kMachinePid);
    w.field("tid", std::uint64_t{ev.lane});
    w.key("args").begin_object();
    switch (ev.kind) {
      case TraceEventKind::Dispatch:
      case TraceEventKind::SigMiss:
        w.field("state_base", std::uint64_t{ev.a});
        w.field("symbol", std::uint64_t{ev.b});
        break;
      case TraceEventKind::Action:
        w.field("addr", std::uint64_t{ev.a});
        if (opcode_valid(ev.b))
            w.field("op", opcode_name(static_cast<Opcode>(ev.b)));
        else
            w.field("op", std::uint64_t{ev.b});
        break;
      case TraceEventKind::MemRead:
      case TraceEventKind::MemWrite:
        w.field("addr", std::uint64_t{ev.a});
        break;
      case TraceEventKind::Stall:
        w.field("addr", std::uint64_t{ev.a});
        w.field("stall_cycles", std::uint64_t{ev.b});
        break;
      case TraceEventKind::Accept:
        w.field("id", std::uint64_t{ev.a});
        break;
    }
    w.end_object();
    w.field("cycle", std::uint64_t{cycle});
    w.end_object();
}

} // namespace

void
SpanTracer::write_chrome_trace(std::ostream &os) const
{
    JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.key("traceEvents").begin_array();

    // Track metadata first: process names, scheduler tracks, and one
    // thread_name per lane that appears anywhere in the trace.
    write_process_metadata(w, kSchedulerPid, "udp scheduler");
    write_process_metadata(w, kMachinePid, "udp machine");
    write_thread_metadata(w, kSchedulerPid, kWaveTid, "waves");
    write_thread_metadata(w, kSchedulerPid, kJobTid, "jobs");
    std::set<unsigned> lanes;
    for (const AttemptSpan &a : attempts_)
        if (a.ran)
            lanes.insert(a.lane);
    for (const PlacedEvent &pe : lane_events_)
        lanes.insert(pe.ev.lane);
    for (const unsigned lane : lanes)
        write_thread_metadata(w, kMachinePid, lane,
                              "lane " + std::to_string(lane));

    // Build the sortable record list.
    std::vector<Rec> recs;
    recs.reserve(lane_events_.size() + attempts_.size() * 4 +
                 waves_.size());
    for (std::size_t i = 0; i < lane_events_.size(); ++i)
        recs.push_back(
            lane_event_rec(lane_events_[i].ev, lane_events_[i].base, i));
    for (std::size_t i = 0; i < attempts_.size(); ++i) {
        const AttemptSpan &a = attempts_[i];
        if (a.ran) {
            // The lane-track slice: the lane was busy
            // [start, start+service].
            recs.push_back({kMachinePid, a.lane, a.start, 400, a.service,
                            Rec::Type::AttemptSlice, i});
            // The job-track async span: b/e per attempt, nested inside
            // the job span for final dispositions.
            recs.push_back({kSchedulerPid, kJobTid, a.start, 1, 0,
                            Rec::Type::AttemptBegin, i});
            recs.push_back({kSchedulerPid, kJobTid, a.start + a.service,
                            900, 0, Rec::Type::AttemptEnd, i});
        }
        if (a.final_disposition) {
            recs.push_back({kSchedulerPid, kJobTid, a.submit, 0, 0,
                            Rec::Type::JobBegin, i});
            recs.push_back({kSchedulerPid, kJobTid, a.end, 901, 0,
                            Rec::Type::JobEnd, i});
        }
    }
    for (std::size_t i = 0; i < waves_.size(); ++i) {
        const WaveSpan &ws = waves_[i];
        recs.push_back({kSchedulerPid, kWaveTid, ws.start, 500, ws.wall,
                        Rec::Type::WaveSlice, i});
    }
    std::sort(recs.begin(), recs.end());

    for (const Rec &r : recs) {
        switch (r.type) {
          case Rec::Type::Micro: {
            const PlacedEvent &pe = lane_events_[r.idx];
            write_lane_event(w, pe.ev, r, pe.base + pe.ev.cycle);
            break;
          }
          case Rec::Type::AttemptSlice: {
            const AttemptSpan &a = attempts_[r.idx];
            w.begin_object();
            w.field("name", a.job_name + "#" +
                                std::to_string(a.job_index) + " attempt " +
                                std::to_string(a.attempt));
            w.field("cat", "udp.attempt");
            w.field("ph", "X");
            w.field("ts", cycles_to_us(a.start));
            w.field("dur", cycles_to_us(a.service));
            w.field("pid", kMachinePid);
            w.field("tid", std::uint64_t{a.lane});
            w.key("args").begin_object();
            w.field("trace_id", a.trace_id);
            w.field("job", a.job_name);
            w.field("wave", a.wave);
            w.field("attempt", a.attempt);
            w.field("status", lane_status_name(a.status));
            if (a.fault != FaultCode::None)
                w.field("fault", fault_code_name(a.fault));
            w.field("queue_wait_cycles",
                    std::uint64_t{a.start - a.submit});
            w.field("service_cycles", std::uint64_t{a.service});
            w.end_object();
            w.end_object();
            break;
          }
          case Rec::Type::WaveSlice: {
            const WaveSpan &ws = waves_[r.idx];
            w.begin_object();
            w.field("name", "wave " + std::to_string(ws.index));
            w.field("cat", "udp.wave");
            w.field("ph", "X");
            w.field("ts", cycles_to_us(ws.start));
            w.field("dur", cycles_to_us(ws.wall));
            w.field("pid", kSchedulerPid);
            w.field("tid", kWaveTid);
            w.key("args").begin_object();
            w.field("run", ws.run);
            w.field("jobs", ws.jobs);
            w.field("banks_used", ws.banks_used);
            // Host wall-clock of the wave: the secondary clock next to
            // the deterministic simulated-cycle timeline.
            w.field("host_seconds", ws.host_seconds);
            w.end_object();
            w.end_object();
            break;
          }
          case Rec::Type::JobBegin:
          case Rec::Type::JobEnd: {
            const AttemptSpan &a = attempts_[r.idx];
            w.begin_object();
            w.field("name",
                    "job " + a.job_name + "#" +
                        std::to_string(a.job_index));
            w.field("cat", "udp.job");
            w.field("ph", r.type == Rec::Type::JobBegin ? "b" : "e");
            w.field("id", trace_id_string(a.trace_id));
            w.field("ts", cycles_to_us(r.ts));
            w.field("pid", kSchedulerPid);
            w.field("tid", kJobTid);
            w.key("args").begin_object();
            if (r.type == Rec::Type::JobEnd) {
                w.field("status", lane_status_name(a.status));
                w.field("attempts", a.attempt);
                w.field("quarantined", a.quarantined);
                w.field("e2e_cycles", std::uint64_t{a.end - a.submit});
            } else {
                w.field("trace_id", a.trace_id);
            }
            w.end_object();
            w.end_object();
            break;
          }
          case Rec::Type::AttemptBegin:
          case Rec::Type::AttemptEnd: {
            const AttemptSpan &a = attempts_[r.idx];
            w.begin_object();
            w.field("name", "attempt " + std::to_string(a.attempt));
            w.field("cat", "udp.job");
            w.field("ph", r.type == Rec::Type::AttemptBegin ? "b" : "e");
            w.field("id", trace_id_string(a.trace_id));
            w.field("ts", cycles_to_us(r.ts));
            w.field("pid", kSchedulerPid);
            w.field("tid", kJobTid);
            w.key("args").begin_object();
            if (r.type == Rec::Type::AttemptBegin) {
                w.field("wave", a.wave);
                w.field("lane", a.lane);
            } else {
                w.field("status", lane_status_name(a.status));
            }
            w.end_object();
            w.end_object();
            break;
          }
        }
    }

    // Surface capped data loss in the trace itself rather than silently
    // truncating the timeline.
    if (dropped_spans_ || dropped_lane_events_) {
        w.begin_object();
        w.field("name", "trace data dropped");
        w.field("cat", "udp");
        w.field("ph", "i");
        w.field("ts", cycles_to_us(timeline_end_));
        w.field("s", "g");
        w.field("pid", kSchedulerPid);
        w.field("tid", kWaveTid);
        w.key("args").begin_object();
        w.field("dropped_spans", dropped_spans_);
        w.field("dropped_lane_events", dropped_lane_events_);
        w.end_object();
        w.end_object();
    }

    w.end_array();
    w.field("displayTimeUnit", "ns");
    w.end_object();
}

bool
SpanTracer::write_file(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    write_chrome_trace(os);
    os.flush();
    return bool(os);
}

} // namespace udp::runtime
