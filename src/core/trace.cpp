/**
 * @file
 * Tracer implementation and the Chrome trace_event exporter.
 */
#include "trace.hpp"

#include "isa.hpp"
#include "metrics_json.hpp"

#include <ostream>

namespace udp {

std::string_view
trace_event_kind_name(TraceEventKind k)
{
    switch (k) {
      case TraceEventKind::Dispatch: return "dispatch";
      case TraceEventKind::SigMiss: return "sig_miss";
      case TraceEventKind::Action: return "action";
      case TraceEventKind::MemRead: return "mem_read";
      case TraceEventKind::MemWrite: return "mem_write";
      case TraceEventKind::Stall: return "stall";
      case TraceEventKind::Accept: return "accept";
    }
    return "?";
}

Tracer::Tracer(std::size_t ring_capacity) : capacity_(ring_capacity)
{
    if (capacity_ == 0)
        throw UdpError("Tracer: ring capacity must be positive");
}

void
Tracer::record(unsigned lane, TraceEventKind kind, Cycles cycle,
               std::uint32_t a, std::uint32_t b)
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    LaneRing &r = rings_[lane];
    TraceEvent ev;
    ev.cycle = cycle;
    ev.a = a;
    ev.b = b;
    ev.kind = kind;
    ev.lane = static_cast<std::uint8_t>(lane);
    if (r.buf.size() < capacity_) {
        r.buf.push_back(ev);
    } else {
        r.buf[r.next] = ev;
        r.next = (r.next + 1) % capacity_;
    }
    ++r.total;
    ++r.by_kind[static_cast<unsigned>(kind)];
}

std::vector<TraceEvent>
Tracer::events(unsigned lane) const
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    const LaneRing &r = rings_[lane];
    std::vector<TraceEvent> out;
    out.reserve(r.buf.size());
    // `next` is the oldest element once the ring has wrapped.
    for (std::size_t i = 0; i < r.buf.size(); ++i)
        out.push_back(r.buf[(r.next + i) % r.buf.size()]);
    return out;
}

std::uint64_t
Tracer::count(unsigned lane, TraceEventKind kind) const
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    return rings_[lane].by_kind[static_cast<unsigned>(kind)];
}

std::uint64_t
Tracer::total(unsigned lane) const
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    return rings_[lane].total;
}

std::uint64_t
Tracer::dropped(unsigned lane) const
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    return rings_[lane].total - rings_[lane].buf.size();
}

std::vector<unsigned>
Tracer::active_lanes() const
{
    std::vector<unsigned> out;
    for (unsigned l = 0; l < kNumLanes; ++l)
        if (rings_[l].total != 0)
            out.push_back(l);
    return out;
}

void
Tracer::clear()
{
    for (auto &r : rings_) {
        r.buf.clear();
        r.next = 0;
        r.total = 0;
        r.by_kind.fill(0);
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event export.
// ---------------------------------------------------------------------------

namespace {

/// Cycle stamp -> microseconds at the nominal clock (1 cycle = 1 ns).
double
cycles_to_us(Cycles c)
{
    return double(c) * (1e6 / kClockHz);
}

} // namespace

void
write_trace_event(JsonWriter &w, const TraceEvent &ev, Cycles base)
{
    // Durationful kinds render as "X" (complete) slices; the rest as
    // instant events so chrome://tracing draws them as markers.
    const bool slice = ev.kind == TraceEventKind::Dispatch ||
                       ev.kind == TraceEventKind::Action ||
                       ev.kind == TraceEventKind::Stall;
    const Cycles dur =
        ev.kind == TraceEventKind::Stall ? Cycles{ev.b} : Cycles{1};

    w.begin_object();
    w.field("name", trace_event_kind_name(ev.kind));
    w.field("cat", "udp");
    w.field("ph", slice ? "X" : "i");
    // Events are stamped *after* the cycle charge; start the slice at the
    // cycle the work occupied (clamped into this run's window, so a
    // rebased slice can never start before its wave).
    const Cycles start = base + (ev.cycle >= dur ? ev.cycle - dur : 0);
    w.field("ts", cycles_to_us(slice ? start : base + ev.cycle));
    if (slice)
        w.field("dur", cycles_to_us(dur));
    else
        w.field("s", "t"); // thread-scoped instant
    w.field("pid", 0);
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
    w.field("cycle", std::uint64_t{base + ev.cycle});
    w.end_object();
}

void
write_lane_track_metadata(JsonWriter &w, unsigned lane)
{
    // Thread-name metadata so the track reads "lane N".
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", 0);
    w.field("tid", std::uint64_t{lane});
    w.key("args").begin_object();
    w.field("name", "lane " + std::to_string(lane));
    w.end_object();
    w.end_object();
}

void
write_chrome_trace(std::ostream &os, const Tracer &tracer)
{
    JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (const unsigned lane : tracer.active_lanes()) {
        write_lane_track_metadata(w, lane);
        for (const TraceEvent &ev : tracer.events(lane))
            write_trace_event(w, ev);
    }
    w.end_array();
    w.field("displayTimeUnit", "ns");
    w.end_object();
}

} // namespace udp
