/**
 * @file
 * Zero-overhead-when-off event tracing for the UDP simulator.
 *
 * A `Tracer` owns one fixed-capacity ring buffer per lane.  When a lane
 * has a tracer attached (`Lane::set_tracer`), the interpreter records one
 * `TraceEvent` per micro-architectural event — multi-way dispatch,
 * signature miss (aux-chain fallback), action execution, local-memory
 * access, bank-conflict stall, and accept — stamped with the lane's cycle
 * counter.  With no tracer attached (the default) the hooks are a single
 * predicted-not-taken null check, so simulation rates are unaffected.
 *
 * The ring keeps the most recent `ring_capacity` events per lane; lifetime
 * per-kind counters keep counting past the capacity so totals always match
 * `LaneStats` even when old events have been overwritten.
 *
 * `write_chrome_trace` exports the buffers as Chrome `trace_event` JSON
 * (the chrome://tracing / Perfetto "JSON Array Format"): one track (tid)
 * per lane, timestamps in microseconds at the nominal 1 GHz clock, so one
 * cycle renders as 1 ns.
 */
#pragma once

#include "types.hpp"

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace udp {

class JsonWriter; // metrics_json.hpp

/// The event kinds the lane interpreter emits.
enum class TraceEventKind : std::uint8_t {
    Dispatch = 0, ///< multi-way dispatch; a = state base, b = symbol
    SigMiss,      ///< labeled-slot signature miss; a = state base, b = symbol
    Action,       ///< action executed; a = action word address, b = opcode
    MemRead,      ///< local-memory read; a = physical byte address
    MemWrite,     ///< local-memory write; a = physical byte address
    Stall,        ///< bank-conflict stall; a = address, b = stall cycles
    Accept,       ///< Accept action; a = accept id
};

/// Number of trace event kinds.
inline constexpr unsigned kNumTraceEventKinds = 7;

/// Printable kind name ("dispatch", "sig_miss", ...).
std::string_view trace_event_kind_name(TraceEventKind k);

/// One recorded event.
struct TraceEvent {
    Cycles cycle = 0;      ///< lane cycle counter at the event
    std::uint32_t a = 0;   ///< kind-specific payload (see TraceEventKind)
    std::uint32_t b = 0;   ///< kind-specific payload (symbol/opcode/stalls)
    TraceEventKind kind = TraceEventKind::Dispatch;
    std::uint8_t lane = 0;
};

/// Default per-lane ring capacity (events).
inline constexpr std::size_t kDefaultTraceRingCapacity = 1u << 16;

/**
 * Per-lane ring-buffered event recorder.  Not thread-safe: one Tracer per
 * Machine, recorded from the (single-threaded) simulation loop.
 */
class Tracer
{
  public:
    explicit Tracer(std::size_t ring_capacity = kDefaultTraceRingCapacity);

    /// Record one event (called from the lane hot loops).
    void record(unsigned lane, TraceEventKind kind, Cycles cycle,
                std::uint32_t a, std::uint32_t b);

    /// Events currently retained for `lane`, oldest first.
    std::vector<TraceEvent> events(unsigned lane) const;

    /// Lifetime count of `kind` events on `lane` (not capped by the ring).
    std::uint64_t count(unsigned lane, TraceEventKind kind) const;

    /// Lifetime count of all events on `lane`.
    std::uint64_t total(unsigned lane) const;

    /// Events evicted from `lane`'s ring (total - retained).
    std::uint64_t dropped(unsigned lane) const;

    /// Lanes that recorded at least one event.
    std::vector<unsigned> active_lanes() const;

    std::size_t ring_capacity() const { return capacity_; }

    /// Drop all recorded events and reset counters.
    void clear();

  private:
    struct LaneRing {
        std::vector<TraceEvent> buf; ///< grows to capacity, then wraps
        std::size_t next = 0;        ///< overwrite cursor once full
        std::uint64_t total = 0;
        std::array<std::uint64_t, kNumTraceEventKinds> by_kind{};
    };

    std::size_t capacity_;
    std::array<LaneRing, kNumLanes> rings_;
};

/// Serialize the retained events as Chrome trace_event JSON.
void write_chrome_trace(std::ostream &os, const Tracer &tracer);

// --- Merged-timeline export hooks (runtime/spantrace.hpp) ------------------
// The runtime span tracer interleaves lane micro-events with its own
// scheduler spans in one traceEvents array.  Lane cycle stamps are
// run-local (they restart at 0 every wave), so the caller passes the
// wave's start cycle as `base` to place the event on the shared
// simulated-cycle timeline.

/// Emit one retained event into an already-open traceEvents array,
/// offsetting its cycle stamp by `base` machine cycles.
void write_trace_event(JsonWriter &w, const TraceEvent &ev,
                       Cycles base = 0);

/// Emit the thread-name metadata record that labels `lane`'s track.
void write_lane_track_metadata(JsonWriter &w, unsigned lane);

} // namespace udp
