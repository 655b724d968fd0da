/**
 * @file
 * The machine's lane observer: per-lane event rings and profiles.
 *
 * A `Tracer` owns one entry per lane.  When a lane has a tracer
 * attached (`Lane::set_tracer`), the reference interpreter writes its
 * own entry:
 *   - one `TraceEvent` per micro-architectural event — multi-way
 *     dispatch, signature miss (aux-chain fallback), action execution,
 *     local-memory access, bank-conflict stall, and accept — stamped
 *     with the lane's cycle counter, into a fixed-capacity ring;
 *   - per dispatch state (keyed by the state's full base word address):
 *     visits, cycles spent (dispatch + attached actions + stalls),
 *     signature misses and bank-conflict stall cycles; and per action
 *     opcode, execution counts and cycles.
 * With no tracer attached (the default) the hooks are a single
 * predicted-not-taken null check, so simulation rates are unaffected.
 *
 * The ring keeps the most recent `ring_capacity` events per lane; lifetime
 * per-kind counters keep counting past the capacity so totals always match
 * `LaneStats` even when old events have been overwritten.  `profile()`
 * merges the lanes' aggregates into one `Profile`, which answers the
 * questions the paper's evaluation asks of the micro-architecture: where
 * do cycles go, which states fall back to the auxiliary chain, which
 * actions dominate a kernel.
 *
 * Lanes on different host threads (Machine::run_parallel's pool) never
 * write the same entry: every record call names the recording lane.
 * Read a Tracer only between runs.  Chrome `trace_event` export is the
 * runtime's `SpanTracer` (runtime/spantrace.hpp).
 */
#pragma once

#include "isa.hpp"
#include "types.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace udp {

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

/// Aggregated counters for one dispatch state.
struct StateProfile {
    std::uint64_t visits = 0;       ///< dispatches into this state
    Cycles cycles = 0;              ///< dispatch + action + stall cycles
    std::uint64_t sig_misses = 0;   ///< aux-chain fallbacks taken here
    std::uint64_t stall_cycles = 0; ///< bank-conflict stalls charged here

    /// Fraction of visits that missed the labeled-slot signature check.
    double sig_miss_rate() const {
        return visits ? double(sig_misses) / double(visits) : 0.0;
    }

    bool operator==(const StateProfile &) const = default;
};

/// Aggregated counters for one action opcode.
struct ActionProfile {
    std::uint64_t count = 0; ///< executions
    Cycles cycles = 0;       ///< cycles charged (incl. loop/mem extras)

    bool operator==(const ActionProfile &) const = default;
};

/// Resolves a state base address to a display name.
using StateSymbolizer = std::function<std::string(std::uint32_t base)>;

/**
 * Per-state and per-opcode aggregates merged over every lane of a
 * Tracer (`Tracer::profile()`).  A value: it does not change when the
 * Tracer records more.
 */
class Profile
{
  public:
    const std::unordered_map<std::uint32_t, StateProfile> &states() const {
        return states_;
    }
    const std::map<Opcode, ActionProfile> &actions() const {
        return actions_;
    }

    /// Cycles attributed across all states.
    Cycles total_state_cycles() const;

    /// States ranked by cycles, descending; at most `top_n` entries.
    std::vector<std::pair<std::uint32_t, StateProfile>>
    hot_states(std::size_t top_n) const;

    /// Action opcodes ranked by cycles, descending; at most `top_n`.
    std::vector<std::pair<Opcode, ActionProfile>>
    hot_actions(std::size_t top_n) const;

    /**
     * Human-readable hot-state report (top `top_n` states and actions).
     * When `sym` is set, state rows carry its labels (see
     * `make_state_symbolizer` in assembler/disasm.hpp, which reuses the
     * disassembler's state labels); otherwise the raw "state @0x<base>"
     * form.
     */
    std::string report(std::size_t top_n = 10,
                       const StateSymbolizer &sym = nullptr) const;

  private:
    friend class Tracer;

    std::unordered_map<std::uint32_t, StateProfile> states_;
    std::map<Opcode, ActionProfile> actions_;
};

/// Per-lane event rings and profile aggregates (see the file comment).
class Tracer
{
  public:
    explicit Tracer(std::size_t ring_capacity = kDefaultTraceRingCapacity);

    /// Record one event (called from the lane hot loops).
    void record(unsigned lane, TraceEventKind kind, Cycles cycle,
                std::uint32_t a, std::uint32_t b);

    /// Attribute one dispatch step (and its attached actions) to the
    /// state at `base`.
    void record_state(unsigned lane, std::uint32_t base, Cycles cycles,
                      std::uint64_t sig_misses, std::uint64_t stall_cycles);

    /// Attribute one executed action to its opcode.
    void record_action(unsigned lane, Opcode op, Cycles cycles);

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

    /// Every lane's aggregates, merged.  They accumulate for the
    /// Tracer's lifetime; clear() keeps them.
    Profile profile() const;

    /// Drop all recorded events and reset the per-kind counters.
    void clear();

  private:
    struct LaneRing {
        std::vector<TraceEvent> buf; ///< grows to capacity, then wraps
        std::size_t next = 0;        ///< overwrite cursor once full
        std::uint64_t total = 0;
        std::array<std::uint64_t, kNumTraceEventKinds> by_kind{};
        std::unordered_map<std::uint32_t, StateProfile> states;
        std::vector<ActionProfile> actions; ///< indexed by opcode value
    };

    std::size_t capacity_;
    std::array<LaneRing, kNumLanes> rings_;
};

} // namespace udp
