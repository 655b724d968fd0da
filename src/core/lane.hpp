/**
 * @file
 * UDP lane: a 32-bit symbol/branch engine (paper Sections 3.2 and 6).
 *
 * A lane couples three units (Figure 23):
 *   - Dispatch unit: multi-way dispatch `slot = base + symbol` with an
 *     8-bit signature check (the EffCLiP perfect-hash contract), auxiliary
 *     majority/default/common fallbacks, flagged (register-sourced)
 *     dispatch and refill transitions;
 *   - Stream-buffer/prefetch unit: bit-granular input with a symbol-size
 *     register (1..8, 16, 32 bits);
 *   - Action unit: executes chained 32-bit actions over 16 scalar
 *     registers, window-addressed local memory and an output buffer.
 *
 * The lane supports two execution modes:
 *   - `run()`: single active state (DFA-style programs; all the ETL
 *     kernels), the one run loop of Machine::run_parallel;
 *   - `run_nfa()`: a set of active states advanced per input symbol with
 *     epsilon activation (UAP-style NFA execution); cycle cost scales with
 *     the number of dispatches, as on the real hardware.
 *
 * Host-side interpretation runs on one of two interpreters
 * (docs/PERFORMANCE.md):
 *   - `ThreadedEngine` over a shared compiled image (the default), for
 *     any lane with no tracer attached;
 *   - the decode-per-step reference in lane.cpp, for the Legacy backend
 *     and for every lane with a tracer attached.
 * Both call the same op handlers, and simulated counters never depend
 * on the interpreter taken.  Their data paths differ in one place: on
 * the threaded engine with no bank arbiter, an access that fits the
 * lane's window bound is made inline (and Loopcpy moves an in-range
 * span in one block), while the reference sends every byte through
 * LocalMemory::translate and charge_mem, so the cross-interpreter
 * suites check one against the other.
 */
#pragma once

#include "fault.hpp"
#include "local_memory.hpp"
#include "program.hpp"
#include "stats.hpp"
#include "stream_buffer.hpp"
#include "types.hpp"

#include <array>
#include <memory>

namespace udp {

class Tracer;          // trace.hpp
class CompiledProgram; // threaded_program.hpp
class ThreadedEngine;  // threaded_program.hpp

/// Terminal status of a lane run.
enum class LaneStatus : std::uint8_t {
    Done,     ///< consumed the whole stream, or executed Halt
    Reject,   ///< no matching transition / Fail action
    Running,  ///< still active (used internally)
    Faulted,  ///< trapped on an interpreter fault (see Lane::fault())
    TimedOut, ///< watchdog: cycle budget exhausted before completion
    /// Host-side disposition, never produced by the interpreter: the
    /// run's owner cancelled the job (runtime JobControl / udp_service)
    /// before it was staged or while its wave was in flight.
    Cancelled,
};

/// Stable lower-case name of a lane status ("done", "timed-out", ...).
std::string_view lane_status_name(LaneStatus st);

/// One recorded acceptance (Accept action).
struct AcceptEvent {
    std::uint64_t stream_bit_pos; ///< stream position at acceptance
    Word id;                      ///< Accept immediate (pattern id, bin, ..)
};

/**
 * A single UDP lane bound to a program, an input stream, and the shared
 * local memory.
 */
class Lane
{
  public:
    /**
     * @param id    lane index (0..63), selects the bank in local mode
     * @param mem   shared local memory (may outlive many runs)
     */
    Lane(unsigned id, LocalMemory &mem);

    /// Bind the program (kept by reference; caller owns it).  Under the
    /// Threaded backend (see sim_backend()) the lane also binds its
    /// compiled image: `compiled` when given (the runtime's JobPlan
    /// path, which resolves it once per job), else the process-wide
    /// cache's.  The Legacy backend binds none.
    void load(const Program &prog,
              std::shared_ptr<const CompiledProgram> compiled = nullptr);

    /// The threaded-code image in use (null unless the Threaded
    /// backend was active at load()).
    const CompiledProgram *compiled() const { return compiled_.get(); }

    /// Whether the run entries take ThreadedEngine: a compiled image is
    /// bound and no tracer is attached.  Otherwise they run the
    /// reference interpreter.  It also gates the direct memory path
    /// (with no bank arbiter attached): off the fast path, every access
    /// goes through LocalMemory::translate and charge_mem.
    bool fast_path() const { return compiled_ && !tracer_; }

    /// Attach the input stream (not copied).
    void set_input(BytesView data);

    /// Window base register for restricted addressing (byte address),
    /// and the window's size: a restricted-mode access past
    /// `base + bytes` faults, and so does a Setbase that moves the base
    /// below `base`.  0 bytes (the default) leaves the lane the whole
    /// memory instead.
    void set_window_base(ByteAddr base, std::size_t bytes = 0);
    ByteAddr window_base() const { return window_base_; }

    /// Scalar register access (r15 reads give the stream byte index).
    Word reg(unsigned idx) const;
    void set_reg(unsigned idx, Word value);

    /// Execute in single-active-state mode until stream end / halt.
    LaneStatus run(std::uint64_t max_cycles = ~std::uint64_t{0});

    /// Execute up to `n` dispatch steps, preserving position between
    /// calls (lockstep machine mode). Returns Running while work remains.
    LaneStatus run_steps(std::uint64_t n);

    /// One dispatch step for the machine's lockstep rounds: the
    /// forced-trap check `run` makes between chunks, then exactly
    /// `run_steps(1)`.
    LaneStatus step_once();

    /// Execute in NFA mode (multi-state activation via epsilon).
    LaneStatus run_nfa(std::uint64_t max_cycles = ~std::uint64_t{0});

    const LaneStats &stats() const { return stats_; }
    const Bytes &output() const { return output_; }

    /**
     * The structured record of the last trap (docs/ROBUSTNESS.md).
     * `fault().code == FaultCode::None` for a healthy lane.  Populated
     * whenever a run entry returns Faulted or TimedOut; cleared by
     * reset().  Interpreter errors never escape run()/run_steps()/
     * step_once()/run_nfa() as exceptions — they land here.
     */
    const LaneFault &fault() const { return fault_; }

    /**
     * Arm a deterministic trap: the lane faults with
     * FaultCode::ForcedTrap at the first dispatch-step boundary at or
     * after simulated cycle `at` (0 disarms; the default).  Fault
     * injection only — no hardware analogue.  Cleared by hard_reset().
     */
    void set_forced_trap(Cycles at) { trap_cycle_ = at; }

    /// Record a watchdog fault and halt the lane (the machine's lockstep
    /// harness calls this when its round budget expires with the lane
    /// still running).  Returns LaneStatus::TimedOut.
    LaneStatus trip_watchdog(std::string detail);

    /// Byte-align the output bitstream from the host side (reading back
    /// the staging buffer after the lane finished).
    void finish_output() { out_flush(); }
    const std::vector<AcceptEvent> &accepts() const { return accepts_; }
    std::uint64_t accept_count() const { return stats_.accepts; }

    /// Reset registers, stats, output and stream position.
    void reset();

    /// Full architectural reset between job batches: drops the program
    /// binding (program and compiled image), then reset() plus the
    /// window base, dispatch window, forced trap and attached input, so
    /// a reassigned lane cannot observe any state from the previous
    /// wave — nor read its program, which may be freed by now.  Run
    /// configuration (the tracer) survives; the arbiter is attached
    /// only during run_lockstep.  load() a program before the next run.
    void hard_reset();

    /// Bank arbiter charged for every memory reference (nullptr = none,
    /// the default); Machine::run_lockstep attaches one for its run.
    void set_arbiter(BankArbiter *arbiter) {
        arbiter_ = arbiter;
        refresh_window();
    }

    /// Attach the lane observer: its events and per-state/per-opcode
    /// profile land in this lane's entry of `t` (nullptr = off, the
    /// default; survives reset()/load() — it is run configuration).
    void set_tracer(Tracer *t) {
        tracer_ = t;
        refresh_window();
    }
    Tracer *tracer() const { return tracer_; }

  private:
    /// The threaded-code engine is the lane's inner loop whenever
    /// fast_path() holds, and its op handlers are every opcode's
    /// semantics on both interpreters (core/threaded_program.hpp).
    friend class ThreadedEngine;

    // Dispatch outcome for one step of one active state.
    struct StepResult {
        bool took_transition = false;
        bool consumed_symbol = false;
        DispatchAddr next_base = 0;
        LaneStatus status = LaneStatus::Running;
    };

    /// Reference decode-per-step dispatch: fetch+check the labeled
    /// slot, walk the aux chain, fire actions.
    StepResult step(const StateMeta &meta);

    LaneStatus run_steps_legacy(std::uint64_t n);
    LaneStatus run_nfa_legacy(std::uint64_t max_cycles);

    /// Reference action unit: execute the action chain at action-memory
    /// word address `addr`, decoding one word at a time and running the
    /// threaded engine's op handlers; carries the tracer hooks.
    LaneStatus exec_actions(std::size_t addr);

    /// Record `fault_`, halt the lane and return the terminal status
    /// (TimedOut for WatchdogTimeout, Faulted otherwise).
    LaneStatus trap(FaultCode code, std::string detail);

    /// Run `body` converting tagged interpreter errors into faults at
    /// the run-loop boundary (shared by all four run entries).
    template <typename Body>
    LaneStatus run_guarded(Body &&body);

    /// Resolve an attach field to an action word address (or none).
    bool attach_addr(const Transition &t, std::size_t &addr) const;

    Word fetch_symbol_bits(unsigned width);
    Word dispatch_word(std::size_t word_addr);

    // Memory access.  On the threaded engine with no bank arbiter, an
    // access that fits the lane's window takes the inline direct path:
    // one compare against `direct_limit_`, the access, and the
    // mem_reads/mem_writes charge.  Every other access (the reference,
    // observed lanes, arbiters, faults) goes through mem_translate() and
    // charge_mem(), out of line.

    /// Recompute the window bound and the direct path's limit; called
    /// whenever the window or the fast_path()/arbiter gate changes.
    void refresh_window();
    /// Whether an access of `len` bytes at `lane_addr` takes the direct
    /// path (then it lands at mem_.raw()[win_.offset + lane_addr]).
    bool direct(Word lane_addr, std::uint64_t len) const {
        return static_cast<std::int64_t>(std::uint64_t{lane_addr} + len) <=
               direct_limit_;
    }
    std::uint8_t *direct_ptr(Word lane_addr) {
        return mem_.raw().data() + win_.offset + lane_addr;
    }

    /// Physical address of the `len` bytes at `lane_addr`; faults
    /// unless all of them lie in the lane's range.
    ByteAddr mem_translate(Word lane_addr, unsigned len = 1) const {
        return mem_.translate(win_, lane_addr, len);
    }
    /// Host pointer to the `n` bytes at `lane_addr` for a block move, or
    /// null when the move must take the per-byte path: off fast_path(),
    /// with a bank arbiter attached, or when the span leaves the lane's
    /// window.
    std::uint8_t *mem_span(Word lane_addr, Word n) {
        return direct(lane_addr, n) ? direct_ptr(lane_addr) : nullptr;
    }
    std::uint8_t mem_read8(Word lane_addr) {
        if (!direct(lane_addr, 1))
            return static_cast<std::uint8_t>(mem_read_slow(lane_addr, 1));
        ++stats_.mem_reads;
        return *direct_ptr(lane_addr);
    }
    void mem_write8(Word lane_addr, std::uint8_t v) {
        if (!direct(lane_addr, 1))
            return mem_write_slow(lane_addr, v, 1);
        ++stats_.mem_writes;
        *direct_ptr(lane_addr) = v;
    }
    Word mem_read32(Word lane_addr) { // little-endian
        if (!direct(lane_addr, 4))
            return mem_read_slow(lane_addr, 4);
        ++stats_.mem_reads;
        const std::uint8_t *p = direct_ptr(lane_addr);
        return Word{p[0]} | (Word{p[1]} << 8) | (Word{p[2]} << 16) |
               (Word{p[3]} << 24);
    }
    void mem_write32(Word lane_addr, Word v) {
        if (!direct(lane_addr, 4))
            return mem_write_slow(lane_addr, v, 4);
        ++stats_.mem_writes;
        std::uint8_t *p = direct_ptr(lane_addr);
        p[0] = static_cast<std::uint8_t>(v);
        p[1] = static_cast<std::uint8_t>(v >> 8);
        p[2] = static_cast<std::uint8_t>(v >> 16);
        p[3] = static_cast<std::uint8_t>(v >> 24);
    }
    /// The checked path of a `len`-byte (1 or 4) access: translate,
    /// charge_mem, then the access.
    Word mem_read_slow(Word lane_addr, unsigned len);
    void mem_write_slow(Word lane_addr, Word v, unsigned len);
    void charge_mem(ByteAddr phys, bool is_write);

    void out_byte(std::uint8_t b);
    void out_bits(Word value, unsigned nbits);
    void out_flush();

    unsigned id_;
    LocalMemory &mem_;
    const Program *prog_ = nullptr;
    std::shared_ptr<const CompiledProgram> compiled_; ///< threaded backend
    StreamBuffer sb_;

    std::array<Word, kNumScalarRegs> regs_{};
    unsigned symbol_bits_ = 8;     ///< symbol-size register
    ByteAddr window_base_ = 0;     ///< data window (restricted addressing)
    ByteAddr window_start_ = 0;    ///< lowest base Setbase may set
    std::uint64_t window_end_ = kLocalMemBytes; ///< one past the window
    LaneWindow win_;               ///< the addressable range's bound
    /// win_.limit when fast_path() holds and no arbiter is attached,
    /// else -1, so that no access takes the direct path.
    std::int64_t direct_limit_ = -1;
    std::size_t dispatch_base_ = 0;///< dispatch window (words)
    ByteAddr action_base_ = 0;     ///< scaled-offset action window (words)
    unsigned action_scale_ = 0;

    Word last_symbol_ = 0; ///< latched by the dispatch unit (Lastsym)
    LaneStats stats_;
    Bytes output_;
    Word out_bit_acc_ = 0;     ///< pending sub-byte output bits
    unsigned out_bit_count_ = 0;
    std::vector<AcceptEvent> accepts_;
    /// Cap on stored AcceptEvents (counts keep accumulating past it).
    static constexpr std::size_t kAcceptCapacity = 1 << 16;
    BankArbiter *arbiter_ = nullptr; ///< lockstep bank contention
    Tracer *tracer_ = nullptr;     ///< lane observer; off when null
    std::size_t cur_state_ = 0;   ///< full base of the active state
    bool started_ = false;
    bool halted_ = false;
    LaneStatus halt_status_ = LaneStatus::Done;
    LaneFault fault_;             ///< last trap record (None = healthy)
    Cycles trap_cycle_ = 0;       ///< forced-trap cycle (0 = disarmed)
};

} // namespace udp
