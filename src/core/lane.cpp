/**
 * @file
 * UDP lane: the reference interpreter (dispatch unit, stream-buffer/
 * prefetch unit, action unit) and the run entries.
 *
 * The reference decodes every packed word at dispatch time
 * (`step`, `run_steps_legacy`, `run_nfa`).  Its action unit lowers each
 * decoded word with the compiler's helper and calls the same op handler
 * the threaded engine's op stream calls, so every opcode's semantics
 * are written once (core/threaded_program.cpp).  The tracer hooks live
 * only here: a lane with a tracer attached always runs the reference,
 * and a bare DFA lane with a compiled image runs `ThreadedEngine`.
 * Every NFA lane runs `run_nfa` here.  Simulated results are
 * bit-identical either way (tests/test_threaded.cpp).
 */
#include "lane.hpp"

#include "decoded_program.hpp"
#include "threaded_program.hpp"
#include "trace.hpp"

#include <algorithm>

namespace udp {

Lane::Lane(unsigned id, LocalMemory &mem) : id_(id), mem_(mem)
{
    if (id >= kNumLanes)
        throw UdpError("Lane: lane id out of range");
    refresh_window();
}

void
Lane::load(const Program &prog,
           std::shared_ptr<const CompiledProgram> compiled)
{
    prog_ = &prog;
    if (sim_backend() == SimBackend::Threaded)
        compiled_ = compiled ? std::move(compiled) : shared_compiled(prog);
    else
        compiled_ = nullptr;
    refresh_window(); // fast_path() may have changed
    reset();
}

void
Lane::set_input(BytesView data)
{
    sb_.attach(data);
}

Word
Lane::reg(unsigned idx) const
{
    if (idx >= kNumScalarRegs)
        throw UdpError("Lane: register index out of range");
    if (idx == kRegStreamIdx)
        return static_cast<Word>(sb_.pos_bytes());
    return regs_[idx];
}

void
Lane::set_reg(unsigned idx, Word value)
{
    if (idx >= kNumScalarRegs)
        throw UdpError("Lane: register index out of range");
    if (idx == kRegStreamIdx) {
        // r15 is the architecturally visible stream byte index; writing it
        // repositions the stream (automatic index management).
        sb_.seek_bits(std::uint64_t{value} * 8);
        return;
    }
    regs_[idx] = value;
}

void
Lane::reset()
{
    regs_.fill(0);
    symbol_bits_ = prog_ ? prog_->initial_symbol_bits : 8;
    dispatch_base_ = prog_ ? prog_->init_dispatch_base : 0;
    action_base_ = prog_ ? prog_->init_action_base : 0;
    action_scale_ = prog_ ? prog_->init_action_scale : 0;
    stats_ = LaneStats{};
    output_.clear();
    out_bit_acc_ = 0;
    out_bit_count_ = 0;
    accepts_.clear();
    cur_state_ = 0;
    started_ = false;
    halted_ = false;
    halt_status_ = LaneStatus::Done;
    fault_ = LaneFault{};
    sb_.seek_bits(0);
}

void
Lane::hard_reset()
{
    // Drop the program binding first: reset() must not read a program
    // the previous batch's owner may already have freed.
    prog_ = nullptr;
    compiled_ = nullptr;
    set_window_base(0);
    trap_cycle_ = 0;
    sb_.attach(BytesView{});
    reset();
}

std::string_view
lane_status_name(LaneStatus st)
{
    switch (st) {
      case LaneStatus::Done: return "done";
      case LaneStatus::Reject: return "reject";
      case LaneStatus::Running: return "running";
      case LaneStatus::Faulted: return "faulted";
      case LaneStatus::TimedOut: return "timed-out";
      case LaneStatus::Cancelled: return "cancelled";
    }
    return "<bad>";
}

// ---------------------------------------------------------------------------
// Fault containment (docs/ROBUSTNESS.md).
// ---------------------------------------------------------------------------

LaneStatus
Lane::trap(FaultCode code, std::string detail)
{
    halted_ = true;
    halt_status_ = code == FaultCode::WatchdogTimeout
                       ? LaneStatus::TimedOut
                       : LaneStatus::Faulted;
    fault_.code = code;
    fault_.lane = id_;
    fault_.state_base = static_cast<std::uint32_t>(cur_state_);
    fault_.cycle = stats_.cycles;
    fault_.detail = std::move(detail);
    return halt_status_;
}

LaneStatus
Lane::trip_watchdog(std::string detail)
{
    return trap(FaultCode::WatchdogTimeout, std::move(detail));
}

template <typename Body>
LaneStatus
Lane::run_guarded(Body &&body)
{
    // The conversion boundary: tagged interpreter errors become the
    // lane's fault record here, on both interpreters.  An
    // untagged UdpError reaching this frame is a defensive fallback
    // (every lane-reachable site carries a code); anything else — a
    // host-side bug — keeps unwinding.
    try {
        return body();
    } catch (const UdpFaultError &e) {
        return trap(e.code(), e.what());
    } catch (const UdpError &e) {
        return trap(FaultCode::BadAction, e.what());
    }
}

// ---------------------------------------------------------------------------
// Memory access with window translation and bank arbitration.
// ---------------------------------------------------------------------------

void
Lane::set_window_base(ByteAddr base, std::size_t bytes)
{
    window_base_ = base;
    window_start_ = bytes == 0 ? 0 : base;
    window_end_ = bytes == 0 ? kLocalMemBytes
                             : std::min<std::uint64_t>(
                                   std::uint64_t{base} + bytes,
                                   kLocalMemBytes);
    refresh_window();
}

void
Lane::refresh_window()
{
    win_ = mem_.window(id_, window_base_, window_end_);
    direct_limit_ = fast_path() && !arbiter_ ? win_.limit : -1;
}

void
Lane::charge_mem(ByteAddr phys, bool is_write)
{
    if (is_write)
        ++stats_.mem_writes;
    else
        ++stats_.mem_reads;
    Cycles stall = 0;
    if (arbiter_) {
        stall = arbiter_->request(LocalMemory::bank_of(phys), is_write);
        stats_.stall_cycles += stall;
        stats_.cycles += stall;
    }
    if (tracer_) {
        tracer_->record(id_,
                        is_write ? TraceEventKind::MemWrite
                                 : TraceEventKind::MemRead,
                        stats_.cycles, phys, 0);
        if (stall != 0)
            tracer_->record(id_, TraceEventKind::Stall, stats_.cycles,
                            phys, static_cast<std::uint32_t>(stall));
    }
}

Word
Lane::mem_read_slow(Word lane_addr, unsigned len)
{
    const ByteAddr phys = mem_translate(lane_addr, len);
    charge_mem(phys, false);
    return len == 4 ? mem_.read32(phys) : mem_.read8(phys);
}

void
Lane::mem_write_slow(Word lane_addr, Word v, unsigned len)
{
    const ByteAddr phys = mem_translate(lane_addr, len);
    charge_mem(phys, true);
    if (len == 4)
        mem_.write32(phys, v);
    else
        mem_.write8(phys, static_cast<std::uint8_t>(v));
}

// ---------------------------------------------------------------------------
// Output staging.
// ---------------------------------------------------------------------------

void
Lane::out_byte(std::uint8_t b)
{
    if (out_bit_count_ != 0) {
        out_bits(b, 8);
        return;
    }
    output_.push_back(b);
    ++stats_.output_bytes;
}

void
Lane::out_bits(Word value, unsigned nbits)
{
    if (nbits == 0 || nbits > 32)
        throw UdpError("Lane: outbits width must be 1..32");
    // MSB-first bit packing, symmetric with StreamBuffer::read.
    for (unsigned i = nbits; i-- > 0;) {
        out_bit_acc_ = (out_bit_acc_ << 1) | ((value >> i) & 1);
        if (++out_bit_count_ == 8) {
            output_.push_back(static_cast<std::uint8_t>(out_bit_acc_));
            ++stats_.output_bytes;
            out_bit_acc_ = 0;
            out_bit_count_ = 0;
        }
    }
}

void
Lane::out_flush()
{
    if (out_bit_count_ != 0) {
        const unsigned pad = 8 - out_bit_count_;
        out_bits(0, pad);
    }
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

Word
Lane::dispatch_word(std::size_t word_addr)
{
    const auto &img = prog_->dispatch;
    if (word_addr >= img.size())
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "Lane: dispatch fetch out of range");
    ++stats_.dispatch_reads;
    return img[word_addr];
}

Word
Lane::fetch_symbol_bits(unsigned width)
{
    stats_.stream_bits += width;
    last_symbol_ = sb_.read(width);
    return last_symbol_;
}

bool
Lane::attach_addr(const Transition &t, std::size_t &addr) const
{
    std::uint8_t ref = t.attach;
    if (t.type == TransitionType::Refill) {
        // Refill attach ABI: high 3 bits = push-back count, low 5 bits =
        // action ref (31 = none).
        ref = t.attach & 0x1F;
        if (ref == 0x1F)
            return false;
    } else if (ref == kNoActions && t.attach_mode == AttachMode::Direct) {
        return false;
    }
    if (t.attach_mode == AttachMode::Direct) {
        addr = ref;
    } else {
        addr = std::size_t{action_base_} +
               (std::size_t{ref} << action_scale_);
    }
    return true;
}

Lane::StepResult
Lane::step(const StateMeta &meta)
{
    StepResult res;
    const std::size_t base = meta.base; // full word address
    const std::uint8_t sig = state_signature(meta.base);

    // Auxiliary chain scan for a `common` transition: common replaces the
    // whole labeled table, so it is checked before any symbol arithmetic.
    Transition common;
    bool has_common = false;
    for (unsigned k = 1; k <= meta.aux_count && !has_common; ++k) {
        const Transition t = decode_transition(prog_->dispatch[base - k]);
        if (t.signature == sig && t.type == TransitionType::Common) {
            common = t;
            has_common = true;
        }
    }

    Transition taken;
    bool have = false;

    if (has_common) {
        // Takes one dispatch slot; consumes a symbol only when this state
        // dispatches from the stream.
        if (!meta.reg_source) {
            if (sb_.exhausted(symbol_bits_)) {
                res.status = LaneStatus::Done;
                return res;
            }
            fetch_symbol_bits(symbol_bits_);
            res.consumed_symbol = true;
        }
        ++stats_.dispatches;
        ++stats_.cycles;
        ++stats_.dispatch_reads;
        if (tracer_)
            tracer_->record(id_, TraceEventKind::Dispatch, stats_.cycles,
                            static_cast<std::uint32_t>(base),
                            last_symbol_);
        taken = common;
        have = true;
    } else {
        // Fetch the dispatch symbol.
        Word sym;
        const unsigned width = symbol_bits_;
        if (meta.reg_source) {
            const Word mask =
                width >= 32 ? ~Word{0} : ((Word{1} << width) - 1);
            sym = regs_[kRegDispatch] & mask;
            last_symbol_ = sym;
        } else {
            if (sb_.exhausted(width)) {
                res.status = LaneStatus::Done;
                return res;
            }
            sym = fetch_symbol_bits(width);
            res.consumed_symbol = true;
        }

        // Multi-way dispatch: one cycle, slot = base + symbol.
        ++stats_.dispatches;
        ++stats_.cycles;
        if (tracer_)
            tracer_->record(id_, TraceEventKind::Dispatch, stats_.cycles,
                            static_cast<std::uint32_t>(base), sym);
        const std::size_t slot = base + sym;
        if (slot < prog_->dispatch.size() && sym <= meta.max_symbol) {
            const Transition t = decode_transition(dispatch_word(slot));
            if (t.signature == sig &&
                (t.type == TransitionType::Labeled ||
                 t.type == TransitionType::Refill ||
                 t.type == TransitionType::Flagged)) {
                taken = t;
                have = true;
            }
        }

        if (!have) {
            // Signature miss: consult the auxiliary chain (one extra
            // cycle, the paper's majority/default fallback penalty).
            ++stats_.sig_misses;
            ++stats_.cycles;
            if (tracer_)
                tracer_->record(id_, TraceEventKind::SigMiss,
                                stats_.cycles,
                                static_cast<std::uint32_t>(base), sym);
            for (unsigned k = 1; k <= meta.aux_count; ++k) {
                const Transition t =
                    decode_transition(dispatch_word(base - k));
                if (t.signature != sig)
                    break;
                if (t.type == TransitionType::Majority ||
                    t.type == TransitionType::Default) {
                    taken = t;
                    have = true;
                    break;
                }
            }
        }
    }

    if (!have) {
        res.status = LaneStatus::Reject;
        return res;
    }

    // Refill: push back over-consumed bits before actions observe r15.
    if (taken.type == TransitionType::Refill) {
        const unsigned nbits = taken.attach >> 5;
        if (nbits != 0) {
            sb_.refill(nbits);
            stats_.stream_bits -= nbits;
        }
    }

    std::size_t act;
    if (attach_addr(taken, act)) {
        const LaneStatus st = exec_actions(act);
        if (st != LaneStatus::Running) {
            res.status = st;
            return res;
        }
    }

    res.took_transition = true;
    res.next_base = taken.target;
    return res;
}

// ---------------------------------------------------------------------------
// Action unit.
// ---------------------------------------------------------------------------

/**
 * The reference action unit: fetch and decode one word at a time, lower
 * it exactly as the compiler does, and run the op's handler — the same
 * function the compiled op stream calls.  Fetch faults are raised here,
 * before the charges a decoded word would incur; the tracer hooks wrap
 * each op.
 */
LaneStatus
Lane::exec_actions(std::size_t addr)
{
    const auto &img = prog_->actions;
    const auto nops = static_cast<std::uint32_t>(img.size());
    ThreadedCtx c;
    try {
        for (;;) {
            if (addr >= img.size())
                throw UdpFaultError(FaultCode::FetchOutOfRange,
                                    "Lane: action fetch out of range");
            ++stats_.dispatch_reads;
            const Action a = decode_action(img[addr]);
            ++stats_.actions;
            ++stats_.cycles;
            if (tracer_)
                tracer_->record(id_, TraceEventKind::Action, stats_.cycles,
                                static_cast<std::uint32_t>(addr),
                                static_cast<std::uint32_t>(a.op));
            // Extra cycles the op charges (loop ops, stalls) are
            // attributed to it via the delta from here.
            const Cycles act_start = stats_.cycles;
            const CompiledOp o = ThreadedEngine::lower(
                a, img[addr], static_cast<std::uint32_t>(addr), nops);
            const OpExit e = o.fn(*this, c, o);
            ThreadedEngine::flush(*this, c);
            if (tracer_) {
                if (a.op == Opcode::Accept)
                    tracer_->record(id_, TraceEventKind::Accept,
                                    stats_.cycles, o.imm_w, 0);
                else if (a.op == Opcode::Emitlut) // the wide entry fetch
                    tracer_->record(id_, TraceEventKind::MemRead,
                                    stats_.cycles,
                                    ThreadedEngine::emitlut_entry(*this, o),
                                    0);
                tracer_->record_action(id_, a.op,
                                       1 + (stats_.cycles - act_start));
            }
            if (e != OpExit::Next)
                return e == OpExit::Done ? LaneStatus::Done
                                         : LaneStatus::Reject;
            if (o.last)
                return LaneStatus::Running;
            addr = o.next;
        }
    } catch (...) {
        ThreadedEngine::flush(*this, c); // the fault record reads stats_
        throw;
    }
}

// ---------------------------------------------------------------------------
// Run loops.
// ---------------------------------------------------------------------------

LaneStatus
Lane::run_steps_legacy(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const StateMeta *meta = prog_->find_state(cur_state_);
        if (!meta)
            throw UdpFaultError(
                FaultCode::BadDispatch,
                "Lane: dispatch into unknown state base " +
                    std::to_string(cur_state_));
        StepResult r;
        if (tracer_) {
            // Everything the step charges (dispatch, miss penalty,
            // attached actions, stalls) is attributed to this state.
            const Cycles c0 = stats_.cycles;
            const std::uint64_t m0 = stats_.sig_misses;
            const std::uint64_t s0 = stats_.stall_cycles;
            r = step(*meta);
            if (stats_.cycles != c0) // zero delta = end-of-stream probe
                tracer_->record_state(
                    id_, static_cast<std::uint32_t>(cur_state_),
                    stats_.cycles - c0, stats_.sig_misses - m0,
                    stats_.stall_cycles - s0);
        } else {
            r = step(*meta);
        }
        if (r.status != LaneStatus::Running) {
            halted_ = true;
            halt_status_ = r.status;
            return r.status;
        }
        if (!r.took_transition) {
            halted_ = true;
            halt_status_ = LaneStatus::Reject;
            return LaneStatus::Reject;
        }
        // 12-bit targets are window-relative; rebase into the current
        // dispatch window (Setbase may have moved it during actions).
        cur_state_ = dispatch_base_ + r.next_base;
    }
    return LaneStatus::Running;
}

LaneStatus
Lane::run_steps(std::uint64_t n)
{
    if (!prog_)
        throw UdpError("Lane: no program loaded");
    if (halted_)
        return halt_status_;
    if (!started_) {
        cur_state_ = prog_->entry;
        started_ = true;
    }
    return run_guarded([&] {
        return fast_path() ? ThreadedEngine::run_steps_body(*this, n)
                           : run_steps_legacy(n);
    });
}

LaneStatus
Lane::step_once()
{
    if (!prog_)
        throw UdpError("Lane: no program loaded");
    if (halted_)
        return halt_status_;
    if (trap_cycle_ != 0 && stats_.cycles >= trap_cycle_)
        return trap(FaultCode::ForcedTrap,
                    "Lane: forced trap (fault injection)");
    return run_steps(1);
}

LaneStatus
Lane::run(std::uint64_t max_cycles)
{
    // With a forced trap armed, advance one dispatch step at a time so
    // the trap lands deterministically at the first step boundary at or
    // after the armed cycle (host-side granularity only; simulated
    // results below the trap point are unchanged).
    const std::uint64_t chunk = trap_cycle_ != 0 ? 1 : 1024;
    for (;;) {
        const LaneStatus st = run_steps(chunk);
        if (st != LaneStatus::Running)
            return st;
        if (trap_cycle_ != 0 && stats_.cycles >= trap_cycle_)
            return trap(FaultCode::ForcedTrap,
                        "Lane: forced trap (fault injection)");
        if (stats_.cycles >= max_cycles)
            return trip_watchdog("Lane: cycle budget (" +
                                 std::to_string(max_cycles) +
                                 ") exhausted before completion");
    }
}

LaneStatus
Lane::run_nfa(std::uint64_t max_cycles)
{
    if (!prog_)
        throw UdpError("Lane: no program loaded");

    // Active-state set with epsilon closure on activation. Frontier order
    // is deterministic; duplicates are suppressed with a stamp array.
    // Active entries are full word addresses.
    std::vector<std::size_t> active{prog_->entry};
    std::vector<std::size_t> next;
    std::vector<std::uint32_t> stamp(prog_->dispatch.size(), 0);
    std::uint32_t generation = 0;

    // Whether `tgt` is already active this generation.  A target past
    // the image is no state's base: fault before indexing the stamps.
    auto seen = [&](std::size_t tgt) {
        if (tgt >= stamp.size())
            throw UdpFaultError(FaultCode::BadDispatch,
                                "Lane: NFA activation of unknown state");
        return stamp[tgt] == generation;
    };

    auto close = [&](std::vector<std::size_t> &set) {
        ++generation;
        for (auto b : set)
            stamp[b] = generation;
        for (std::size_t i = 0; i < set.size(); ++i) {
            const StateMeta *meta = prog_->find_state(set[i]);
            if (!meta)
                throw UdpFaultError(
                    FaultCode::BadDispatch,
                    "Lane: NFA activation of unknown state");
            const std::size_t base = meta->base;
            const std::uint8_t sig = state_signature(meta->base);
            for (unsigned k = 1; k <= meta->aux_count; ++k) {
                const Transition t =
                    decode_transition(prog_->dispatch[base - k]);
                const std::size_t tgt = dispatch_base_ + t.target;
                if (t.signature == sig &&
                    t.type == TransitionType::Epsilon && !seen(tgt)) {
                    // Epsilon activation costs one dispatch cycle.
                    ++stats_.cycles;
                    ++stats_.dispatches;
                    ++stats_.dispatch_reads;
                    if (tracer_) {
                        tracer_->record(
                            id_, TraceEventKind::Dispatch, stats_.cycles,
                            static_cast<std::uint32_t>(tgt), 0);
                        tracer_->record_state(
                            id_, static_cast<std::uint32_t>(tgt), 1, 0, 0);
                    }
                    stamp[tgt] = generation;
                    set.push_back(tgt);
                    std::size_t act;
                    if (attach_addr(t, act))
                        exec_actions(act);
                }
            }
        }
    };

    return run_guarded([&] {
        close(active);
        const unsigned width = symbol_bits_;

        while (!active.empty() && stats_.cycles < max_cycles) {
            if (trap_cycle_ != 0 && stats_.cycles >= trap_cycle_)
                return trap(FaultCode::ForcedTrap,
                            "Lane: forced trap (fault injection)");
            if (sb_.exhausted(width))
                return LaneStatus::Done;
            const Word sym = fetch_symbol_bits(width);

            next.clear();
            ++generation;
            for (const auto cur : active) {
                const StateMeta *meta = prog_->find_state(cur);
                if (!meta)
                    throw UdpFaultError(
                        FaultCode::BadDispatch,
                        "Lane: NFA dispatch into unknown state");
                const std::size_t base = meta->base;
                const std::uint8_t sig = state_signature(meta->base);

                const Cycles prof_c0 = stats_.cycles;
                const std::uint64_t prof_m0 = stats_.sig_misses;
                const std::uint64_t prof_s0 = stats_.stall_cycles;

                ++stats_.dispatches;
                ++stats_.cycles;
                if (tracer_)
                    tracer_->record(id_, TraceEventKind::Dispatch,
                                    stats_.cycles,
                                    static_cast<std::uint32_t>(base), sym);

                Transition taken;
                bool have = false;
                const std::size_t slot = base + sym;
                if (slot < prog_->dispatch.size() && sym <= meta->max_symbol) {
                    const Transition t = decode_transition(dispatch_word(slot));
                    if (t.signature == sig &&
                        (t.type == TransitionType::Labeled ||
                         t.type == TransitionType::Refill)) {
                        taken = t;
                        have = true;
                    }
                }
                if (!have) {
                    ++stats_.sig_misses;
                    ++stats_.cycles;
                    if (tracer_)
                        tracer_->record(id_, TraceEventKind::SigMiss,
                                        stats_.cycles,
                                        static_cast<std::uint32_t>(base),
                                        sym);
                    for (unsigned k = 1; k <= meta->aux_count; ++k) {
                        const Transition t =
                            decode_transition(dispatch_word(base - k));
                        if (t.signature != sig)
                            break;
                        if (t.type == TransitionType::Majority ||
                            t.type == TransitionType::Default ||
                            t.type == TransitionType::Common) {
                            taken = t;
                            have = true;
                            break;
                        }
                    }
                }
                if (have) {
                    const std::size_t tgt = dispatch_base_ + taken.target;
                    if (!seen(tgt)) {
                        stamp[tgt] = generation;
                        next.push_back(tgt);
                        // Activation happens once per step; arc actions fire
                        // with the first arc that activates the target.
                        std::size_t act;
                        if (attach_addr(taken, act))
                            exec_actions(act);
                    }
                }
                // `have == false`: this activation dies, after charging the
                // dispatch + miss cycles profiled below.
                if (tracer_)
                    tracer_->record_state(
                        id_, static_cast<std::uint32_t>(base),
                        stats_.cycles - prof_c0, stats_.sig_misses - prof_m0,
                        stats_.stall_cycles - prof_s0);
            }
            close(next);
            // close() bumps the generation; re-stamp for the swap below is
            // unnecessary since `next` is already duplicate-free.
            active.swap(next);
        }
        if (active.empty())
            return LaneStatus::Reject;
        // Loop exit with live activations means the watchdog fired, not a
        // clean end of stream.
        return trip_watchdog("Lane: NFA cycle budget (" +
                             std::to_string(max_cycles) +
                             ") exhausted before completion");
    });
}

} // namespace udp
