/**
 * @file
 * Threaded-code backend: the op handlers (the ISA's one semantic
 * definition, tabled from UDP_OPCODES), the CompiledProgram lowering
 * pass, the single-lane DFA step loop and the NFA executor.
 *
 * Equivalence discipline: every dispatch charge, fault message and
 * side-effect order in the engine is transcribed from the reference
 * interpreter in lane.cpp (`step`, `run_nfa_legacy`), whose action unit
 * runs these same handlers.  The chain walker charges the fetch costs
 * unconditionally and the two trap ops (undecodable word, out-of-range
 * fetch) *undo* the charges the reference would not have made before
 * throwing the identical error — keeping the hot loop free of per-op
 * bounds and validity checks.
 */
#include "threaded_program.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace udp {

namespace {

/// CRC32-C (Castagnoli) byte-step table, built on first use.
const std::array<Word, 256> &
crc32c_table()
{
    static const std::array<Word, 256> table = [] {
        std::array<Word, 256> t{};
        for (Word i = 0; i < 256; ++i) {
            Word c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : (c >> 1);
            t[i] = c;
        }
        return t;
    }();
    return table;
}

/// Snappy-style multiplicative hash (Section 3.2.5 "hash action").
Word
hash_mix(Word v, unsigned table_log2)
{
    const Word h = v * 0x1E35A7BDu;
    if (table_log2 == 0 || table_log2 >= 32)
        return h;
    return h >> (32 - table_log2);
}

} // namespace

// ---------------------------------------------------------------------------
// Op handlers.
//
// Each handler is the semantics of one opcode, shared by the compiled op
// stream and the reference action unit (Lane::exec_actions), and named
// after its Opcode enumerator: table() is generated from UDP_OPCODES.
// They are members of a struct nested in ThreadedEngine so they inherit
// its friend access to Lane.
// ---------------------------------------------------------------------------

#define UDP_THREADED_OP(name)                                              \
    static OpExit name([[maybe_unused]] Lane &ln,                          \
                       [[maybe_unused]] ThreadedCtx &c,                    \
                       [[maybe_unused]] const CompiledOp &o)

struct ThreadedEngine::Ops {
    static Word rs(const Lane &ln, const CompiledOp &o) {
        return o.src == kRegStreamIdx
                   ? static_cast<Word>(ln.sb_.pos_bytes())
                   : ln.regs_[o.src];
    }
    static Word rr(const Lane &ln, const CompiledOp &o) {
        return o.ref == kRegStreamIdx
                   ? static_cast<Word>(ln.sb_.pos_bytes())
                   : ln.regs_[o.ref];
    }
    static void wr(Lane &ln, const CompiledOp &o, Word v) {
        // set_reg without the range check: decoded dst is a 4-bit field.
        if (o.dst == kRegStreamIdx) {
            ln.sb_.seek_bits(std::uint64_t{v} * 8);
            return;
        }
        ln.regs_[o.dst] = v;
    }

    // --- ALU, immediate forms ---
    UDP_THREADED_OP(Addi) { wr(ln, o, rs(ln, o) + o.imm_w); return OpExit::Next; }
    UDP_THREADED_OP(Subi) { wr(ln, o, rs(ln, o) - o.imm_w); return OpExit::Next; }
    UDP_THREADED_OP(Andi) { wr(ln, o, rs(ln, o) & o.imm_w); return OpExit::Next; }
    UDP_THREADED_OP(Ori) { wr(ln, o, rs(ln, o) | o.imm_w); return OpExit::Next; }
    UDP_THREADED_OP(Xori) { wr(ln, o, rs(ln, o) ^ o.imm_w); return OpExit::Next; }
    UDP_THREADED_OP(Shli) {
        wr(ln, o, rs(ln, o) << (o.imm & 31));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Shri) {
        wr(ln, o, rs(ln, o) >> (o.imm & 31));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Sari) {
        wr(ln, o,
           static_cast<Word>(static_cast<std::int32_t>(rs(ln, o)) >>
                             (o.imm & 31)));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Movi) { wr(ln, o, o.imm_w); return OpExit::Next; }
    UDP_THREADED_OP(Lui) {
        wr(ln, o, (ln.regs_[o.dst] & 0xFFFFu) | (o.imm_w << 16));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Cmpeqi) {
        wr(ln, o, rs(ln, o) == o.imm_w);
        return OpExit::Next;
    }
    UDP_THREADED_OP(Cmplti) {
        wr(ln, o, static_cast<std::int32_t>(rs(ln, o)) < o.imm);
        return OpExit::Next;
    }
    UDP_THREADED_OP(Cmpltui) {
        wr(ln, o, rs(ln, o) < o.imm_w);
        return OpExit::Next;
    }
    UDP_THREADED_OP(Muli) { wr(ln, o, rs(ln, o) * o.imm_w); return OpExit::Next; }

    // --- ALU, register forms ---
    UDP_THREADED_OP(Add) { wr(ln, o, rr(ln, o) + rs(ln, o)); return OpExit::Next; }
    UDP_THREADED_OP(Sub) { wr(ln, o, rr(ln, o) - rs(ln, o)); return OpExit::Next; }
    UDP_THREADED_OP(And) { wr(ln, o, rr(ln, o) & rs(ln, o)); return OpExit::Next; }
    UDP_THREADED_OP(Or) { wr(ln, o, rr(ln, o) | rs(ln, o)); return OpExit::Next; }
    UDP_THREADED_OP(Xor) { wr(ln, o, rr(ln, o) ^ rs(ln, o)); return OpExit::Next; }
    UDP_THREADED_OP(Shl) {
        wr(ln, o, rr(ln, o) << (rs(ln, o) & 31));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Shr) {
        wr(ln, o, rr(ln, o) >> (rs(ln, o) & 31));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Mov) { wr(ln, o, rs(ln, o)); return OpExit::Next; }
    UDP_THREADED_OP(Not) { wr(ln, o, ~rs(ln, o)); return OpExit::Next; }
    UDP_THREADED_OP(Neg) { wr(ln, o, 0u - rs(ln, o)); return OpExit::Next; }
    UDP_THREADED_OP(Mul) { wr(ln, o, rr(ln, o) * rs(ln, o)); return OpExit::Next; }
    UDP_THREADED_OP(Min) {
        wr(ln, o, std::min(rr(ln, o), rs(ln, o)));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Max) {
        wr(ln, o, std::max(rr(ln, o), rs(ln, o)));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Cmpeq) {
        wr(ln, o, rr(ln, o) == rs(ln, o));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Cmplt) {
        wr(ln, o, rr(ln, o) < rs(ln, o));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Select) {
        wr(ln, o, ln.regs_[o.dst] ? rr(ln, o) : rs(ln, o));
        return OpExit::Next;
    }

    // --- Memory ---
    UDP_THREADED_OP(Ldw) {
        wr(ln, o, ln.mem_read32(rs(ln, o) + o.imm_w));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Stw) {
        ln.mem_write32(rs(ln, o) + o.imm_w, ln.regs_[o.dst]);
        return OpExit::Next;
    }
    UDP_THREADED_OP(Ldb) {
        wr(ln, o, ln.mem_read8(rs(ln, o) + o.imm_w));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Stb) {
        ln.mem_write8(rs(ln, o) + o.imm_w,
                      static_cast<std::uint8_t>(ln.regs_[o.dst]));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Bininc) {
        const Word addr_b = rs(ln, o) * 4 + o.imm_w;
        const Word v = ln.mem_read32(addr_b) + 1;
        ln.mem_write32(addr_b, v);
        return OpExit::Next;
    }

    // --- Stream / configuration ---
    UDP_THREADED_OP(Setss) {
        if (o.imm < 1 || o.imm > 32)
            throw UdpFaultError(FaultCode::BadAction,
                                "Lane: setss width must be 1..32");
        ln.symbol_bits_ = static_cast<unsigned>(o.imm);
        return OpExit::Next;
    }
    UDP_THREADED_OP(Setssr) {
        const Word v = rs(ln, o);
        if (v < 1 || v > 32)
            throw UdpFaultError(FaultCode::BadAction,
                                "Lane: setssr width must be 1..32");
        ln.symbol_bits_ = v;
        return OpExit::Next;
    }
    UDP_THREADED_OP(Setbase) {
        const Word base = rs(ln, o) + o.imm_w;
        if (o.dst != 0)
            ln.dispatch_base_ = base;
        else if (base < ln.window_start_) // onto an earlier job's window
            throw UdpFaultError(FaultCode::FetchOutOfRange,
                                "Lane: setbase below the lane's window");
        else {
            ln.window_base_ = base;
            ln.refresh_window();
        }
        return OpExit::Next;
    }
    UDP_THREADED_OP(Setab) {
        ln.action_base_ = rs(ln, o) + o.imm_w;
        ln.action_scale_ = o.imm1;
        return OpExit::Next;
    }
    UDP_THREADED_OP(Skip) {
        ln.sb_.skip(static_cast<std::uint64_t>(o.imm));
        c.stream_bits += static_cast<std::uint64_t>(o.imm);
        return OpExit::Next;
    }
    UDP_THREADED_OP(Refill) {
        ln.sb_.refill(static_cast<std::uint64_t>(o.imm));
        c.stream_bits -= static_cast<std::uint64_t>(o.imm);
        return OpExit::Next;
    }
    UDP_THREADED_OP(Peek) {
        wr(ln, o,
           ln.sb_.exhausted(static_cast<unsigned>(o.imm))
               ? 0u
               : ln.sb_.peek(static_cast<unsigned>(o.imm)));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Read) {
        // An action-unit read; does not disturb the dispatch unit's
        // latched symbol (Lastsym).
        c.stream_bits += static_cast<unsigned>(o.imm);
        wr(ln, o, ln.sb_.read(static_cast<unsigned>(o.imm)));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Tell) {
        wr(ln, o, static_cast<Word>(ln.sb_.pos_bits()));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Lastsym) {
        wr(ln, o, ln.last_symbol_);
        return OpExit::Next;
    }
    UDP_THREADED_OP(Setstream) {
        const std::uint64_t bit_pos =
            std::uint64_t{rs(ln, o)} + static_cast<std::uint64_t>(o.imm);
        const std::uint64_t old = ln.sb_.pos_bits();
        ln.sb_.seek_bits(bit_pos);
        c.stream_bits += bit_pos - old; // net consumption delta
        return OpExit::Next;
    }

    // --- Specialized ---
    static Word lut_entry(const Lane &ln, const CompiledOp &o) {
        return rs(ln, o) + ((o.imm_w << 8) | ln.last_symbol_) * 16;
    }
    UDP_THREADED_OP(Emitlut) {
        const Word entry = lut_entry(ln, o);
        const std::uint8_t count = ln.mem_read8(entry);
        if (count > 15)
            throw UdpFaultError(FaultCode::BadAction,
                                "Lane: emitlut entry count exceeds 15");
        ++c.cycles; // table fetch pipeline stage
        for (unsigned i = 0; i < count; ++i)
            ln.out_byte(ln.mem_.read8(ln.mem_translate(entry + 1 + i)));
        ++ln.stats_.mem_reads; // one 8-byte-wide entry fetch
        return OpExit::Next;
    }
    UDP_THREADED_OP(Hash) {
        wr(ln, o, hash_mix(rs(ln, o), static_cast<unsigned>(o.imm)));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Hash2) {
        wr(ln, o, hash_mix(rr(ln, o) ^ (rs(ln, o) * 0x85EBCA6Bu), 0));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Loopcmp) {
        const Word rrv = rr(ln, o);
        const Word rsv = rs(ln, o);
        const Word bound = ln.regs_[o.dst];
        Word n = 0;
        while (n < bound && ln.mem_read8(rrv + n) == ln.mem_read8(rsv + n))
            ++n;
        c.cycles += ceil_div(std::max<Word>(n, 1), 8) - 1;
        wr(ln, o, n);
        return OpExit::Next;
    }
    UDP_THREADED_OP(Loopcpy) {
        const Word rrv = rr(ln, o);
        const Word rsv = rs(ln, o);
        const Word n = ln.regs_[o.dst];
        // One block on the threaded engine with no arbiter when both
        // spans are in range; otherwise byte by byte through the memory
        // path (the reference, observed lanes, arbiters and faults).
        // Both leave a forward byte copy's result: a destination that
        // overlaps ahead of the source replicates the prefix (LZ77
        // matches with a short offset).
        std::uint8_t *dst = ln.mem_span(rrv, n);
        const std::uint8_t *src = dst ? ln.mem_span(rsv, n) : nullptr;
        if (src) {
            if (src < dst && dst < src + n) {
                for (Word i = 0; i < n; ++i)
                    dst[i] = src[i];
            } else {
                std::memmove(dst, src, n);
            }
            ln.stats_.mem_reads += n;
            ln.stats_.mem_writes += n;
        } else {
            for (Word i = 0; i < n; ++i) {
                const std::uint8_t b = ln.mem_read8(rsv + i);
                ln.mem_write8(rrv + i, b);
            }
        }
        // max(1, ceil(n/8)) in all, this action's own cycle included.
        c.cycles += n ? ceil_div(n, 8) - 1 : 0;
        return OpExit::Next;
    }
    UDP_THREADED_OP(Loopcpyo) {
        const Word rsv = rs(ln, o);
        const Word n = ln.regs_[o.dst];
        for (Word i = 0; i < n; ++i)
            ln.out_byte(ln.mem_read8(rsv + i));
        c.cycles += n ? ceil_div(n, 8) - 1 : 0;
        return OpExit::Next;
    }
    UDP_THREADED_OP(Crc) {
        wr(ln, o, crc32c_table()[(ln.regs_[o.dst] ^ rs(ln, o)) & 0xFF] ^
                      (ln.regs_[o.dst] >> 8));
        return OpExit::Next;
    }

    // --- Output ---
    UDP_THREADED_OP(Outb) {
        ln.out_byte(static_cast<std::uint8_t>(rs(ln, o)));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Outw) {
        const Word v = rs(ln, o);
        ln.out_byte(static_cast<std::uint8_t>(v));
        ln.out_byte(static_cast<std::uint8_t>(v >> 8));
        ln.out_byte(static_cast<std::uint8_t>(v >> 16));
        ln.out_byte(static_cast<std::uint8_t>(v >> 24));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Outbits) {
        ln.out_bits(rs(ln, o), static_cast<unsigned>(o.imm));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Outflush) {
        ln.out_flush();
        return OpExit::Next;
    }
    UDP_THREADED_OP(Outi) {
        ln.out_byte(static_cast<std::uint8_t>(o.imm));
        return OpExit::Next;
    }
    UDP_THREADED_OP(Outbitsr) {
        const Word w = ln.regs_[o.dst];
        if (w >= 1 && w <= 32)
            ln.out_bits(rs(ln, o), w);
        else if (w != 0)
            throw UdpFaultError(FaultCode::BadAction,
                                "Lane: outbitsr width must be 0..32");
        return OpExit::Next;
    }

    // --- Control ---
    UDP_THREADED_OP(Accept) {
        ++ln.stats_.accepts;
        if (ln.accepts_.size() < Lane::kAcceptCapacity)
            ln.accepts_.push_back({ln.sb_.pos_bits(), o.imm_w});
        return OpExit::Next;
    }
    UDP_THREADED_OP(Halt) { return OpExit::Done; }
    UDP_THREADED_OP(Fail) { return OpExit::Reject; }
    UDP_THREADED_OP(Gotoact) { return OpExit::Next; } // next = target
    UDP_THREADED_OP(Nop) { return OpExit::Next; }

    // --- Trap ops ---

    /// Undecodable action word.  The chain walker charged the fetch
    /// unconditionally; the reference throws after charging only the
    /// dispatch read, so undo the action/cycle charges then re-decode
    /// the raw word to raise the identical error.
    UDP_THREADED_OP(invalid) {
        --c.actions;
        --c.cycles;
        decode_action(o.raw); // throws the reference's error
        throw UdpFaultError(FaultCode::BadAction,
                            "Lane: undecodable action word");
    }

    /// Out-of-range fetch sentinel: the reference throws before any
    /// charge, so undo all three.
    UDP_THREADED_OP(oob) {
        --c.dispatch_reads;
        --c.actions;
        --c.cycles;
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "Lane: action fetch out of range");
    }

    /// Table filler for the values no UDP_OPCODES row lists (decoding
    /// never yields one; charges stay).
    UDP_THREADED_OP(unimpl) {
        throw UdpFaultError(FaultCode::UnimplementedOpcode,
                            "Lane: unimplemented opcode");
    }

    static const std::array<OpFn, 128> &table();
};

#undef UDP_THREADED_OP

const std::array<OpFn, 128> &
ThreadedEngine::Ops::table()
{
    static const std::array<OpFn, 128> t = [] {
        std::array<OpFn, 128> a{};
        a.fill(&Ops::unimpl);
#define UDP_OP_HANDLER(op, value, format, mnemonic) a[value] = &Ops::op;
        UDP_OPCODES(UDP_OP_HANDLER)
#undef UDP_OP_HANDLER
        return a;
    }();
    return t;
}

CompiledOp
ThreadedEngine::lower(const Action &a, Word raw, std::uint32_t addr,
                      std::uint32_t nops)
{
    CompiledOp o;
    o.raw = raw;
    if (a.op == kInvalidOpcode) {
        o.fn = &Ops::invalid;
        o.op = kInvalidOpcode;
        o.last = 1;
        o.next = nops;
        return o;
    }
    o.fn = Ops::table()[static_cast<std::size_t>(a.op) & 127];
    o.op = a.op;
    o.dst = a.dst;
    o.ref = a.ref;
    o.src = a.src;
    o.imm = a.imm;
    o.imm_w = static_cast<Word>(a.imm);
    o.imm1 = static_cast<std::uint8_t>(a.imm1);
    if (a.op == Opcode::Gotoact) {
        // The jump is the `next` link; out-of-range targets fall on
        // the sentinel, raising the fetch fault at the right moment.
        const std::size_t t = static_cast<std::size_t>(a.imm);
        o.next = t < nops ? static_cast<std::uint32_t>(t) : nops;
        o.last = 0;
    } else {
        o.last = a.last ? 1 : 0;
        o.next = addr + 1; // == sentinel for the final word
    }
    return o;
}

CompiledOp
ThreadedEngine::trap_sentinel(std::uint32_t nops)
{
    CompiledOp s;
    s.fn = &Ops::oob;
    s.op = kInvalidOpcode;
    s.last = 1;
    s.next = nops;
    return s;
}

Word
ThreadedEngine::emitlut_entry(const Lane &ln, const CompiledOp &o)
{
    return Ops::lut_entry(ln, o);
}

// ---------------------------------------------------------------------------
// CompiledProgram: the decode and lowering pass.
// ---------------------------------------------------------------------------

namespace {

/// Non-throwing decode: reserved transition kind 7 becomes the invalid
/// sentinel instead of an exception, because the decode pass visits
/// every word — including garbage the interpreter would never fetch.
Transition
decode_transition_lenient(Word raw)
{
    const Word kind = bits(raw, 8, 4) & 0x7;
    if (kind >= kNumTransitionTypes) {
        Transition t;
        t.type = kInvalidTransitionType;
        return t;
    }
    return decode_transition(raw);
}

/// Non-throwing action decode (undefined opcode -> sentinel).
Action
decode_action_lenient(Word raw)
{
    if (!opcode_valid(bits(raw, 25, 7))) {
        Action a;
        a.op = kInvalidOpcode;
        return a;
    }
    return decode_action(raw);
}

} // namespace

CompiledProgram::CompiledProgram(const Program &prog)
    : fingerprint_(program_fingerprint(prog)),
      nops_(static_cast<std::uint32_t>(prog.actions.size())),
      init_dispatch_base_(prog.init_dispatch_base),
      init_action_base_(prog.init_action_base),
      init_action_scale_(prog.init_action_scale)
{
    transitions_.reserve(prog.dispatch.size());
    for (const Word w : prog.dispatch)
        transitions_.push_back(decode_transition_lenient(w));

    // Lower every action word into the flat op stream; one extra trap
    // sentinel terminates it so the chain walker needs no bounds check.
    // A Setbase into the dispatch window invalidates the compiled
    // next-state links, and a Setab static scaled-offset attach
    // resolution: either forces the (cheap) run-time re-resolution for
    // the whole program.
    ops_.reserve(std::size_t{nops_} + 1);
    for (std::uint32_t a = 0; a < nops_; ++a) {
        const Action act = decode_action_lenient(prog.actions[a]);
        if (act.op == Opcode::Setbase && act.dst != 0)
            dyn_dispatch_ = true;
        else if (act.op == Opcode::Setab)
            dyn_action_ = true;
        ops_.push_back(
            ThreadedEngine::lower(act, prog.actions[a], a, nops_));
    }
    ops_.push_back(ThreadedEngine::trap_sentinel(nops_));

    // Pass 1: the base -> compiled-index map.
    slot_state_.assign(prog.dispatch.size(), -1);
    for (std::size_t i = 0; i < prog.states.size(); ++i) {
        const std::uint32_t base = prog.states[i].base;
        if (base >= slot_state_.size())
            throw UdpError("CompiledProgram: state base outside image");
        if (slot_state_[base] != -1)
            throw UdpError("CompiledProgram: duplicate state base");
        slot_state_[base] = static_cast<std::int32_t>(i);
    }

    // Pass 2: per-state arc tables and NFA records (forward next-state
    // links resolve against the complete map).
    states_.reserve(prog.states.size());
    nfa_.reserve(prog.states.size());
    for (const StateMeta &sm : prog.states) {
        const std::uint8_t sig = state_signature(sm.base);
        // An aux chain longer than its base can only occur in a program
        // that never passed Program::validate(); clamp it to the image.
        const unsigned aux = std::min<unsigned>(sm.aux_count, sm.base);
        const auto chain = [&](unsigned k) -> const Transition & {
            return transitions_[sm.base - k];
        };

        CompiledState cs;
        cs.base = sm.base;
        cs.max_symbol = sm.max_symbol;
        cs.reg_source = sm.reg_source ? 1 : 0;
        CompiledNfaState ns;
        ns.signature = sig;

        // The chain in decode order.  A DFA step's `common` scan stops
        // at the first signature-matching common and does not skip
        // signature mismatches; an NFA activation decodes every word,
        // activating the signature-matching epsilons.  Either faults on
        // the first undecodable word it reaches.
        ns.eps_begin = static_cast<std::uint32_t>(epsilons_.size());
        for (unsigned k = 1; k <= aux; ++k) {
            const Transition &t = chain(k);
            if (t.type == kInvalidTransitionType) {
                ns.trap_slot = static_cast<std::int32_t>(sm.base - k);
                if (cs.head == CompiledState::Labeled) {
                    cs.head = CompiledState::Trap;
                    cs.common_arc.kind = ResolvedArc::Invalid;
                    cs.common_arc.raw_slot = sm.base - k;
                }
                break;
            }
            if (t.signature != sig)
                continue;
            if (t.type == TransitionType::Common &&
                cs.head == CompiledState::Labeled) {
                cs.head = CompiledState::Common;
                cs.common_arc = resolve_take(t, 0, 0);
            } else if (t.type == TransitionType::Epsilon) {
                epsilons_.push_back(t);
            }
        }
        ns.eps_end = static_cast<std::uint32_t>(epsilons_.size());

        // Signature-miss walks: charge one dispatch read per word
        // examined, stop at the first signature mismatch or fallback
        // hit; NFA mode also falls back to `common`.  Only states whose
        // chain decodes in full ever walk it.
        const auto walk = [&](bool nfa, Transition &hit,
                              std::uint8_t &reads) {
            for (unsigned k = 1; k <= aux; ++k) {
                const Transition &t = chain(k);
                ++reads;
                if (t.signature != sig)
                    return false;
                if (t.type == TransitionType::Majority ||
                    t.type == TransitionType::Default ||
                    (nfa && t.type == TransitionType::Common)) {
                    hit = t;
                    return true;
                }
            }
            return false;
        };
        ns.has_miss = walk(true, ns.miss, ns.miss_reads) ? 1 : 0;
        Transition miss;
        std::uint8_t miss_reads = 0;
        if (walk(false, miss, miss_reads)) {
            cs.miss_arc = resolve_take(miss, 1, miss_reads);
        } else {
            cs.miss_arc.kind = ResolvedArc::Reject;
            cs.miss_arc.miss = 1;
            cs.miss_arc.add_reads = miss_reads;
        }

        // The labeled table, unless the aux chain decides first (Common
        // takes one arc, and the step loop charges its single dispatch
        // read explicitly).
        cs.arc_base = static_cast<std::uint32_t>(arcs_.size());
        if (cs.head == CompiledState::Labeled) {
            for (std::uint32_t sym = 0; sym <= cs.max_symbol; ++sym) {
                const std::size_t slot = std::size_t{cs.base} + sym;
                ResolvedArc arc = cs.miss_arc;
                if (slot < transitions_.size()) {
                    const Transition &t = transitions_[slot];
                    if (t.type == kInvalidTransitionType) {
                        arc = ResolvedArc{};
                        arc.kind = ResolvedArc::Invalid;
                        arc.add_reads = 1; // charged before the re-decode
                        arc.raw_slot = static_cast<std::uint32_t>(slot);
                    } else if (t.signature == sig &&
                               (t.type == TransitionType::Labeled ||
                                t.type == TransitionType::Refill ||
                                t.type == TransitionType::Flagged)) {
                        arc = resolve_take(t, 0, 1);
                    } else {
                        ++arc.add_reads; // the labeled probe, then the walk
                    }
                }
                arcs_.push_back(arc);
            }
        }
        states_.push_back(cs);
        nfa_.push_back(ns);
    }
}

ResolvedArc
CompiledProgram::resolve_take(const Transition &t, std::uint8_t miss,
                              std::uint16_t add_reads) const
{
    ResolvedArc r;
    r.kind = ResolvedArc::Take;
    r.miss = miss;
    r.add_reads = add_reads;
    r.target = t.target;
    r.next_full = init_dispatch_base_ + t.target;
    r.next_state = r.next_full < slot_state_.size()
                       ? slot_state_[r.next_full]
                       : -1;

    std::uint8_t ref = t.attach;
    bool none = false;
    if (t.type == TransitionType::Refill) {
        // Refill attach ABI: high 3 bits = push-back count, low 5 bits
        // = action ref (31 = none).
        r.refill_bits = static_cast<std::uint8_t>(t.attach >> 5);
        ref = t.attach & 0x1F;
        none = (ref == 0x1F);
    } else {
        none = (ref == kNoActions && t.attach_mode == AttachMode::Direct);
    }
    if (!none) {
        r.has_act = 1;
        if (t.attach_mode == AttachMode::Direct) {
            r.act = ref < nops_ ? ref : nops_;
        } else if (!dyn_action_) {
            const std::size_t addr =
                std::size_t{init_action_base_} +
                (std::size_t{ref} << init_action_scale_);
            r.act = addr < nops_ ? static_cast<std::uint32_t>(addr) : nops_;
        } else {
            r.act_dynamic = 1;
            r.att_ref = ref;
        }
    }
    return r;
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

void
ThreadedEngine::flush(Lane &ln, ThreadedCtx &c)
{
    ln.stats_.cycles += c.cycles;
    ln.stats_.dispatches += c.dispatches;
    ln.stats_.dispatch_reads += c.dispatch_reads;
    ln.stats_.sig_misses += c.sig_misses;
    ln.stats_.actions += c.actions;
    ln.stats_.stream_bits += c.stream_bits;
    c.cycles = 0;
    c.dispatches = 0;
    c.dispatch_reads = 0;
    c.sig_misses = 0;
    c.actions = 0;
    c.stream_bits = 0;
}

LaneStatus
ThreadedEngine::exec_chain(Lane &ln, ThreadedCtx &c, std::uint32_t ix)
{
    const CompiledOp *const ops = c.ops;
    // Every op's fetch charges one dispatch read, one action and one
    // cycle; they are counted here and added once when the chain ends,
    // or before an exception escapes.  The op that threw counts too, so
    // the trap ops' undo of what the reference would not have charged
    // stays exact.
    std::uint64_t n = 0;
    const auto charge = [&c, &n] {
        c.dispatch_reads += n;
        c.actions += n;
        c.cycles += n;
    };
    try {
        for (;;) {
            const CompiledOp &o = ops[ix];
            ++n;
            const OpExit e = o.fn(ln, c, o);
            if (e == OpExit::Next && !o.last) {
                ix = o.next;
                continue;
            }
            charge();
            if (e == OpExit::Next)
                return LaneStatus::Running;
            return e == OpExit::Done ? LaneStatus::Done
                                     : LaneStatus::Reject;
        }
    } catch (...) {
        charge();
        throw;
    }
}

LaneStatus
ThreadedEngine::run_steps_body(Lane &ln, std::uint64_t n)
{
    const CompiledProgram &cp = *ln.compiled_;
    const Program &prog = *ln.prog_;
    ThreadedCtx c;
    c.ops = cp.ops();
    c.nops = cp.op_count();

    // With no base-rewriting actions and the architectural dispatch
    // base, every arc's compiled next-state link is valid as-is;
    // otherwise re-resolve against the live base each step.
    const bool static_next =
        !cp.dyn_dispatch() &&
        ln.dispatch_base_ == cp.init_dispatch_base();

    std::int32_t ix = cp.state_index(ln.cur_state_);

    LaneStatus out = LaneStatus::Running;
    try {
        for (std::uint64_t i = 0; i < n; ++i) {
            if (ix < 0)
                throw UdpFaultError(
                    FaultCode::BadDispatch,
                    "Lane: dispatch into unknown state base " +
                        std::to_string(ln.cur_state_));
            const CompiledState &cs =
                cp.state(static_cast<std::size_t>(ix));
            const ResolvedArc *arc;
            if (cs.head != CompiledState::Labeled) {
                if (cs.head == CompiledState::Trap)
                    decode_transition(
                        prog.dispatch[cs.common_arc.raw_slot]); // throws
                if (!cs.reg_source) {
                    const unsigned width = ln.symbol_bits_;
                    if (ln.sb_.exhausted(width)) {
                        out = LaneStatus::Done;
                        ln.halted_ = true;
                        ln.halt_status_ = out;
                        break;
                    }
                    c.stream_bits += width;
                    ln.last_symbol_ = ln.sb_.read(width);
                }
                ++c.dispatches;
                ++c.cycles;
                ++c.dispatch_reads;
                arc = &cs.common_arc;
            } else {
                const unsigned width = ln.symbol_bits_;
                Word sym;
                if (cs.reg_source) {
                    const Word mask = width >= 32
                                          ? ~Word{0}
                                          : ((Word{1} << width) - 1);
                    sym = ln.regs_[kRegDispatch] & mask;
                    ln.last_symbol_ = sym;
                } else {
                    if (ln.sb_.exhausted(width)) {
                        out = LaneStatus::Done;
                        ln.halted_ = true;
                        ln.halt_status_ = out;
                        break;
                    }
                    c.stream_bits += width;
                    sym = ln.last_symbol_ = ln.sb_.read(width);
                }
                ++c.dispatches;
                ++c.cycles;
                arc = sym <= cs.max_symbol
                          ? cp.arcs() + (cs.arc_base + sym)
                          : &cs.miss_arc;
                c.cycles += arc->miss;
                c.sig_misses += arc->miss;
                c.dispatch_reads += arc->add_reads;
                if (arc->kind != ResolvedArc::Take) {
                    if (arc->kind == ResolvedArc::Invalid)
                        decode_transition(
                            prog.dispatch[arc->raw_slot]); // throws
                    out = LaneStatus::Reject;
                    ln.halted_ = true;
                    ln.halt_status_ = out;
                    break;
                }
            }

            // Refill: push back over-consumed bits before actions
            // observe r15.
            if (arc->refill_bits != 0) {
                ln.sb_.refill(arc->refill_bits);
                c.stream_bits -= arc->refill_bits;
            }

            if (arc->has_act) {
                std::uint32_t a0 = arc->act;
                if (arc->act_dynamic) {
                    const std::size_t addr =
                        static_cast<std::size_t>(ln.action_base_) +
                        (std::size_t{arc->att_ref} << ln.action_scale_);
                    a0 = addr < c.nops ? static_cast<std::uint32_t>(addr)
                                       : c.nops;
                }
                const LaneStatus st = exec_chain(ln, c, a0);
                if (st != LaneStatus::Running) {
                    out = st;
                    ln.halted_ = true;
                    ln.halt_status_ = st;
                    break;
                }
            }

            // 12-bit targets are window-relative; rebase into the
            // current dispatch window.
            if (static_next) {
                ln.cur_state_ = arc->next_full;
                ix = arc->next_state;
            } else {
                ln.cur_state_ = ln.dispatch_base_ + arc->target;
                ix = cp.state_index(ln.cur_state_);
            }
        }
    } catch (...) {
        // The fault record reads stats_.cycles at trap time.
        flush(ln, c);
        throw;
    }
    flush(ln, c);
    return out;
}

LaneStatus
ThreadedEngine::run_nfa(Lane &ln, std::uint64_t max_cycles)
{
    const CompiledProgram &cp = *ln.compiled_;
    const Program &prog = *ln.prog_;
    LaneStats &st = ln.stats_;
    ThreadedCtx c;
    c.ops = cp.ops();
    c.nops = cp.op_count();

    // Arc actions run on the op stream; their counters are flushed
    // once per input symbol, so the watchdog and trap checks at the top
    // of the step loop always read complete stats.
    const auto fire = [&](const Transition &t) {
        std::size_t act;
        if (ln.attach_addr(t, act))
            exec_chain(ln, c,
                       act < c.nops ? static_cast<std::uint32_t>(act)
                                    : c.nops);
    };

    // The compiled index of the active state at `base`.
    const auto index_of = [&](std::size_t base, const char *unknown) {
        const std::int32_t ix = cp.state_index(base);
        if (ix < 0)
            throw UdpFaultError(FaultCode::BadDispatch, unknown);
        return static_cast<std::size_t>(ix);
    };

    // Active-state set with epsilon closure on activation. Frontier order
    // is deterministic; duplicates are suppressed with a stamp array.
    // Active entries are full word addresses.
    std::vector<std::size_t> active{prog.entry};
    std::vector<std::size_t> next;
    std::vector<std::uint32_t> stamp(cp.dispatch_words(), 0);
    std::uint32_t generation = 0;

    // Whether `tgt` is already active this generation.  A target past
    // the image is no state's base: fault before indexing the stamps.
    const auto seen = [&](std::size_t tgt) {
        if (tgt >= stamp.size())
            throw UdpFaultError(FaultCode::BadDispatch,
                                "Lane: NFA activation of unknown state");
        return stamp[tgt] == generation;
    };

    const auto close = [&](std::vector<std::size_t> &set) {
        ++generation;
        for (auto b : set)
            stamp[b] = generation;
        for (std::size_t i = 0; i < set.size(); ++i) {
            const CompiledNfaState &ns = cp.nfa_state(
                index_of(set[i], "Lane: NFA activation of unknown state"));
            for (const Transition *t = cp.eps_begin(ns),
                                  *e = cp.eps_end(ns);
                 t != e; ++t) {
                const std::size_t tgt = ln.dispatch_base_ + t->target;
                if (seen(tgt))
                    continue;
                // Epsilon activation costs one dispatch cycle.
                ++st.cycles;
                ++st.dispatches;
                ++st.dispatch_reads;
                stamp[tgt] = generation;
                set.push_back(tgt);
                fire(*t);
            }
            if (ns.trap_slot >= 0)
                decode_transition(prog.dispatch[static_cast<std::size_t>(
                    ns.trap_slot)]); // throws
        }
    };

    try {
        close(active);
        flush(ln, c);
        const unsigned width = ln.symbol_bits_;

        while (!active.empty() && st.cycles < max_cycles) {
            if (ln.trap_cycle_ != 0 && st.cycles >= ln.trap_cycle_)
                return ln.trap(FaultCode::ForcedTrap,
                               "Lane: forced trap (fault injection)");
            if (ln.sb_.exhausted(width))
                return LaneStatus::Done;
            st.stream_bits += width;
            const Word sym = ln.last_symbol_ = ln.sb_.read(width);

            next.clear();
            ++generation;
            for (const auto cur : active) {
                const std::size_t ix =
                    index_of(cur, "Lane: NFA dispatch into unknown state");
                const CompiledState &cs = cp.state(ix);
                const CompiledNfaState &ns = cp.nfa_state(ix);
                ++st.dispatches;
                ++st.cycles;

                const Transition *taken = nullptr;
                const std::size_t slot = std::size_t{cs.base} + sym;
                if (slot < cp.dispatch_words() && sym <= cs.max_symbol) {
                    ++st.dispatch_reads;
                    const Transition &t = cp.transition(slot);
                    if (t.type == kInvalidTransitionType)
                        decode_transition(prog.dispatch[slot]); // throws
                    if (t.signature == ns.signature &&
                        (t.type == TransitionType::Labeled ||
                         t.type == TransitionType::Refill))
                        taken = &t;
                }
                if (!taken) {
                    ++st.sig_misses;
                    ++st.cycles;
                    st.dispatch_reads += ns.miss_reads;
                    if (ns.has_miss)
                        taken = &ns.miss;
                }
                // No arc: this activation dies after its charges.
                if (!taken)
                    continue;
                const std::size_t tgt = ln.dispatch_base_ + taken->target;
                if (!seen(tgt)) {
                    stamp[tgt] = generation;
                    next.push_back(tgt);
                    // Activation happens once per step; arc actions fire
                    // with the first arc that activates the target.
                    fire(*taken);
                }
            }
            close(next);
            flush(ln, c);
            active.swap(next);
        }
    } catch (...) {
        flush(ln, c); // the fault record reads stats_.cycles at trap time
        throw;
    }
    if (active.empty())
        return LaneStatus::Reject;
    // Loop exit with live activations means the watchdog fired, not a
    // clean end of stream.
    return ln.trip_watchdog("Lane: NFA cycle budget (" +
                            std::to_string(max_cycles) +
                            ") exhausted before completion");
}

// ---------------------------------------------------------------------------
// The shared compiled-image cache.
// ---------------------------------------------------------------------------

std::shared_ptr<const CompiledProgram>
shared_compiled(const Program &prog)
{
    static std::mutex mu;
    static std::unordered_map<std::uint64_t,
                              std::shared_ptr<const CompiledProgram>>
        cache;

    const std::uint64_t key = program_fingerprint(prog);
    {
        std::lock_guard<std::mutex> lk(mu);
        const auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    // Build outside the lock: the lowering cost scales with the image,
    // and concurrent builders of the same program are harmless (the
    // first one inserted wins; both results are equivalent).
    auto cp = std::make_shared<const CompiledProgram>(prog);
    std::lock_guard<std::mutex> lk(mu);
    if (cache.size() >= 128)
        cache.clear(); // crude bound; lanes recompile after a burst
    return cache.emplace(key, std::move(cp)).first->second;
}

// ---------------------------------------------------------------------------
// Disassembler (--dump-compiled).
// ---------------------------------------------------------------------------

namespace {

std::string
arc_desc(const ResolvedArc &a)
{
    char buf[160];
    switch (a.kind) {
      case ResolvedArc::Reject:
        std::snprintf(buf, sizeof buf, "reject (miss, +%u reads)",
                      unsigned{a.add_reads});
        return buf;
      case ResolvedArc::Invalid:
        std::snprintf(buf, sizeof buf,
                      "trap (undecodable slot 0x%x)", a.raw_slot);
        return buf;
      case ResolvedArc::Take:
      default:
        break;
    }
    std::string s;
    std::snprintf(buf, sizeof buf, "take -> @0x%x", a.next_full);
    s += buf;
    if (a.next_state < 0)
        s += " (unknown state)";
    if (a.miss)
        s += " via miss-chain";
    if (a.add_reads) {
        std::snprintf(buf, sizeof buf, " +%u reads", unsigned{a.add_reads});
        s += buf;
    }
    if (a.refill_bits) {
        std::snprintf(buf, sizeof buf, " refill %u bits",
                      unsigned{a.refill_bits});
        s += buf;
    }
    if (a.has_act) {
        if (a.act_dynamic)
            std::snprintf(buf, sizeof buf, " act dyn[ref=%u]",
                          unsigned{a.att_ref});
        else
            std::snprintf(buf, sizeof buf, " act [%u]", a.act);
        s += buf;
    }
    return s;
}

bool
same_arc(const ResolvedArc &a, const ResolvedArc &b)
{
    return a.kind == b.kind && a.miss == b.miss &&
           a.add_reads == b.add_reads && a.refill_bits == b.refill_bits &&
           a.has_act == b.has_act && a.act_dynamic == b.act_dynamic &&
           a.att_ref == b.att_ref && a.target == b.target &&
           a.act == b.act && a.raw_slot == b.raw_slot;
}

} // namespace

std::string
disassemble_compiled(const CompiledProgram &cp)
{
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "compiled image: %u micro-ops (+1 trap sentinel), "
                  "%zu states, dyn-dispatch=%d, dyn-action=%d\n",
                  cp.op_count(), cp.num_states(), cp.dyn_dispatch() ? 1 : 0,
                  cp.dyn_action() ? 1 : 0);
    out += buf;

    for (std::size_t s = 0; s < cp.num_states(); ++s) {
        const CompiledState &cs = cp.state(s);
        std::snprintf(buf, sizeof buf, "state @0x%x (ix %zu)%s:\n",
                      cs.base, s,
                      cs.reg_source ? " reg-source" : "");
        out += buf;
        if (cs.head == CompiledState::Common) {
            out += "  common: " + arc_desc(cs.common_arc) + "\n";
        } else if (cs.head == CompiledState::Trap) {
            out += "  aux chain: " + arc_desc(cs.common_arc) + "\n";
        } else {
            // Collapse runs of identical consecutive arcs.
            const ResolvedArc *arcs = cp.arcs() + cs.arc_base;
            for (std::uint32_t lo = 0; lo <= cs.max_symbol;) {
                std::uint32_t hi = lo;
                while (hi + 1 <= cs.max_symbol &&
                       same_arc(arcs[hi + 1], arcs[lo]))
                    ++hi;
                if (lo == hi)
                    std::snprintf(buf, sizeof buf, "  sym 0x%02x: ", lo);
                else
                    std::snprintf(buf, sizeof buf, "  sym 0x%02x..0x%02x: ",
                                  lo, hi);
                out += buf;
                out += arc_desc(arcs[lo]) + "\n";
                lo = hi + 1;
            }
        }
        out += "  miss: " + arc_desc(cs.miss_arc) + "\n";
    }

    out += "ops:\n";
    for (std::uint32_t i = 0; i < cp.op_count(); ++i) {
        const CompiledOp &o = cp.ops()[i];
        if (o.op == kInvalidOpcode) {
            std::snprintf(buf, sizeof buf,
                          "  [%u] <undecodable 0x%08x>\n", i, o.raw);
            out += buf;
            continue;
        }
        std::snprintf(buf, sizeof buf,
                      "  [%u] %s dst=r%u ref=r%u src=r%u imm=%d imm1=%u",
                      i, std::string(opcode_name(o.op)).c_str(),
                      unsigned{o.dst}, unsigned{o.ref}, unsigned{o.src},
                      o.imm, unsigned{o.imm1});
        out += buf;
        if (o.op == Opcode::Gotoact) {
            std::snprintf(buf, sizeof buf, " ; goto [%u]\n", o.next);
            out += buf;
        } else if (o.last) {
            out += " ; last\n";
        } else {
            std::snprintf(buf, sizeof buf, " ; next [%u]\n", o.next);
            out += buf;
        }
    }
    std::snprintf(buf, sizeof buf, "  [%u] <trap: fetch out of range>\n",
                  cp.op_count());
    out += buf;
    return out;
}

} // namespace udp
