/**
 * @file
 * UDP lane ISA: transition and action formats (paper Figure 6).
 *
 * Transition word (32 bits):
 *     signature(8) | target(12) | type(4) | attach(8)
 *
 * The `type` field's low 3 bits select one of the seven transition kinds
 * (Section 3.2.1); bit 3 selects the attach addressing mode (direct vs
 * scaled-offset, the UDP improvement over UAP's offset addressing).
 *
 * Action words (32 bits, three formats distinguished by opcode):
 *     ImmAction  : opcode(7) | last(1) | dst(4) | src(4) | imm(16)
 *     Imm2Action : opcode(7) | last(1) | dst(4) | src(4) | imm1(4) | imm2(12)
 *     RegAction  : opcode(7) | last(1) | dst(4) | ref(4) | src(4) | unused(12)
 *
 * Actions attached to a transition are chained; `last` terminates the chain.
 */
#pragma once

#include "types.hpp"

#include <array>
#include <optional>
#include <string_view>

namespace udp {

/**
 * The seven transition kinds of the UDP multi-way dispatch (Section 3.2.1).
 *
 * - Labeled: a single specific-symbol transition; stored at base+symbol.
 * - Majority: one encoded transition standing for the set of outgoing
 *   transitions that share a destination from this source state; taken when
 *   the labeled-slot signature check fails (one extra cycle).
 * - Default: fallback shared *across* source states ("delta" storage);
 *   lowest priority.
 * - Epsilon: multi-state activation (NFA support); taken without consuming
 *   input, activating an additional state.
 * - Common: "don't care" - always taken whatever symbol arrives; replaces
 *   all labeled transitions of the source state.
 * - Flagged: control-flow driven dispatch - the symbol is read from scalar
 *   data register r0 instead of the stream buffer (Section 3.2.3).
 * - Refill: variable-size symbol support - pushes back the bits that should
 *   not have been consumed, per the attach field (SsRef, Section 3.2.2).
 */
enum class TransitionType : std::uint8_t {
    Labeled = 0,
    Majority = 1,
    Default = 2,
    Epsilon = 3,
    Common = 4,
    Flagged = 5,
    Refill = 6,
};

/// Number of transition kinds.
inline constexpr unsigned kNumTransitionTypes = 7;

/// Attach-field addressing mode (Section 3.2.1, Figure 5c).
enum class AttachMode : std::uint8_t {
    /// Action block address = attach (words 0..255 of the action region):
    /// global sharing of hot action blocks.
    Direct = 0,
    /// Action block address = action window base + (attach << scale):
    /// private per-state blocks beyond the 8-bit range.
    ScaledOffset = 1,
};

/// Sentinel attach value meaning "no actions on this transition".
inline constexpr std::uint8_t kNoActions = 0xFF;

/**
 * The action opcodes: 64 operations in arithmetic, logical, comparison,
 * memory, stream/configuration, specialized (hash, loop-compare,
 * loop-copy), output and control groups (Sections 3.1 and 3.2.5).
 *
 * The one opcode list: the `Opcode` enum, the format/mnemonic table
 * (isa.cpp) and the op-handler table (threaded_program.cpp) are
 * generated from it.  A row is `X(Name, value, Format, "mnemonic")`;
 * `value` is the 7-bit encoding every encoded image depends on.  A
 * duplicate value, a value past 127, or a row without a
 * `ThreadedEngine::Ops::Name` handler fails to compile.
 */
#define UDP_OPCODES(X)                                                     \
    /* --- ALU, immediate forms (ImmAction: dst, src, imm16 sign-extended) */ \
    X(Addi, 0, Imm, "addi")       /* dst = src + imm */                    \
    X(Subi, 1, Imm, "subi")       /* dst = src - imm */                    \
    X(Andi, 2, Imm, "andi")       /* dst = src & imm (zero-extended) */    \
    X(Ori, 3, Imm, "ori")         /* dst = src | imm (zero-extended) */    \
    X(Xori, 4, Imm, "xori")       /* dst = src ^ imm (zero-extended) */    \
    X(Shli, 5, Imm, "shli")       /* dst = src << imm */                   \
    X(Shri, 6, Imm, "shri")       /* dst = src >> imm (logical) */         \
    X(Sari, 7, Imm, "sari")       /* dst = src >> imm (arithmetic) */      \
    X(Movi, 8, Imm, "movi")       /* dst = imm (sign-extended) */          \
    X(Lui, 9, Imm, "lui")         /* dst = (dst & 0xFFFF) | (imm << 16) */ \
    X(Cmpeqi, 10, Imm, "cmpeqi")  /* dst = (src == imm) */                 \
    X(Cmplti, 11, Imm, "cmplti")  /* dst = (src < imm), signed */          \
    X(Cmpltui, 12, Imm, "cmpltui") /* dst = (src < imm), unsigned */       \
    X(Muli, 13, Imm, "muli")      /* dst = src * imm */                    \
                                                                           \
    /* --- ALU, register forms (RegAction: dst, ref, src) --- */           \
    X(Add, 20, Reg, "add")        /* dst = ref + src */                    \
    X(Sub, 21, Reg, "sub")        /* dst = ref - src */                    \
    X(And, 22, Reg, "and")        /* dst = ref & src */                    \
    X(Or, 23, Reg, "or")          /* dst = ref | src */                    \
    X(Xor, 24, Reg, "xor")        /* dst = ref ^ src */                    \
    X(Shl, 25, Reg, "shl")        /* dst = ref << (src & 31) */            \
    X(Shr, 26, Reg, "shr")        /* dst = ref >> (src & 31), logical */   \
    X(Mov, 27, Reg, "mov")        /* dst = src */                          \
    X(Not, 28, Reg, "not")        /* dst = ~src */                         \
    X(Neg, 29, Reg, "neg")        /* dst = -src */                         \
    X(Mul, 30, Reg, "mul")        /* dst = ref * src */                    \
    X(Min, 31, Reg, "min")        /* dst = min(ref, src), unsigned */      \
    X(Max, 32, Reg, "max")        /* dst = max(ref, src), unsigned */      \
    X(Cmpeq, 33, Reg, "cmpeq")    /* dst = (ref == src) */                 \
    X(Cmplt, 34, Reg, "cmplt")    /* dst = (ref < src), unsigned */        \
    X(Select, 35, Reg, "select")  /* dst = dst ? ref : src (cond. move) */ \
                                                                           \
    /* --- Memory (ImmAction: address = reg[src] + imm, window-based) --- */ \
    X(Ldw, 40, Imm, "ldw")        /* dst = mem32[src + imm] */             \
    X(Stw, 41, Imm, "stw")        /* mem32[src + imm] = dst */             \
    X(Ldb, 42, Imm, "ldb")        /* dst = mem8[src + imm] (zero-ext.) */  \
    X(Stb, 43, Imm, "stb")        /* mem8[src + imm] = dst & 0xFF */       \
    X(Bininc, 44, Imm, "bininc")  /* mem32[src*4 + imm]++ (fused          \
                                     histogram-bin update) */              \
                                                                           \
    /* --- Stream / configuration (ImmAction unless noted) --- */          \
    X(Setss, 50, Imm, "setss")    /* symbol-size register = imm (1..8,    \
                                     16, 32 bits) */                       \
    X(Setssr, 51, Imm, "setssr")  /* symbol-size register = reg[src]      \
                                     (dynamic) */                          \
    X(Setbase, 52, Imm, "setbase") /* window base register = reg[src] +   \
                                      imm (restricted addressing; a data   \
                                      base below the job's window faults)  \
                                      */                                   \
    X(Setab, 53, Imm2, "setab")   /* action window base = reg[src] + imm; \
                                     scale = dst field */                  \
    X(Skip, 54, Imm, "skip")      /* advance stream by imm bits */         \
    X(Refill, 55, Imm, "refill")  /* push back imm bits into the stream   \
                                     buffer */                             \
    X(Peek, 56, Imm, "peek")      /* dst = next imm bits of stream (not   \
                                     consumed) */                          \
    X(Read, 57, Imm, "read")      /* dst = next imm bits of stream        \
                                     (consumed) */                         \
    X(Tell, 58, Imm, "tell")      /* dst = current stream *bit* position */ \
    X(Setstream, 59, Imm, "setstream") /* stream cursor = bit position    \
                                          reg[src] + imm */                \
    X(Lastsym, 60, Imm, "lastsym") /* dst = the symbol value of the       \
                                      current dispatch (the dispatch unit \
                                      latches it; UAP actions likewise    \
                                      had a symbol operand) */             \
                                                                           \
    /* --- Specialized (Section 3.2.5) --- */                              \
    X(Emitlut, 68, Imm, "emitlut") /* wide-LUT emit (the hardwired-       \
                                      decoder datapath [39], used by the  \
                                      SsF ablation): entry = mem[reg[src] \
                                      + ((imm<<8 | lastsym) * 16)], laid  \
                                      out as [count][bytes...]; emits     \
                                      count bytes. 2 cycles. */            \
    X(Hash, 70, Imm, "hash")      /* dst = hash(reg[src]) mixed with imm  \
                                     seed (1 cycle) */                     \
    X(Hash2, 71, Reg, "hash2")    /* dst = hash(reg[ref], reg[src]) */     \
    X(Loopcmp, 72, Reg, "loopcmp") /* dst = match length n of mem[ref]    \
                                      vs mem[src], bounded by reg[dst] on \
                                      entry; max(1, ceil(n/8)) cycles */   \
    X(Loopcpy, 73, Reg, "loopcpy") /* copy n = reg[dst] bytes mem[src] -> \
                                      mem[ref]; max(1, ceil(n/8)) */       \
    X(Loopcpyo, 74, Reg, "loopcpyo") /* copy n = reg[dst] bytes from      \
                                        mem[src] to the output stream;    \
                                        max(1, ceil(n/8)) */               \
    X(Crc, 75, Reg, "crc")        /* dst = CRC32C step of (dst, src byte) */ \
                                                                           \
    /* --- Output (per-lane output staging buffer) --- */                  \
    X(Outb, 80, Imm, "outb")      /* append reg[src] low byte to output */ \
    X(Outw, 81, Imm, "outw")      /* append reg[src] as 4 little-endian   \
                                     bytes */                              \
    X(Outbits, 82, Imm, "outbits") /* append low imm bits of reg[src] to  \
                                      the output bitstream */              \
    X(Outflush, 83, Imm, "outflush") /* byte-align the output bitstream */ \
    X(Outi, 84, Imm, "outi")      /* append imm low byte to output        \
                                     (immediate emit) */                   \
    X(Outbitsr, 85, Imm, "outbitsr") /* append low reg[dst]-count bits of \
                                        reg[src] (dynamic) */              \
                                                                           \
    /* --- Control --- */                                                  \
    X(Accept, 90, Imm, "accept")  /* record a match/acceptance (id = imm) \
                                     at stream position */                 \
    X(Halt, 91, Imm, "halt")      /* stop this lane (status Done) */       \
    X(Fail, 92, Imm, "fail")      /* stop this lane (status Reject) */     \
    X(Gotoact, 93, Imm, "gotoact") /* continue action chain at action     \
                                      address imm ("goto") */              \
    X(Nop, 94, Imm, "nop")

/// Action opcodes, one enumerator per UDP_OPCODES row.  The encoding
/// format of each is fixed (see `action_format`).
enum class Opcode : std::uint8_t {
#define UDP_OPCODE_ENUMERATOR(name, value, format, mnemonic) name = value,
    UDP_OPCODES(UDP_OPCODE_ENUMERATOR)
#undef UDP_OPCODE_ENUMERATOR
};

/// The three action encodings of Figure 6.
enum class ActionFormat : std::uint8_t { Imm, Imm2, Reg };

/// Encoding format used by an opcode.
ActionFormat action_format(Opcode op);

/// Printable mnemonic ("addi", "loopcpy", ...).
std::string_view opcode_name(Opcode op);

/// Parse a mnemonic; empty optional when unknown.
std::optional<Opcode> opcode_from_name(std::string_view name);

/// Printable transition-type name ("labeled", ...).
std::string_view transition_type_name(TransitionType t);

/// True when `op` is a defined opcode value.
bool opcode_valid(Word raw);

// ---------------------------------------------------------------------------
// Decoded (unpacked) representations and the 32-bit pack/unpack routines.
// ---------------------------------------------------------------------------

/// Decoded transition word.
struct Transition {
    std::uint8_t signature = 0;     ///< slot-validity check value
    DispatchAddr target = 0;        ///< base address of the next state
    TransitionType type = TransitionType::Labeled;
    AttachMode attach_mode = AttachMode::Direct;
    std::uint8_t attach = kNoActions; ///< action block ref / refill count

    bool operator==(const Transition &) const = default;
};

/// Decoded action word.
struct Action {
    Opcode op = Opcode::Nop;
    bool last = true;          ///< terminates the action chain
    std::uint8_t dst = 0;      ///< destination register (or scale for Setab)
    std::uint8_t ref = 0;      ///< RegAction second operand register
    std::uint8_t src = 0;      ///< source register
    std::int32_t imm = 0;      ///< Imm: imm16 (sign-ext); Imm2: imm2 (12b)
    std::int32_t imm1 = 0;     ///< Imm2Action only: 4-bit auxiliary field

    bool operator==(const Action &) const = default;
};

/// Pack a transition into its 32-bit encoding.
Word encode_transition(const Transition &t);

/// Unpack a 32-bit transition word.
Transition decode_transition(Word raw);

/// Pack an action into its 32-bit encoding. Throws UdpError when a field
/// does not fit its width (e.g. imm16 overflow in an ImmAction).
Word encode_action(const Action &a);

/// Unpack a 32-bit action word. Throws UdpError on an undefined opcode.
Action decode_action(Word raw);

/// Convenience constructors --------------------------------------------------

inline Action
act_imm(Opcode op, unsigned dst, unsigned src, std::int32_t imm,
        bool last = false)
{
    Action a;
    a.op = op;
    a.dst = static_cast<std::uint8_t>(dst);
    a.src = static_cast<std::uint8_t>(src);
    a.imm = imm;
    a.last = last;
    return a;
}

inline Action
act_reg(Opcode op, unsigned dst, unsigned ref, unsigned src,
        bool last = false)
{
    Action a;
    a.op = op;
    a.dst = static_cast<std::uint8_t>(dst);
    a.ref = static_cast<std::uint8_t>(ref);
    a.src = static_cast<std::uint8_t>(src);
    a.last = last;
    return a;
}

} // namespace udp
