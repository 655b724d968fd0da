/**
 * @file
 * ISA encode/decode and name tables.
 */
#include "isa.hpp"

#include "fault.hpp"

#include <array>
#include <string>

namespace udp {

namespace {

struct OpInfo {
    std::string_view name; ///< empty: no opcode has this value
    ActionFormat format = ActionFormat::Imm;
};

// The UDP_OPCODES rows, indexed by opcode value.  Built at compile
// time: a value past the table or listed twice throws, which a
// constant expression cannot do, so either fails the build.
constexpr std::array<OpInfo, 128> kOps = [] {
    std::array<OpInfo, 128> t{};
    const auto row = [&t](unsigned value, ActionFormat format,
                          std::string_view name) {
        if (value >= t.size() || !t[value].name.empty())
            throw "UDP_OPCODES: opcode value out of range or listed twice";
        t[value] = {name, format};
    };
#define UDP_OPCODE_ROW(op, value, format, mnemonic)                        \
    row(value, ActionFormat::format, mnemonic);
    UDP_OPCODES(UDP_OPCODE_ROW)
#undef UDP_OPCODE_ROW
    return t;
}();

const OpInfo *
find_op(Opcode op)
{
    const auto v = static_cast<std::size_t>(op);
    return v < kOps.size() && !kOps[v].name.empty() ? &kOps[v] : nullptr;
}

/// The logical-immediate group zero-extends imm16; every other
/// ImmAction sign-extends it.
bool
zero_extended_imm(Opcode op)
{
    return op == Opcode::Andi || op == Opcode::Ori || op == Opcode::Xori ||
           op == Opcode::Lui;
}

constexpr std::string_view kTransitionNames[kNumTransitionTypes] = {
    "labeled", "majority", "default", "epsilon", "common", "flagged",
    "refill",
};

} // namespace

ActionFormat
action_format(Opcode op)
{
    const OpInfo *info = find_op(op);
    if (!info)
        throw UdpError("action_format: undefined opcode");
    return info->format;
}

std::string_view
opcode_name(Opcode op)
{
    const OpInfo *info = find_op(op);
    return info ? info->name : "<bad>";
}

std::optional<Opcode>
opcode_from_name(std::string_view name)
{
    for (std::size_t v = 0; v < kOps.size(); ++v)
        if (!kOps[v].name.empty() && kOps[v].name == name)
            return static_cast<Opcode>(v);
    return std::nullopt;
}

std::string_view
transition_type_name(TransitionType t)
{
    const auto idx = static_cast<unsigned>(t);
    if (idx >= kNumTransitionTypes)
        return "<bad>";
    return kTransitionNames[idx];
}

bool
opcode_valid(Word raw)
{
    return find_op(static_cast<Opcode>(raw)) != nullptr;
}

// --------------------------------------------------------------------------
// Transition: signature(8) @24 | target(12) @12 | type(4) @8 | attach(8) @0
//
// Layout note: we place fields MSB-first in declaration order of Figure 6.
// type(4) = mode(1 bit, bit 11 of the field group) | kind(3 bits).
// --------------------------------------------------------------------------

Word
encode_transition(const Transition &t)
{
    if (t.target >= kDispatchWords)
        throw UdpError("encode_transition: target exceeds 12 bits");
    const auto kind = static_cast<Word>(t.type);
    if (kind >= kNumTransitionTypes)
        throw UdpError("encode_transition: bad transition type");
    const Word type_field =
        kind | (t.attach_mode == AttachMode::ScaledOffset ? 0x8u : 0u);
    return make_bits(t.signature, 24, 8) | make_bits(t.target, 12, 12) |
           make_bits(type_field, 8, 4) | make_bits(t.attach, 0, 8);
}

Transition
decode_transition(Word raw)
{
    Transition t;
    t.signature = static_cast<std::uint8_t>(bits(raw, 24, 8));
    t.target = static_cast<DispatchAddr>(bits(raw, 12, 12));
    const Word type_field = bits(raw, 8, 4);
    const Word kind = type_field & 0x7;
    if (kind >= kNumTransitionTypes)
        throw UdpFaultError(FaultCode::BadDispatch,
                            "decode_transition: bad transition type");
    t.type = static_cast<TransitionType>(kind);
    t.attach_mode =
        (type_field & 0x8) ? AttachMode::ScaledOffset : AttachMode::Direct;
    t.attach = static_cast<std::uint8_t>(bits(raw, 0, 8));
    return t;
}

// --------------------------------------------------------------------------
// Actions: opcode(7) @25 | last(1) @24 | format-specific fields below.
//   Imm : dst(4) @20 | src(4) @16 | imm16 @0
//   Imm2: dst(4) @20 | src(4) @16 | imm1(4) @12 | imm2(12) @0
//   Reg : dst(4) @20 | ref(4) @16 | src(4) @12 | unused(12)
// --------------------------------------------------------------------------

Word
encode_action(const Action &a)
{
    const OpInfo *info = find_op(a.op);
    if (!info)
        throw UdpError("encode_action: undefined opcode");
    if (a.dst >= kNumScalarRegs || a.src >= kNumScalarRegs ||
        a.ref >= kNumScalarRegs) {
        throw UdpError("encode_action: register index exceeds 4 bits");
    }

    Word raw = make_bits(static_cast<Word>(a.op), 25, 7) |
               make_bits(a.last ? 1 : 0, 24, 1) | make_bits(a.dst, 20, 4);

    switch (info->format) {
      case ActionFormat::Imm: {
        const bool fits = zero_extended_imm(a.op)
                              ? (a.imm >= 0 && a.imm <= 65535)
                              : (a.imm >= -32768 && a.imm <= 32767);
        if (!fits)
            throw UdpError("encode_action: imm16 overflow in " +
                           std::string(info->name));
        raw |= make_bits(a.src, 16, 4) |
               make_bits(static_cast<Word>(a.imm) & 0xFFFF, 0, 16);
        break;
      }
      case ActionFormat::Imm2:
        if (a.imm < 0 || a.imm > 4095)
            throw UdpError("encode_action: imm2 (12-bit) overflow");
        if (a.imm1 < 0 || a.imm1 > 15)
            throw UdpError("encode_action: imm1 (4-bit) overflow");
        raw |= make_bits(a.src, 16, 4) |
               make_bits(static_cast<Word>(a.imm1), 12, 4) |
               make_bits(static_cast<Word>(a.imm), 0, 12);
        break;
      case ActionFormat::Reg:
        raw |= make_bits(a.ref, 16, 4) | make_bits(a.src, 12, 4);
        break;
    }
    return raw;
}

Action
decode_action(Word raw)
{
    const auto op = static_cast<Opcode>(bits(raw, 25, 7));
    const OpInfo *info = find_op(op);
    if (!info)
        throw UdpFaultError(FaultCode::BadAction,
                            "decode_action: undefined opcode " +
                                std::to_string(bits(raw, 25, 7)));

    Action a;
    a.op = op;
    a.last = bits(raw, 24, 1) != 0;
    a.dst = static_cast<std::uint8_t>(bits(raw, 20, 4));

    switch (info->format) {
      case ActionFormat::Imm: {
        a.src = static_cast<std::uint8_t>(bits(raw, 16, 4));
        const Word imm = bits(raw, 0, 16);
        a.imm = zero_extended_imm(op) ? static_cast<std::int32_t>(imm)
                                      : static_cast<std::int32_t>(
                                            static_cast<std::int16_t>(imm));
        break;
      }
      case ActionFormat::Imm2:
        a.src = static_cast<std::uint8_t>(bits(raw, 16, 4));
        a.imm1 = static_cast<std::int32_t>(bits(raw, 12, 4));
        a.imm = static_cast<std::int32_t>(bits(raw, 0, 12));
        break;
      case ActionFormat::Reg:
        a.ref = static_cast<std::uint8_t>(bits(raw, 16, 4));
        a.src = static_cast<std::uint8_t>(bits(raw, 12, 4));
        break;
    }
    return a;
}

} // namespace udp
