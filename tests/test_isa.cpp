/**
 * @file
 * Unit tests for the ISA encodings (paper Figure 6): round-trips, field
 * widths, and error behavior.
 */
#include "core/isa.hpp"

#include <gtest/gtest.h>

namespace udp {
namespace {

TEST(TransitionEncoding, RoundTripAllTypes)
{
    for (unsigned k = 0; k < kNumTransitionTypes; ++k) {
        Transition t;
        t.signature = 0xA5;
        t.target = 0xBCD;
        t.type = static_cast<TransitionType>(k);
        t.attach_mode = AttachMode::ScaledOffset;
        t.attach = 0x3C;
        const Word raw = encode_transition(t);
        EXPECT_EQ(decode_transition(raw), t)
            << "type=" << transition_type_name(t.type);
    }
}

TEST(TransitionEncoding, Is32BitsWithExactFields)
{
    Transition t;
    t.signature = 0xFF;
    t.target = 0xFFF;
    t.type = TransitionType::Refill;
    t.attach_mode = AttachMode::ScaledOffset;
    t.attach = 0xFF;
    const Word raw = encode_transition(t);
    EXPECT_EQ(raw, 0xFFFFFEFFu); // type field = 0b1110 (mode|refill=6)
}

TEST(TransitionEncoding, RejectsOversizedTarget)
{
    Transition t;
    t.target = 0x1000; // 13 bits
    EXPECT_THROW(encode_transition(t), UdpError);
}

TEST(TransitionEncoding, DefaultAttachMeansNoActions)
{
    Transition t;
    const Transition u = decode_transition(encode_transition(t));
    EXPECT_EQ(u.attach, kNoActions);
    EXPECT_EQ(u.attach_mode, AttachMode::Direct);
}

TEST(ActionEncoding, ImmRoundTripSignExtension)
{
    Action a = act_imm(Opcode::Addi, 3, 7, -1234, true);
    const Action b = decode_action(encode_action(a));
    EXPECT_EQ(b, a);
    EXPECT_EQ(b.imm, -1234);
}

TEST(ActionEncoding, LogicalImmediatesZeroExtend)
{
    Action a = act_imm(Opcode::Andi, 1, 2, 0xFFFF, false);
    const Action b = decode_action(encode_action(a));
    EXPECT_EQ(b.imm, 0xFFFF);
}

TEST(ActionEncoding, ImmOverflowThrows)
{
    EXPECT_THROW(encode_action(act_imm(Opcode::Addi, 0, 0, 40000)),
                 UdpError);
    EXPECT_THROW(encode_action(act_imm(Opcode::Andi, 0, 0, -1)), UdpError);
    EXPECT_THROW(encode_action(act_imm(Opcode::Movi, 0, 0, 1 << 16)),
                 UdpError);
}

TEST(ActionEncoding, RegFormatRoundTrip)
{
    Action a = act_reg(Opcode::Loopcmp, 4, 5, 6, true);
    EXPECT_EQ(decode_action(encode_action(a)), a);
}

TEST(ActionEncoding, Imm2FormatRoundTrip)
{
    Action a;
    a.op = Opcode::Setab;
    a.dst = 0;
    a.src = 2;
    a.imm1 = 3;    // scale
    a.imm = 2049;  // 12-bit base
    a.last = true;
    EXPECT_EQ(decode_action(encode_action(a)), a);
}

TEST(ActionEncoding, Imm2OverflowThrows)
{
    Action a;
    a.op = Opcode::Setab;
    a.imm = 4096;
    EXPECT_THROW(encode_action(a), UdpError);
    a.imm = 0;
    a.imm1 = 16;
    EXPECT_THROW(encode_action(a), UdpError);
}

TEST(ActionEncoding, RegisterIndexLimit)
{
    Action a = act_imm(Opcode::Addi, 16, 0, 0);
    EXPECT_THROW(encode_action(a), UdpError);
}

TEST(ActionEncoding, UndefinedOpcodeThrowsOnDecode)
{
    // Opcode 127 is unused.
    const Word raw = make_bits(127, 25, 7);
    EXPECT_THROW(decode_action(raw), UdpError);
    EXPECT_FALSE(opcode_valid(127));
}

TEST(OpcodeNames, RoundTrip)
{
    for (Word v = 0; v < 128; ++v) {
        if (!opcode_valid(v))
            continue;
        const auto op = static_cast<Opcode>(v);
        const auto name = opcode_name(op);
        const auto back = opcode_from_name(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, op);
    }
    EXPECT_FALSE(opcode_from_name("no-such-op").has_value());
}

TEST(OpcodeNames, CoversAtLeastFiftyActions)
{
    // The paper's lane ISA has ~50 actions; make sure we did not shrink.
    unsigned count = 0;
    for (Word v = 0; v < 128; ++v)
        count += opcode_valid(v) ? 1 : 0;
    EXPECT_GE(count, 50u);
}

TEST(OpcodeNames, EveryValueMatchesPinnedDigest)
{
    // FNV-1a 64 over (value, valid, format, mnemonic) for all 128 opcode
    // values, undefined ones included: every row's encoding format and
    // name is pinned, so a transcription slip in the opcode list shows.
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto byte = [&](unsigned b) {
        h ^= b & 0xFFu;
        h *= 0x100000001B3ull;
    };
    for (Word v = 0; v < 128; ++v) {
        const auto op = static_cast<Opcode>(v);
        const bool valid = opcode_valid(v);
        unsigned format = 0xFF;
        if (valid)
            format = static_cast<unsigned>(action_format(op));
        else
            EXPECT_THROW(action_format(op), UdpError) << v;
        byte(v);
        byte(valid ? 1 : 0);
        byte(format);
        for (const char ch : opcode_name(op))
            byte(static_cast<unsigned char>(ch));
        byte(0);
    }
    EXPECT_EQ(h, 0xB7C14E27566E1000ull);
}

TEST(TransitionNames, AllSevenTypes)
{
    EXPECT_EQ(transition_type_name(TransitionType::Labeled), "labeled");
    EXPECT_EQ(transition_type_name(TransitionType::Majority), "majority");
    EXPECT_EQ(transition_type_name(TransitionType::Default), "default");
    EXPECT_EQ(transition_type_name(TransitionType::Epsilon), "epsilon");
    EXPECT_EQ(transition_type_name(TransitionType::Common), "common");
    EXPECT_EQ(transition_type_name(TransitionType::Flagged), "flagged");
    EXPECT_EQ(transition_type_name(TransitionType::Refill), "refill");
}

} // namespace
} // namespace udp
