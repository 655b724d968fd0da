/**
 * @file
 * Semantic unit tests for every action opcode the kernels rely on,
 * executed through real programs on a lane (not by poking internals).
 */
#include "assembler/builder.hpp"
#include "core/lane.hpp"
#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace udp {
namespace {

/// Run a single action block to completion and return the lane.
struct ActionRunner {
    LocalMemory mem{AddressingMode::Restricted};
    Lane lane{0, mem};
    Bytes input{'x', 'y', 'z', 'w'};

    Lane &run(std::vector<Action> actions,
              std::vector<std::pair<unsigned, Word>> init = {}) {
        actions.push_back(act_imm(Opcode::Halt, 0, 0, 0, true));
        ProgramBuilder b;
        const StateId s = b.add_state();
        b.on_any(s, s, b.add_block(std::move(actions)));
        b.set_entry(s);
        prog = b.build();
        lane.load(prog);
        lane.set_input(input);
        for (const auto &[r, v] : init)
            lane.set_reg(r, v);
        EXPECT_EQ(lane.run(), LaneStatus::Done);
        return lane;
    }

    /// Variant for blocks that must trap: asserts the lane faults with
    /// the expected code instead of completing.
    Lane &run_faulting(std::vector<Action> actions, FaultCode expect) {
        actions.push_back(act_imm(Opcode::Halt, 0, 0, 0, true));
        ProgramBuilder b;
        const StateId s = b.add_state();
        b.on_any(s, s, b.add_block(std::move(actions)));
        b.set_entry(s);
        prog = b.build();
        lane.load(prog);
        lane.set_input(input);
        EXPECT_EQ(lane.run(), LaneStatus::Faulted);
        EXPECT_EQ(lane.fault().code, expect);
        return lane;
    }

    Program prog;
};

struct ActionsFixture : ::testing::Test, ActionRunner {
};

TEST_F(ActionsFixture, ArithmeticImmediates)
{
    run({
        act_imm(Opcode::Movi, 1, 0, -5),
        act_imm(Opcode::Addi, 2, 1, 15),   // 10
        act_imm(Opcode::Subi, 3, 2, 4),    // 6
        act_imm(Opcode::Muli, 4, 3, 7),    // 42
        act_imm(Opcode::Shli, 5, 4, 2),    // 168
        act_imm(Opcode::Shri, 6, 5, 3),    // 21
        act_imm(Opcode::Sari, 7, 1, 1),    // -5 >> 1 = -3 (arith)
    });
    EXPECT_EQ(lane.reg(2), 10u);
    EXPECT_EQ(lane.reg(3), 6u);
    EXPECT_EQ(lane.reg(4), 42u);
    EXPECT_EQ(lane.reg(5), 168u);
    EXPECT_EQ(lane.reg(6), 21u);
    EXPECT_EQ(static_cast<std::int32_t>(lane.reg(7)), -3);
}

TEST_F(ActionsFixture, LogicalAndComparisons)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 0b1100),
        act_imm(Opcode::Andi, 2, 1, 0b1010), // 0b1000
        act_imm(Opcode::Ori, 3, 1, 0b0011),  // 0b1111
        act_imm(Opcode::Xori, 4, 1, 0b0101), // 0b1001
        act_imm(Opcode::Cmpeqi, 5, 1, 12),   // 1
        act_imm(Opcode::Cmplti, 6, 1, -1),   // signed: 12 < -1 = 0
        act_imm(Opcode::Cmpltui, 7, 1, 13),  // 1
        act_imm(Opcode::Lui, 8, 0, 0xABCD),  // high half
    });
    EXPECT_EQ(lane.reg(2), 0b1000u);
    EXPECT_EQ(lane.reg(3), 0b1111u);
    EXPECT_EQ(lane.reg(4), 0b1001u);
    EXPECT_EQ(lane.reg(5), 1u);
    EXPECT_EQ(lane.reg(6), 0u);
    EXPECT_EQ(lane.reg(7), 1u);
    EXPECT_EQ(lane.reg(8), 0xABCD0000u);
}

TEST_F(ActionsFixture, RegisterAluForms)
{
    run({
            act_imm(Opcode::Movi, 1, 0, 20),
            act_imm(Opcode::Movi, 2, 0, 6),
            act_reg(Opcode::Sub, 3, 1, 2),    // 14
            act_reg(Opcode::Mul, 4, 1, 2),    // 120
            act_reg(Opcode::Min, 5, 1, 2),    // 6
            act_reg(Opcode::Max, 6, 1, 2),    // 20
            act_reg(Opcode::Xor, 7, 1, 2),    // 18
            act_reg(Opcode::Not, 8, 0, 2),    // ~6
            act_reg(Opcode::Neg, 9, 0, 2),    // -6
            act_reg(Opcode::Shl, 10, 1, 2),   // 20<<6
            act_reg(Opcode::Shr, 11, 10, 2),  // back to 20
            act_reg(Opcode::Cmpeq, 12, 1, 1), // 1
            act_reg(Opcode::Cmplt, 13, 2, 1), // 6<20 = 1
        });
    EXPECT_EQ(lane.reg(3), 14u);
    EXPECT_EQ(lane.reg(4), 120u);
    EXPECT_EQ(lane.reg(5), 6u);
    EXPECT_EQ(lane.reg(6), 20u);
    EXPECT_EQ(lane.reg(7), 18u);
    EXPECT_EQ(lane.reg(8), ~6u);
    EXPECT_EQ(lane.reg(9), static_cast<Word>(-6));
    EXPECT_EQ(lane.reg(10), 20u << 6);
    EXPECT_EQ(lane.reg(11), 20u);
    EXPECT_EQ(lane.reg(12), 1u);
    EXPECT_EQ(lane.reg(13), 1u);
}

TEST_F(ActionsFixture, SelectIsConditionalMove)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 111),
        act_imm(Opcode::Movi, 2, 0, 222),
        act_imm(Opcode::Movi, 3, 0, 1),      // condition true
        act_reg(Opcode::Select, 3, 1, 2),    // r3 = r3 ? r1 : r2 = 111
        act_imm(Opcode::Movi, 4, 0, 0),      // condition false
        act_reg(Opcode::Select, 4, 1, 2),    // 222
    });
    EXPECT_EQ(lane.reg(3), 111u);
    EXPECT_EQ(lane.reg(4), 222u);
}

TEST_F(ActionsFixture, MemoryOpsAndBininc)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 0x1234),
        act_imm(Opcode::Stw, 1, 0, 0x80),
        act_imm(Opcode::Ldw, 2, 0, 0x80),
        act_imm(Opcode::Ldb, 3, 0, 0x80),   // low byte 0x34
        act_imm(Opcode::Movi, 4, 0, 0x7F),
        act_imm(Opcode::Stb, 4, 0, 0x90),
        act_imm(Opcode::Ldb, 5, 0, 0x90),
        act_imm(Opcode::Movi, 6, 0, 3),     // bin index 3
        act_imm(Opcode::Bininc, 0, 6, 0x100),
        act_imm(Opcode::Bininc, 0, 6, 0x100),
        act_imm(Opcode::Ldw, 7, 6, 0x100 - 3 * 4 + 3 * 4), // dummy calc
    });
    EXPECT_EQ(lane.reg(2), 0x1234u);
    EXPECT_EQ(lane.reg(3), 0x34u);
    EXPECT_EQ(lane.reg(5), 0x7Fu);
    EXPECT_EQ(mem.read32(0x100 + 3 * 4), 2u);
}

TEST_F(ActionsFixture, HashFamilyAndCrc)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 777),
        act_imm(Opcode::Hash, 2, 1, 8),   // 8-bit range
        act_imm(Opcode::Movi, 3, 0, 888),
        act_reg(Opcode::Hash2, 4, 1, 3),
        act_imm(Opcode::Movi, 5, 0, 0),
        act_imm(Opcode::Movi, 6, 0, 'a'),
        act_reg(Opcode::Crc, 5, 0, 6),
    });
    EXPECT_LT(lane.reg(2), 256u);
    EXPECT_NE(lane.reg(4), 0u);
    EXPECT_NE(lane.reg(5), 0u); // CRC step of 'a' over 0

    const Word h1 = lane.reg(2);
    run({
        act_imm(Opcode::Movi, 1, 0, 777),
        act_imm(Opcode::Hash, 2, 1, 8),
    });
    EXPECT_EQ(lane.reg(2), h1); // deterministic
}

TEST_F(ActionsFixture, StreamOpsPeekReadSkipSetstream)
{
    run({
        act_imm(Opcode::Peek, 1, 0, 8),      // 'y' (x consumed by arc)
        act_imm(Opcode::Read, 2, 0, 8),      // 'y'
        act_imm(Opcode::Skip, 0, 0, 8),      // past 'z'
        act_imm(Opcode::Tell, 3, 0, 0),      // 24 bits
        act_imm(Opcode::Movi, 4, 0, 8),
        act_imm(Opcode::Setstream, 0, 4, 0), // back to bit 8
        act_imm(Opcode::Read, 5, 0, 8),      // 'y' again
        act_imm(Opcode::Lastsym, 6, 0, 0),   // dispatch symbol was 'x'
    });
    EXPECT_EQ(lane.reg(1), 'y');
    EXPECT_EQ(lane.reg(2), 'y');
    EXPECT_EQ(lane.reg(3), 24u);
    EXPECT_EQ(lane.reg(5), 'y');
    EXPECT_EQ(lane.reg(6), 'x');
}

TEST_F(ActionsFixture, SetssrAndOutbitsr)
{
    run({
            act_imm(Opcode::Movi, 1, 0, 4),
            act_imm(Opcode::Setssr, 0, 1, 0), // SSR = 4 (dynamic)
            act_imm(Opcode::Movi, 2, 0, 0b1011),
            act_imm(Opcode::Movi, 3, 0, 4),
            act_reg(Opcode::Outbitsr, 3, 0, 2), // 4 bits of r2
            act_reg(Opcode::Outbitsr, 3, 0, 2), // again -> one byte
        });
    ASSERT_EQ(lane.output().size(), 1u);
    EXPECT_EQ(lane.output()[0], 0b10111011u);
}

TEST_F(ActionsFixture, OutputFamily)
{
    run({
        act_imm(Opcode::Movi, 1, 0, 0x4241),
        act_imm(Opcode::Outb, 0, 1, 0),   // 'A'
        act_imm(Opcode::Outi, 0, 0, '!'),
        act_imm(Opcode::Outw, 0, 1, 0),   // 41 42 00 00 LE
    });
    const Bytes expect{'A', '!', 0x41, 0x42, 0x00, 0x00};
    EXPECT_EQ(lane.output(), expect);
}

TEST_F(ActionsFixture, GotoactChainsBlocks)
{
    // Block A jumps into shared code at a fixed action address.  The
    // tail's owning state is created first, so the backend interns the
    // tail block at action address 0 (stable layout order).
    ProgramBuilder b;
    const StateId t = b.add_state(true);
    const BlockId tail = b.add_block({
        act_imm(Opcode::Addi, 2, 2, 100),
        act_imm(Opcode::Halt, 0, 0, 0, true),
    });
    b.on_any(t, t, tail); // anchor the tail block in the image
    const StateId s = b.add_state();
    b.on_any(s, t, b.add_block({
                 act_imm(Opcode::Movi, 2, 0, 5),
                 act_imm(Opcode::Gotoact, 0, 0, 0, true), // jump to addr 0
             }));
    b.set_entry(s);
    const Program p = b.build();
    // Confirm the layout assumption before relying on it.
    ASSERT_EQ(decode_action(p.actions[0]).op, Opcode::Addi);

    lane.load(p);
    lane.set_input(input);
    EXPECT_EQ(lane.run(), LaneStatus::Done);
    EXPECT_EQ(lane.reg(2), 105u); // 5 + 100 via the shared tail
}

TEST_F(ActionsFixture, SetabRedirectsScaledBlocks)
{
    // Setab changes where scaled-offset attach refs resolve; verified
    // indirectly: a program whose action image exceeds the direct
    // region still runs correctly (builder emits Setab config).
    ProgramBuilder b;
    const StateId s = b.add_state();
    std::vector<StateId> sinks;
    for (int i = 0; i < 300; ++i) {
        const StateId t = b.add_state(true);
        b.on_any(t, s, b.add_block({act_imm(Opcode::Movi, 1, 0, i, true)}));
        sinks.push_back(t);
    }
    for (int i = 0; i < 300; ++i)
        b.on_symbol(s, static_cast<Word>(i), sinks[i]);
    b.set_entry(s);
    b.set_initial_symbol_bits(16);
    const Program p = b.build();
    EXPECT_GT(p.actions.size(), 255u);

    // Feed exactly one 16-bit MSB-first symbol (299); the stream then
    // exhausts so the sink's register write survives.
    const Bytes in16{static_cast<std::uint8_t>(299 >> 8),
                     static_cast<std::uint8_t>(299 & 0xFF)};
    lane.load(p);
    lane.set_input(in16);
    lane.run();
    EXPECT_EQ(lane.reg(1), 299u);
}

TEST_F(ActionsFixture, RefillActionRewindsStream)
{
    run({
        act_imm(Opcode::Read, 1, 0, 8),
        act_imm(Opcode::Refill, 0, 0, 8),
        act_imm(Opcode::Read, 2, 0, 8),
    });
    EXPECT_EQ(lane.reg(1), lane.reg(2));
}

TEST_F(ActionsFixture, FailStopsWithReject)
{
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_any(s, s, b.add_block({act_imm(Opcode::Fail, 0, 0, 0, true)}));
    b.set_entry(s);
    const Program p = b.build();
    lane.load(p);
    lane.set_input(input);
    EXPECT_EQ(lane.run(), LaneStatus::Reject);
}

TEST_F(ActionsFixture, IllegalConfigurationsFaultTheLane)
{
    // Illegal action operands trap the lane with a structured fault
    // (docs/ROBUSTNESS.md) instead of escaping as host exceptions.
    run_faulting({act_imm(Opcode::Setss, 0, 0, 0)}, FaultCode::BadAction);
    run_faulting({act_imm(Opcode::Setss, 0, 0, 33)}, FaultCode::BadAction);
    run_faulting({act_imm(Opcode::Movi, 1, 0, 40),
                  act_imm(Opcode::Setssr, 0, 1, 0)},
                 FaultCode::BadAction);
    run_faulting({act_imm(Opcode::Skip, 0, 0, 1 << 14)},
                 FaultCode::FetchOutOfRange);
}

// ---------------------------------------------------------------------------
// Loopcpy: the threaded engine's block datapath against the per-byte path.
//
// A bare lane runs the threaded engine, which moves a span that lies
// wholly in the lane's range in one block; a lane with a Tracer
// attached runs the reference, which moves every byte through the
// memory path.  Each case runs both from identical memory.
// ---------------------------------------------------------------------------

/// `loopcpy`: copy r3 bytes mem[r1] -> mem[r2], then halt.
const Program &
loopcpy_program()
{
    static const Program prog = [] {
        ProgramBuilder b;
        const StateId s = b.add_state();
        b.on_any(s, s,
                 b.add_block({act_reg(Opcode::Loopcpy, 3, 2, 1),
                              act_imm(Opcode::Halt, 0, 0, 0, true)}));
        b.set_entry(s);
        return b.build();
    }();
    return prog;
}

/// 1 MiB of seeded bytes every copy starts from.
const Bytes &
seeded_memory()
{
    static const Bytes bytes = [] {
        std::mt19937 rng(17);
        Bytes b(kLocalMemBytes);
        for (auto &v : b)
            v = static_cast<std::uint8_t>(rng());
        return b;
    }();
    return bytes;
}

/// A lane's addressing setup and the end of its addressable range.
struct CopySetup {
    AddressingMode mode;
    unsigned lane;
    ByteAddr base;      ///< window base (Restricted mode)
    Word window_bytes;  ///< the window's size (0: up to the memory's end)

    Word limit() const {
        switch (mode) {
          case AddressingMode::Local: return kBankBytes;
          case AddressingMode::Global: return kLocalMemBytes;
          case AddressingMode::Restricted:
            return window_bytes ? window_bytes : kLocalMemBytes - base;
        }
        return 0;
    }
};

const CopySetup kCopySetups[] = {
    {AddressingMode::Local, 5, 0, 0},
    {AddressingMode::Global, 3, 0, 0},
    {AddressingMode::Restricted, 2, 0x30000, 0},
};

/// One lane over its own memory: bare (the block path) or profiled
/// (the per-byte path).
struct CopyLane {
    CopyLane(const CopySetup &cfg, bool profiled)
        : mem(cfg.mode), lane(cfg.lane, mem), id(cfg.lane), base(cfg.base),
          window_bytes(cfg.window_bytes) {
        if (profiled)
            lane.set_tracer(&tracer);
    }

    LaneStatus run(const Program &prog, Word src, Word dst, Word n) {
        mem.raw() = seeded_memory();
        lane.load(prog);
        lane.set_window_base(base, window_bytes);
        lane.set_input(input);
        lane.set_reg(1, src);
        lane.set_reg(2, dst);
        lane.set_reg(3, n);
        return lane.run();
    }

    /// Host bytes at lane address `addr` (which must be in range).
    const std::uint8_t *at(Word addr) {
        return mem.raw().data() + mem.translate(id, addr, base);
    }

    LocalMemory mem;
    Tracer tracer;
    Lane lane;
    unsigned id;
    ByteAddr base;
    Word window_bytes;
    Bytes input{'x'};
};

/// Both datapaths over one setup.
struct CopyPair {
    explicit CopyPair(const CopySetup &cfg)
        : cfg(cfg), block(cfg, false), bytewise(cfg, true) {}

    /// Run the copy on both lanes and require identical status, stats,
    /// registers, fault record and memory.  Returns the status.
    LaneStatus run(Word src, Word dst, Word n,
                   const Program &prog = loopcpy_program()) {
        SCOPED_TRACE(testing::Message()
                     << addressing_mode_name(cfg.mode) << " src " << src
                     << " dst " << dst << " n " << n);
        const LaneStatus st = block.run(prog, src, dst, n);
        EXPECT_EQ(bytewise.run(prog, src, dst, n), st);
        EXPECT_TRUE(block.lane.fast_path());
        EXPECT_FALSE(bytewise.lane.fast_path());
        const Lane &a = block.lane;
        const Lane &b = bytewise.lane;
        EXPECT_EQ(a.stats(), b.stats());
        for (unsigned r = 0; r < kNumScalarRegs; ++r)
            EXPECT_EQ(a.reg(r), b.reg(r)) << "r" << r;
        EXPECT_EQ(a.fault().code, b.fault().code);
        EXPECT_EQ(a.fault().cycle, b.fault().cycle);
        EXPECT_EQ(a.fault().detail, b.fault().detail);
        const Bytes &ma = block.mem.raw();
        const Bytes &mb = bytewise.mem.raw();
        const auto diff = std::mismatch(ma.begin(), ma.end(), mb.begin());
        EXPECT_TRUE(diff.first == ma.end())
            << "memory differs at physical byte " << (diff.first - ma.begin());
        return st;
    }

    CopySetup cfg;
    CopyLane block;
    CopyLane bytewise;
};

TEST_F(ActionsFixture, LoopcpyBlockMatchesPerByteInEveryMode)
{
    for (const CopySetup &cfg : kCopySetups) {
        SCOPED_TRACE(addressing_mode_name(cfg.mode));
        CopyPair pair(cfg);
        const Word end = cfg.limit();
        const Bytes &init = seeded_memory();
        auto init_at = [&](Word addr) {
            return init[pair.block.mem.translate(cfg.lane, addr, cfg.base)];
        };

        // Disjoint spans, in both directions.
        EXPECT_EQ(pair.run(0x100, 0x900, 300), LaneStatus::Done);
        EXPECT_EQ(pair.run(0x900, 0x100, 300), LaneStatus::Done);
        for (Word i = 0; i < 300; ++i)
            ASSERT_EQ(pair.block.at(0x100)[i], init_at(0x900 + i)) << i;

        // A destination 3 ahead of the source replicates its 3-byte
        // prefix, with n not a multiple of 3.
        EXPECT_EQ(pair.run(0x200, 0x203, 20), LaneStatus::Done);
        for (Word i = 0; i < 23; ++i)
            ASSERT_EQ(pair.block.at(0x200)[i], init_at(0x200 + i % 3)) << i;

        // A destination behind the source, and one equal to it.
        EXPECT_EQ(pair.run(0x400, 0x3F0, 40), LaneStatus::Done);
        for (Word i = 0; i < 40; ++i)
            ASSERT_EQ(pair.block.at(0x3F0)[i], init_at(0x400 + i)) << i;
        EXPECT_EQ(pair.run(0x500, 0x500, 64), LaneStatus::Done);

        // A span that ends exactly at the range end is one block.
        EXPECT_EQ(pair.run(end - 64, 0x100, 64), LaneStatus::Done);
        EXPECT_EQ(pair.run(0x100, end - 64, 64), LaneStatus::Done);

        // Zero bytes at out-of-range addresses touch nothing.
        EXPECT_EQ(pair.run(end + 7, end + 100, 0), LaneStatus::Done);
        EXPECT_EQ(pair.run(0xFFFFFFFFu, 0xFFFFFFF0u, 0), LaneStatus::Done);
        EXPECT_EQ(pair.block.lane.stats().mem_reads, 0u);

        // A destination span crossing the range end: the 10-byte prefix
        // is copied, then the 11th write faults (11 reads, 10 writes) at
        // cycle 2, the dispatch's and the action's own; the block's
        // extra cycles are never charged.
        EXPECT_EQ(pair.run(0x100, end - 10, 25), LaneStatus::Faulted);
        for (Word i = 0; i < 10; ++i)
            ASSERT_EQ(pair.block.at(end - 10)[i], init_at(0x100 + i)) << i;
        EXPECT_EQ(pair.block.lane.fault().code, FaultCode::FetchOutOfRange);
        EXPECT_EQ(pair.block.lane.fault().cycle, 2u);
        EXPECT_EQ(pair.block.lane.stats().mem_reads, 11u);
        EXPECT_EQ(pair.block.lane.stats().mem_writes, 10u);

        // Spans one byte past the range end fault at their last byte.
        EXPECT_EQ(pair.run(0x100, end - 9, 10), LaneStatus::Faulted);
        EXPECT_EQ(pair.block.lane.stats().mem_writes, 9u);
        EXPECT_EQ(pair.run(end - 9, 0x100, 10), LaneStatus::Faulted);
        EXPECT_EQ(pair.block.lane.stats().mem_writes, 9u);

        // A source span crossing the range end: 4 bytes, then a fault.
        EXPECT_EQ(pair.run(end - 4, 0x100, 9), LaneStatus::Faulted);
        for (Word i = 0; i < 4; ++i)
            ASSERT_EQ(pair.block.at(0x100)[i], init_at(end - 4 + i)) << i;
        EXPECT_EQ(pair.block.at(0x100)[4], init_at(0x104));
        EXPECT_EQ(pair.block.lane.stats().mem_writes, 4u);

        // Lane addresses within 16 bytes of 2^32 fault at their first
        // byte, and a span there must not wrap into range.
        EXPECT_EQ(pair.run(0xFFFFFFF8u, 0x100, 16), LaneStatus::Faulted);
        EXPECT_EQ(pair.run(0x100, 0xFFFFFFF0u, 32), LaneStatus::Faulted);
        EXPECT_EQ(pair.block.lane.stats().mem_writes, 0u);
    }
}

TEST_F(ActionsFixture, LoopcpyRandomSpansNearRangeEndsMatchPerByte)
{
    // Seeded (src, dst, n) spans clustered at both ends of each mode's
    // range, so that overlaps, exact fits and crossings all occur.
    std::mt19937 rng(20171017);
    for (const CopySetup &cfg : kCopySetups) {
        SCOPED_TRACE(addressing_mode_name(cfg.mode));
        CopyPair pair(cfg);
        const Word end = cfg.limit();
        auto near_an_end = [&]() -> Word {
            switch (rng() % 4) {
              case 0: return rng() % 512;
              case 1: return end - 1 - rng() % 512;
              case 2: return end + rng() % 64;
              default: return 0u - 1 - rng() % 16;
            }
        };
        unsigned blocks = 0;
        unsigned faults = 0;
        for (int k = 0; k < 250; ++k) {
            const Word src = near_an_end();
            const Word dst = rng() % 2 ? near_an_end() : src + rng() % 16;
            const Word n = rng() % 320;
            blocks += n != 0 &&
                      pair.block.mem.span(cfg.lane, src, n, cfg.base) &&
                      pair.block.mem.span(cfg.lane, dst, n, cfg.base);
            faults += pair.run(src, dst, n) == LaneStatus::Faulted;
        }
        // Neither side of the gate goes untested.
        EXPECT_GE(blocks, 30u);
        EXPECT_GE(faults, 30u);
    }
}

TEST_F(ActionsFixture, LoopcpyChargesOneCyclePerEightBytes)
{
    // A loop-copy costs max(1, ceil(n/8)) cycles in all, its own action
    // cycle included, and makes n reads and n writes, on both paths.
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_any(s, s, b.add_block({act_imm(Opcode::Halt, 0, 0, 0, true)}));
    b.set_entry(s);
    const Program halt_only = b.build();

    CopyPair pair(kCopySetups[2]);
    pair.run(0, 0x1000, 0, halt_only);
    const Cycles overhead = pair.block.lane.stats().cycles;
    const std::pair<Word, Cycles> charges[] = {
        {0, 1}, {1, 1}, {8, 1}, {9, 2}, {64, 8}};
    for (const auto &[n, cost] : charges) {
        EXPECT_EQ(pair.run(0, 0x1000, n), LaneStatus::Done);
        for (const CopyLane *l : {&pair.block, &pair.bytewise}) {
            EXPECT_EQ(l->lane.stats().cycles - overhead, cost) << "n " << n;
            EXPECT_EQ(l->lane.stats().mem_reads, n);
            EXPECT_EQ(l->lane.stats().mem_writes, n);
        }
    }
}

// ---------------------------------------------------------------------------
// The inline memory and stream paths.
//
// On a bare lane an access that fits the lane's window is one compare
// against a bound the lane computes when its window changes; every other
// access, and every access of a traced lane, goes through translate and
// charge_mem.  A chain's fetch charges are added once at its end.  Each
// case runs both lanes from identical memory (CopyPair).
// ---------------------------------------------------------------------------

/// `actions` then halt, on every input byte.
Program
block_program(std::vector<Action> actions)
{
    actions.push_back(act_imm(Opcode::Halt, 0, 0, 0, true));
    ProgramBuilder b;
    const StateId s = b.add_state();
    b.on_any(s, s, b.add_block(std::move(actions)));
    b.set_entry(s);
    return b.build();
}

/// The four scalar memory ops: loads read [r1] into r4, stores write r3
/// to [r2].
struct MemOp {
    const char *name;
    unsigned len;
    bool load;
    Program prog;
};

std::vector<MemOp>
scalar_mem_ops()
{
    std::vector<MemOp> ops;
    ops.push_back(
        {"ldb", 1, true, block_program({act_imm(Opcode::Ldb, 4, 1, 0)})});
    ops.push_back(
        {"stb", 1, false, block_program({act_imm(Opcode::Stb, 3, 2, 0)})});
    ops.push_back(
        {"ldw", 4, true, block_program({act_imm(Opcode::Ldw, 4, 1, 0)})});
    ops.push_back(
        {"stw", 4, false, block_program({act_imm(Opcode::Stw, 3, 2, 0)})});
    return ops;
}

const CopySetup kWindowedSetup = {AddressingMode::Restricted, 2, 0x30000,
                                  0x8000};

TEST_F(ActionsFixture, InlineLoadsAndStoresMatchTheReference)
{
    const std::vector<MemOp> ops = scalar_mem_ops();
    std::vector<CopySetup> setups(std::begin(kCopySetups),
                                  std::end(kCopySetups));
    setups.push_back(kWindowedSetup);
    for (const CopySetup &cfg : setups) {
        SCOPED_TRACE(testing::Message() << addressing_mode_name(cfg.mode)
                                        << " window " << cfg.window_bytes);
        CopyPair pair(cfg);
        const Word end = cfg.limit();
        for (const MemOp &op : ops) {
            SCOPED_TRACE(op.name);
            // The range's start, an exact fit at its end, one byte past
            // it, a word straddling it, and addresses within 4 bytes of
            // 2^32, which must not wrap into range.
            const Word addrs[] = {0,           1,           end - op.len,
                                  end - op.len + 1,         end - 2,
                                  end - 1,     end,         0xFFFFFFFCu,
                                  0xFFFFFFFDu, 0xFFFFFFFEu, 0xFFFFFFFFu};
            for (const Word a : addrs) {
                const bool fits = std::uint64_t{a} + op.len <= end;
                const LaneStatus st = pair.run(a, a, 0xA1B2C3D4u, op.prog);
                EXPECT_EQ(st, fits ? LaneStatus::Done : LaneStatus::Faulted)
                    << "addr " << a;
                const Lane &ln = pair.block.lane;
                EXPECT_EQ(ln.stats().mem_reads, fits && op.load ? 1u : 0u);
                EXPECT_EQ(ln.stats().mem_writes, fits && !op.load ? 1u : 0u);
                if (fits && op.load) {
                    const std::uint8_t *p = pair.block.at(a);
                    Word want = 0;
                    for (unsigned i = op.len; i-- > 0;)
                        want = (want << 8) | p[i];
                    EXPECT_EQ(ln.reg(4), want) << "addr " << a;
                } else if (fits) {
                    EXPECT_EQ(pair.block.at(a)[0], 0xD4u) << "addr " << a;
                }
            }
        }
    }
}

TEST_F(ActionsFixture, InlineFaultsKeepTheirModeText)
{
    const MemOp stb = scalar_mem_ops()[1];
    const std::pair<CopySetup, const char *> cases[] = {
        {kCopySetups[0], "LocalMemory: local-mode address exceeds bank"},
        {kCopySetups[1], "LocalMemory: global address out of range"},
        {kCopySetups[2], "LocalMemory: restricted address out of range"},
        {kWindowedSetup,
         "LocalMemory: restricted address past the lane's window"},
    };
    for (const auto &[cfg, detail] : cases) {
        CopyPair pair(cfg);
        EXPECT_EQ(pair.run(0, cfg.limit(), 7, stb.prog), LaneStatus::Faulted);
        EXPECT_EQ(pair.block.lane.fault().code, FaultCode::FetchOutOfRange);
        EXPECT_EQ(pair.block.lane.fault().detail, detail);
    }
}

TEST_F(ActionsFixture, TracerAttachedAfterLoadSeesEveryAccess)
{
    // Attaching an observer to a loaded lane moves it to the reference,
    // so every access is charged through charge_mem and recorded.
    LocalMemory mem(AddressingMode::Restricted);
    Lane ln(0, mem);
    const Program prog = block_program({act_imm(Opcode::Ldb, 4, 1, 0),
                                        act_imm(Opcode::Stb, 4, 1, 1),
                                        act_imm(Opcode::Ldw, 5, 1, 4),
                                        act_imm(Opcode::Stw, 5, 1, 8)});
    ln.load(prog);
    ASSERT_TRUE(ln.fast_path());
    Tracer tracer;
    ln.set_tracer(&tracer);
    ASSERT_FALSE(ln.fast_path());
    ln.set_input(input);
    ln.set_reg(1, 0x40);
    EXPECT_EQ(ln.run(), LaneStatus::Done);
    EXPECT_EQ(tracer.count(0, TraceEventKind::MemRead), 2u);
    EXPECT_EQ(tracer.count(0, TraceEventKind::MemWrite), 2u);
    EXPECT_EQ(ln.stats().mem_reads, 2u);
    EXPECT_EQ(ln.stats().mem_writes, 2u);
}

TEST_F(ActionsFixture, InlinePathFollowsSetbase)
{
    // setbase r1; ldb r4 <- [r2]; stb [r2+1] <- r3; ldw r5 <- [r2+4];
    // stw [r2+8] <- r3: a byte pair and a word pair at r2 in the window
    // the Setbase opened.
    const Program prog = block_program({
        act_imm(Opcode::Setbase, 0, 1, 0),
        act_imm(Opcode::Ldb, 4, 2, 0),
        act_imm(Opcode::Stb, 3, 2, 1),
        act_imm(Opcode::Ldw, 5, 2, 4),
        act_imm(Opcode::Stw, 3, 2, 8),
    });
    for (const CopySetup &cfg : {kCopySetups[2], kWindowedSetup}) {
        SCOPED_TRACE(testing::Message() << "window " << cfg.window_bytes);
        CopyPair pair(cfg);
        const std::uint64_t window_end =
            cfg.window_bytes ? cfg.base + cfg.window_bytes : kLocalMemBytes;
        for (const Word up : {Word{0}, Word{0x1000}, Word{0x4321}}) {
            const Word base = cfg.base + up;
            const Word end = static_cast<Word>(window_end - base);
            // The whole group at the new start, ending exactly at the new
            // end, and one byte past it.
            for (const Word at : {Word{0}, end - 12, end - 11}) {
                const LaneStatus st = pair.run(base, at, 0x5A5A1234u, prog);
                EXPECT_EQ(st, at + 12 <= end ? LaneStatus::Done
                                             : LaneStatus::Faulted)
                    << "base " << base << " at " << at;
                if (st == LaneStatus::Done) {
                    EXPECT_EQ(pair.block.lane.reg(4),
                              seeded_memory()[base + at]);
                    EXPECT_EQ(pair.block.lane.stats().mem_writes, 2u);
                }
            }
        }
        // A base at the window's end, past it and past the memory: every
        // access faults.
        for (const std::uint64_t base :
             {window_end, window_end + 0x100, std::uint64_t{0xFFFFFF00u}}) {
            EXPECT_EQ(pair.run(static_cast<Word>(base), 0, 1, prog),
                      LaneStatus::Faulted);
            EXPECT_EQ(pair.block.lane.stats().mem_reads, 0u);
        }
    }
    // A base below the window's start faults at the Setbase.
    CopyPair pair(kWindowedSetup);
    EXPECT_EQ(pair.run(kWindowedSetup.base - 1, 0, 1, prog),
              LaneStatus::Faulted);
    EXPECT_EQ(pair.block.lane.fault().detail,
              "Lane: setbase below the lane's window");
    EXPECT_EQ(pair.block.lane.fault().cycle, 2u);
}

TEST_F(ActionsFixture, InlineByteReadsMatchTheReference)
{
    CopyPair pair(kCopySetups[2]);
    const Bytes text{'x', 'y', 'z', 'w'};
    pair.block.input = pair.bytewise.input = text;
    // Aligned: the two bytes after the dispatch's 'x'.
    EXPECT_EQ(pair.run(0, 0, 0,
                       block_program({act_imm(Opcode::Read, 4, 0, 8),
                                      act_imm(Opcode::Read, 5, 0, 8)})),
              LaneStatus::Done);
    EXPECT_EQ(pair.block.lane.reg(4), Word{'y'});
    EXPECT_EQ(pair.block.lane.reg(5), Word{'z'});
    // Unaligned: 8 bits from bit 11, across the 'y'/'z' boundary.
    EXPECT_EQ(pair.run(0, 0, 0,
                       block_program({act_imm(Opcode::Skip, 0, 0, 3),
                                      act_imm(Opcode::Read, 4, 0, 8)})),
              LaneStatus::Done);
    EXPECT_EQ(pair.block.lane.reg(4), Word{(('y' << 3) | ('z' >> 5)) & 0xFF});
    // The stream's last byte, then a read past its end.
    EXPECT_EQ(pair.run(0, 0, 0,
                       block_program({act_imm(Opcode::Skip, 0, 0, 16),
                                      act_imm(Opcode::Read, 4, 0, 8),
                                      act_imm(Opcode::Read, 5, 0, 8)})),
              LaneStatus::Faulted);
    EXPECT_EQ(pair.block.lane.reg(4), Word{'w'});
    EXPECT_EQ(pair.block.lane.fault().detail,
              "StreamBuffer: read past end of stream");
    // Seeks (Setstream and r15 writes) to the stream's end, then past it.
    EXPECT_EQ(pair.run(32, 0, 0,
                       block_program({act_imm(Opcode::Setstream, 0, 1, 0),
                                      act_imm(Opcode::Movi, 15, 0, 4),
                                      act_imm(Opcode::Setstream, 0, 1, 1)})),
              LaneStatus::Faulted);
    EXPECT_EQ(pair.block.lane.fault().detail,
              "StreamBuffer: seek past end of stream");
    EXPECT_EQ(pair.block.lane.fault().cycle, 4u);
}

TEST_F(ActionsFixture, ChainChargesIncludeTheFaultingOp)
{
    // A chain whose third op faults is charged three fetches: the
    // dispatch's cycle and three action cycles put the fault at cycle 4.
    CopyPair pair(kCopySetups[2]);
    const Action head[] = {act_imm(Opcode::Movi, 4, 0, 1),
                           act_imm(Opcode::Addi, 4, 4, 1)};
    const Action third[] = {
        act_imm(Opcode::Ldw, 5, 1, 0),   // r1 past the window
        act_imm(Opcode::Read, 5, 0, 16), // past the stream's end
        act_imm(Opcode::Setss, 0, 0, 0), // a bad symbol width
    };
    for (const Action &a : third) {
        SCOPED_TRACE(opcode_name(a.op));
        const Program prog = block_program({head[0], head[1], a});
        EXPECT_EQ(pair.run(0xFFFFFFF0u, 0, 0, prog), LaneStatus::Faulted);
        const Lane &ln = pair.block.lane;
        EXPECT_EQ(ln.fault().cycle, 4u);
        EXPECT_EQ(ln.stats().actions, 3u);
        EXPECT_EQ(ln.stats().cycles, 4u);
        EXPECT_EQ(ln.reg(4), 2u);
    }

    // The trap ops undo what the reference does not charge: a third
    // fetch past the image charges nothing, an undecodable third word
    // only its dispatch read.
    Program past = block_program(
        {head[0], act_imm(Opcode::Gotoact, 0, 0, 1000)});
    EXPECT_EQ(pair.run(0, 0, 0, past), LaneStatus::Faulted);
    EXPECT_EQ(pair.block.lane.fault().detail,
              "Lane: action fetch out of range");
    EXPECT_EQ(pair.block.lane.fault().cycle, 3u);
    EXPECT_EQ(pair.block.lane.stats().actions, 2u);

    Program bad = block_program({head[0], head[1], head[1]});
    bad.actions[2] = 0xFE000000u; // opcode 127 is undefined
    ASSERT_FALSE(opcode_valid(bits(bad.actions[2], 25, 7)));
    EXPECT_EQ(pair.run(0, 0, 0, bad), LaneStatus::Faulted);
    EXPECT_EQ(pair.block.lane.fault().code, FaultCode::BadAction);
    EXPECT_EQ(pair.block.lane.fault().cycle, 3u);
    EXPECT_EQ(pair.block.lane.stats().actions, 2u);
}

} // namespace
} // namespace udp
