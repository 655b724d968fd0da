/**
 * @file
 * Unit tests for the banked local memory, addressing modes (Figure 10)
 * and the bank arbiter ("detect and stall" consistency).
 */
#include "core/local_memory.hpp"

#include "core/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace udp {
namespace {

TEST(LocalMemory, LocalModeConfinesLaneToOwnBank)
{
    LocalMemory mem(AddressingMode::Local);
    EXPECT_EQ(mem.translate(0, 0, 0), 0u);
    EXPECT_EQ(mem.translate(1, 0, 0), kBankBytes);
    EXPECT_EQ(mem.translate(63, kBankBytes - 1, 0), kLocalMemBytes - 1);
    EXPECT_THROW(mem.translate(0, kBankBytes, 0), UdpError);
}

TEST(LocalMemory, GlobalModeSpansWholeMemory)
{
    LocalMemory mem(AddressingMode::Global);
    EXPECT_EQ(mem.translate(5, 123456, 0), 123456u);
    EXPECT_THROW(mem.translate(0, kLocalMemBytes, 0), UdpError);
}

TEST(LocalMemory, RestrictedModeAddsWindowBase)
{
    LocalMemory mem(AddressingMode::Restricted);
    EXPECT_EQ(mem.translate(0, 100, 3 * kBankBytes),
              3 * kBankBytes + 100);
    // A lane may reach any bank by moving its base register.
    EXPECT_EQ(mem.translate(0, 0, 63 * kBankBytes), 63 * kBankBytes);
    EXPECT_THROW(mem.translate(0, kBankBytes, 63 * kBankBytes), UdpError);
    // Unless a window end bounds it, the access's last byte included.
    const ByteAddr base = 3 * kBankBytes;
    const std::uint64_t end = base + 2 * kBankBytes;
    EXPECT_EQ(mem.translate(0, 2 * kBankBytes - 1, base, end), end - 1);
    EXPECT_THROW(mem.translate(0, 2 * kBankBytes, base, end), UdpError);
    EXPECT_EQ(mem.translate(0, 2 * kBankBytes - 4, base, end, 4), end - 4);
    EXPECT_THROW(mem.translate(0, 2 * kBankBytes - 3, base, end, 4),
                 UdpError);
}

TEST(LocalMemory, ReadWriteRoundTrip)
{
    LocalMemory mem;
    mem.write32(0x100, 0xDEADBEEF);
    EXPECT_EQ(mem.read32(0x100), 0xDEADBEEFu);
    EXPECT_EQ(mem.read8(0x100), 0xEFu); // little-endian
    mem.write8(0x103, 0x12);
    EXPECT_EQ(mem.read32(0x100), 0x12ADBEEFu);
    EXPECT_THROW(mem.read32(kLocalMemBytes - 2), UdpError);
}

TEST(LocalMemory, SpanIsTranslateOverEveryByte)
{
    // span() resolves exactly when every byte of the span would pass
    // translate() (with the lane's 32-bit address arithmetic), at the
    // first byte's physical address, and never throws.
    const Word edges[] = {0, 1, kBankBytes - 8, kBankBytes - 1, kBankBytes,
                          kLocalMemBytes - 3 * kBankBytes - 5,
                          kLocalMemBytes - 9, kLocalMemBytes - 1,
                          kLocalMemBytes, 0xFFFFFFF8u, 0xFFFFFFFFu};
    const Word lengths[] = {1, 2, 7, 8, 9, 100};
    const ByteAddr bases[] = {0, 3 * kBankBytes};
    auto every_byte_translates = [](const LocalMemory &mem, unsigned lane,
                                    Word addr, Word n, ByteAddr base,
                                    std::uint64_t end) {
        try {
            for (Word i = 0; i < n; ++i)
                mem.translate(lane, addr + i, base, end);
        } catch (const UdpError &) {
            return false;
        }
        return true;
    };
    for (const AddressingMode mode :
         {AddressingMode::Local, AddressingMode::Global,
          AddressingMode::Restricted}) {
        LocalMemory mem(mode);
        for (const unsigned lane : {0u, 5u, 63u})
            for (const ByteAddr base : bases)
                // The memory's end, and a two-bank window's.
                for (const std::uint64_t end :
                     {std::uint64_t{kLocalMemBytes},
                      std::uint64_t{base} + 2 * kBankBytes})
                    for (const Word addr : edges) {
                        EXPECT_NO_THROW(mem.span(lane, addr, 0, base, end));
                        for (const Word n : lengths) {
                            SCOPED_TRACE(testing::Message()
                                         << addressing_mode_name(mode)
                                         << " lane " << lane << " base "
                                         << base << " end " << end
                                         << " addr " << addr << " n " << n);
                            const bool every = every_byte_translates(
                                mem, lane, addr, n, base, end);
                            const std::uint8_t *p =
                                mem.span(lane, addr, n, base, end);
                            ASSERT_EQ(p != nullptr, every);
                            if (p) {
                                EXPECT_EQ(p, mem.raw().data() +
                                                 mem.translate(lane, addr,
                                                               base, end));
                            }
                        }
                    }
    }
}

TEST(LocalMemory, WindowBoundAdmitsExactlyWhatTranslateAdmits)
{
    // The per-mode range rules, written out: the bound must admit an
    // access exactly when its last byte lies in the lane's range, land
    // it at the same physical byte, fault with the mode's detail text,
    // and never reach past the memory.
    struct Rule {
        bool in_range;
        std::uint64_t phys;
        const char *detail;
    };
    auto rule = [](AddressingMode mode, unsigned lane, Word addr,
                   std::uint64_t len, ByteAddr base,
                   std::uint64_t window_end) -> Rule {
        const std::uint64_t end = std::uint64_t{addr} + len;
        switch (mode) {
          case AddressingMode::Local:
            return {end <= kBankBytes, std::uint64_t{lane} * kBankBytes + addr,
                    "LocalMemory: local-mode address exceeds bank"};
          case AddressingMode::Global:
            return {end <= kLocalMemBytes, addr,
                    "LocalMemory: global address out of range"};
          case AddressingMode::Restricted:
            return {base + end <= window_end, std::uint64_t{base} + addr,
                    base + end > kLocalMemBytes
                        ? "LocalMemory: restricted address out of range"
                        : "LocalMemory: restricted address past the lane's "
                          "window"};
        }
        return {};
    };
    const Word addrs[] = {0, 1, 3, kBankBytes - 4, kBankBytes - 1, kBankBytes,
                          2 * kBankBytes - 1, kLocalMemBytes - 4,
                          kLocalMemBytes - 1, kLocalMemBytes, 0xFFFFFFFCu,
                          0xFFFFFFFDu, 0xFFFFFFFFu};
    const ByteAddr bases[] = {0, 3 * kBankBytes, kLocalMemBytes - 8,
                              kLocalMemBytes, kLocalMemBytes + 100,
                              0xFFFFFFF0u};
    for (const AddressingMode mode :
         {AddressingMode::Local, AddressingMode::Global,
          AddressingMode::Restricted}) {
        LocalMemory mem(mode);
        for (const unsigned lane : {0u, 5u, 63u})
            for (const ByteAddr base : bases)
                // The memory's end, a two-bank window's, and one that
                // ends below the base.
                for (const std::uint64_t window_end :
                     {std::uint64_t{kLocalMemBytes},
                      std::min<std::uint64_t>(base + 2 * kBankBytes,
                                              kLocalMemBytes),
                      std::uint64_t{kBankBytes}}) {
                    const LaneWindow w = mem.window(lane, base, window_end);
                    if (w.limit >= 0) {
                        EXPECT_LE(w.offset + std::uint64_t(w.limit),
                                  kLocalMemBytes);
                    }
                    for (const Word addr : addrs)
                        for (const std::uint64_t len : {1u, 2u, 4u, 9u}) {
                            SCOPED_TRACE(testing::Message()
                                         << addressing_mode_name(mode)
                                         << " lane " << lane << " base "
                                         << base << " end " << window_end
                                         << " addr " << addr << " len "
                                         << len);
                            const Rule r = rule(mode, lane, addr, len, base,
                                                window_end);
                            ASSERT_EQ(w.admits(addr, len), r.in_range);
                            try {
                                EXPECT_EQ(mem.translate(w, addr, len),
                                          r.phys);
                                EXPECT_TRUE(r.in_range);
                            } catch (const UdpFaultError &e) {
                                EXPECT_FALSE(r.in_range);
                                EXPECT_EQ(e.code(),
                                          FaultCode::FetchOutOfRange);
                                EXPECT_STREQ(e.what(), r.detail);
                            }
                        }
                }
    }
}

TEST(LocalMemory, BankOfMatchesGeometry)
{
    EXPECT_EQ(LocalMemory::bank_of(0), 0u);
    EXPECT_EQ(LocalMemory::bank_of(kBankBytes), 1u);
    EXPECT_EQ(LocalMemory::bank_of(kLocalMemBytes - 1), kNumBanks - 1);
}

TEST(MemoryEnergy, GlobalCostsMoreThanDouble)
{
    // Fig 11c: 4.3 pJ/ref banked vs 8.8 pJ/ref global.
    EXPECT_DOUBLE_EQ(memory_ref_energy_pj(AddressingMode::Local), 4.3);
    EXPECT_DOUBLE_EQ(memory_ref_energy_pj(AddressingMode::Restricted), 4.3);
    EXPECT_DOUBLE_EQ(memory_ref_energy_pj(AddressingMode::Global), 8.8);
    EXPECT_GT(memory_ref_energy_pj(AddressingMode::Global),
              2 * memory_ref_energy_pj(AddressingMode::Local));
}

TEST(BankArbiter, FirstAccessIsFree)
{
    BankArbiter arb;
    arb.begin_cycle();
    EXPECT_EQ(arb.request(0, false), 0u);
    EXPECT_EQ(arb.request(1, false), 0u);
    EXPECT_EQ(arb.request(0, true), 0u); // separate write port
}

TEST(BankArbiter, ConflictsSerialize)
{
    BankArbiter arb;
    arb.begin_cycle();
    EXPECT_EQ(arb.request(7, false), 0u);
    EXPECT_EQ(arb.request(7, false), 1u);
    EXPECT_EQ(arb.request(7, false), 2u);
    EXPECT_EQ(arb.total_stalls(), 3u);
    arb.begin_cycle();
    EXPECT_EQ(arb.request(7, false), 0u); // new cycle, port free again
}

TEST(BankArbiter, RejectsBadBank)
{
    BankArbiter arb;
    arb.begin_cycle();
    EXPECT_THROW(arb.request(kNumBanks, false), UdpError);
}

} // namespace
} // namespace udp
