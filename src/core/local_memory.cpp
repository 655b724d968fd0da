/**
 * @file
 * Local memory and bank arbitration implementation.
 */
#include "local_memory.hpp"

#include "fault.hpp"

#include <algorithm>

namespace udp {

std::string_view
addressing_mode_name(AddressingMode m)
{
    switch (m) {
      case AddressingMode::Local: return "local";
      case AddressingMode::Global: return "global";
      case AddressingMode::Restricted: return "restricted";
    }
    return "<bad>";
}

double
memory_ref_energy_pj(AddressingMode m)
{
    // Fig 11c (CACTI 6.5, 1 MiB, 64 banks): banked local/restricted access
    // costs 4.3 pJ/ref; a global crossbar more than doubles it to 8.8.
    return m == AddressingMode::Global ? 8.8 : 4.3;
}

LocalMemory::LocalMemory(AddressingMode mode)
    : mode_(mode), mem_(kLocalMemBytes, 0)
{
}

void
LocalMemory::clear()
{
    std::fill(mem_.begin(), mem_.end(), 0);
}

LaneWindow
LocalMemory::window(unsigned lane, ByteAddr base,
                    std::uint64_t window_end) const
{
    switch (mode_) {
      case AddressingMode::Local: // the lane's private 16 KiB bank
        return {std::uint64_t{lane} * kBankBytes, kBankBytes};
      case AddressingMode::Global:
        return {0, kLocalMemBytes};
      case AddressingMode::Restricted: {
        const std::uint64_t end =
            std::min<std::uint64_t>(window_end, mem_.size());
        return {base, static_cast<std::int64_t>(end) -
                          static_cast<std::int64_t>(base)};
      }
    }
    throw UdpError("LocalMemory: bad addressing mode");
}

ByteAddr
LocalMemory::translate(const LaneWindow &w, Word addr,
                       std::uint64_t len) const
{
    if (w.admits(addr, len))
        return static_cast<ByteAddr>(w.offset + addr);
    const char *detail = "LocalMemory: restricted address past the lane's "
                         "window";
    switch (mode_) {
      case AddressingMode::Local:
        detail = "LocalMemory: local-mode address exceeds bank";
        break;
      case AddressingMode::Global:
        detail = "LocalMemory: global address out of range";
        break;
      case AddressingMode::Restricted:
        if (w.offset + addr + len > kLocalMemBytes)
            detail = "LocalMemory: restricted address out of range";
        break;
    }
    throw UdpFaultError(FaultCode::FetchOutOfRange, detail);
}

void
LocalMemory::check(ByteAddr phys, std::size_t len) const
{
    if (std::uint64_t{phys} + len > mem_.size())
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "LocalMemory: physical access out of range");
}

std::uint8_t
LocalMemory::read8(ByteAddr phys) const
{
    check(phys, 1);
    return mem_[phys];
}

void
LocalMemory::write8(ByteAddr phys, std::uint8_t v)
{
    check(phys, 1);
    mem_[phys] = v;
}

Word
LocalMemory::read32(ByteAddr phys) const
{
    check(phys, 4);
    return Word{mem_[phys]} | (Word{mem_[phys + 1]} << 8) |
           (Word{mem_[phys + 2]} << 16) | (Word{mem_[phys + 3]} << 24);
}

void
LocalMemory::write32(ByteAddr phys, Word v)
{
    check(phys, 4);
    mem_[phys] = static_cast<std::uint8_t>(v);
    mem_[phys + 1] = static_cast<std::uint8_t>(v >> 8);
    mem_[phys + 2] = static_cast<std::uint8_t>(v >> 16);
    mem_[phys + 3] = static_cast<std::uint8_t>(v >> 24);
}

void
BankArbiter::begin_cycle()
{
    reads_.fill(0);
    writes_.fill(0);
}

Cycles
BankArbiter::request(unsigned bank, bool is_write)
{
    if (bank >= kNumBanks)
        throw UdpError("BankArbiter: bank id out of range");
    auto &count = is_write ? writes_[bank] : reads_[bank];
    const Cycles stall = count; // nth same-cycle request waits n cycles
    if (count < 255)
        ++count;
    total_stalls_ += stall;
    return stall;
}

} // namespace udp
