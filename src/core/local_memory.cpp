/**
 * @file
 * Local memory and bank arbitration implementation.
 */
#include "local_memory.hpp"

#include "fault.hpp"

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

ByteAddr
LocalMemory::translate(unsigned lane, ByteAddr addr, ByteAddr base,
                       std::uint64_t window_end, unsigned len) const
{
    // One compare per mode, against the end of the access's last byte.
    const std::uint64_t end = std::uint64_t{addr} + len;
    switch (mode_) {
      case AddressingMode::Local:
        // Lane-private bank; an address past the 16 KiB bank faults.
        if (end > kBankBytes)
            throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "LocalMemory: local-mode address exceeds bank");
        return static_cast<ByteAddr>(lane * kBankBytes + addr);
      case AddressingMode::Global:
        if (end > kLocalMemBytes)
            throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "LocalMemory: global address out of range");
        return addr;
      case AddressingMode::Restricted:
        if (base + end > window_end)
            throw UdpFaultError(
                FaultCode::FetchOutOfRange,
                base + end > kLocalMemBytes
                    ? "LocalMemory: restricted address out of range"
                    : "LocalMemory: restricted address past the lane's "
                      "window");
        return base + addr;
    }
    throw UdpError("LocalMemory: bad addressing mode");
}

std::uint8_t *
LocalMemory::span(unsigned lane, ByteAddr addr, std::size_t n, ByteAddr base,
                  std::uint64_t window_end)
{
    // translate()'s rule applied to the span's last byte, in 64 bits.
    const std::uint64_t end = std::uint64_t{addr} + n;
    std::uint64_t phys = 0;
    switch (mode_) {
      case AddressingMode::Local:
        if (end > kBankBytes)
            return nullptr;
        phys = std::uint64_t{lane} * kBankBytes + addr;
        break;
      case AddressingMode::Global:
        if (end > kLocalMemBytes)
            return nullptr;
        phys = addr;
        break;
      case AddressingMode::Restricted:
        if (std::uint64_t{base} + end > window_end)
            return nullptr;
        phys = std::uint64_t{base} + addr;
        break;
      default:
        return nullptr;
    }
    if (phys + n > mem_.size())
        return nullptr;
    return mem_.data() + phys;
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
