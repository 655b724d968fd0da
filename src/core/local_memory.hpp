/**
 * @file
 * Multi-bank UDP local memory (paper Sections 3.1 and 3.2.4, Figure 10).
 *
 * 1 MiB organized as 64 banks x 16 KiB, each bank with one read and one
 * write port.  Three addressing models:
 *
 *  - Local: each lane is hard-wired to its own bank; a lane's addresses are
 *    offsets within that bank (UAP model).  No sharing hardware needed.
 *  - Global: every lane addresses the full 1 MiB; needs wider addresses and
 *    a crossbar, roughly doubling reference energy (Fig 11c: 8.8 pJ/ref vs
 *    4.3 pJ/ref).
 *  - Restricted: a per-lane base register opens a window; code is generated
 *    as if local, the base shifts the window (the UDP choice).
 *
 * Consistency: the UDP "detects and stalls" conflicting same-cycle
 * references; we model per-bank port contention by counting serialized
 * extra cycles (see `BankArbiter`).
 */
#pragma once

#include "types.hpp"

#include <array>

namespace udp {

/// Memory addressing model (Figure 10).
enum class AddressingMode : std::uint8_t { Local, Global, Restricted };

/// Printable name of an addressing mode.
std::string_view addressing_mode_name(AddressingMode m);

/// Per-reference access energy in picojoules (Fig 11c; CACTI 6.5 model).
double memory_ref_energy_pj(AddressingMode m);

/**
 * A lane's addressable range as one bound, the same rule in every mode:
 * an access of `len` bytes at lane address `a` is in range iff
 * `a + len <= limit` (in 64 bits, so no lane address wraps into range),
 * and it lands at physical byte `offset + a`.  LocalMemory::window()
 * computes it once per window; a negative limit admits nothing.
 */
struct LaneWindow {
    std::uint64_t offset = 0; ///< physical byte of lane address 0
    std::int64_t limit = 0;   ///< one past the last in-range lane address

    bool admits(Word addr, std::uint64_t len) const {
        return static_cast<std::int64_t>(std::uint64_t{addr} + len) <=
               limit;
    }
};

/**
 * The shared 1 MiB local memory.
 *
 * Lanes access it through lane-relative addresses that are translated per
 * the addressing mode.  All accesses are bounds-checked; a lane escaping
 * its addressable range (its bank in Local mode, the 1 MiB memory in
 * Global mode, its window in Restricted mode) raises
 * UdpFaultError(FetchOutOfRange), which the lane records as a fault.
 */
class LocalMemory
{
  public:
    explicit LocalMemory(AddressingMode mode = AddressingMode::Restricted);

    AddressingMode mode() const { return mode_; }

    /// Raw backing store (tests, DMA-style staging by the host).
    Bytes &raw() { return mem_; }
    const Bytes &raw() const { return mem_; }

    /// Zero all contents.
    void clear();

    /**
     * The bound of lane `lane`'s addressable range: its bank in Local
     * mode, the whole memory in Global mode, and in Restricted mode the
     * bytes from its window base register `base` up to `window_end`
     * (one past the window's last physical byte; clamped to the memory's
     * end, which is the default).
     */
    LaneWindow window(unsigned lane, ByteAddr base,
                      std::uint64_t window_end = kLocalMemBytes) const;

    /**
     * Translate a lane-relative byte address to a physical byte address,
     * faulting unless all `len` bytes from it lie in the window `w`.  The
     * fault's detail names the mode's range, and in Restricted mode
     * whether the access left the memory or only the lane's window.
     */
    ByteAddr translate(const LaneWindow &w, Word addr,
                       std::uint64_t len = 1) const;

    /// translate() over window(lane, base, window_end).
    ByteAddr translate(unsigned lane, ByteAddr addr, ByteAddr base,
                       std::uint64_t window_end = kLocalMemBytes,
                       unsigned len = 1) const {
        return translate(window(lane, base, window_end), addr, len);
    }

    /**
     * Host pointer to the `n` bytes at lane-relative `addr` (the first
     * at translate(w, addr)), or null unless every one of them would
     * pass translate(); a span that wraps past 2^32 is null.  Never
     * throws.  Block datapaths use it; on null they take the per-byte
     * path, which faults where translate() does.
     */
    std::uint8_t *span(const LaneWindow &w, Word addr, std::size_t n) {
        return w.admits(addr, n) ? mem_.data() + w.offset + addr : nullptr;
    }

    /// span() over window(lane, base, window_end).
    std::uint8_t *span(unsigned lane, ByteAddr addr, std::size_t n,
                       ByteAddr base,
                       std::uint64_t window_end = kLocalMemBytes) {
        return span(window(lane, base, window_end), addr, n);
    }

    /// Bank holding a physical byte address.
    static unsigned bank_of(ByteAddr phys) {
        return static_cast<unsigned>(phys / kBankBytes);
    }

    std::uint8_t read8(ByteAddr phys) const;
    void write8(ByteAddr phys, std::uint8_t v);
    Word read32(ByteAddr phys) const;          ///< little-endian
    void write32(ByteAddr phys, Word v);

  private:
    void check(ByteAddr phys, std::size_t len) const;

    AddressingMode mode_;
    Bytes mem_;
};

/**
 * Per-cycle bank port arbiter.
 *
 * Each bank serves 1 read + 1 write per cycle; same-cycle excess requests
 * on a bank stall the requesting lanes (paper: "detects and stalls
 * conflicting references ... simple arbitration").  Usage per machine
 * cycle: `begin_cycle()`, then `request()` per access returning the number
 * of extra stall cycles that access experiences.
 */
class BankArbiter
{
  public:
    void begin_cycle();

    /// Register an access; returns stall cycles (0 when the port was free).
    Cycles request(unsigned bank, bool is_write);

    /// Total stall cycles handed out since construction.
    Cycles total_stalls() const { return total_stalls_; }

  private:
    std::array<std::uint8_t, kNumBanks> reads_{};
    std::array<std::uint8_t, kNumBanks> writes_{};
    Cycles total_stalls_ = 0;
};

} // namespace udp
