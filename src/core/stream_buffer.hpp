/**
 * @file
 * Per-lane stream buffer with prefetch and variable-size symbol support
 * (paper Sections 3.2.2 and 3.2.3, "SBP Unit" in Figure 23).
 *
 * The stream buffer presents the input as a bit stream.  Symbols of the
 * configured width (symbol-size register: 1..8, 16 or 32 bits) are fetched
 * MSB-first within each byte, which matches bit-packed encodings such as
 * Huffman.  `refill` pushes back over-consumed bits (the SsRef mechanism).
 *
 * The hardware prefetcher keeps the next symbol ready, so fetches cost no
 * extra cycles in the lane model; what the model does charge is the refill
 * transition itself (one dispatch slot).
 */
#pragma once

#include "types.hpp"

namespace udp {

/// Bit-granular input stream for a UDP lane.
class StreamBuffer
{
  public:
    StreamBuffer() = default;

    /// Attach the buffer to `data` and rewind. The data is not copied;
    /// the caller keeps it alive while the lane runs.
    void attach(BytesView data);

    /// Current cursor, in bits from the start.
    std::uint64_t pos_bits() const { return pos_bits_; }

    /// Current cursor in whole bytes (architectural r15 value).
    std::uint64_t pos_bytes() const { return pos_bits_ / 8; }

    /// Bits remaining.
    std::uint64_t remaining_bits() const { return size_bits_ - pos_bits_; }

    /// True when fewer than `width` bits remain.
    bool exhausted(unsigned width) const { return remaining_bits() < width; }

    /**
     * Consume `width` bits (1..32) and return them right-aligned.
     * Bits are taken MSB-first. Throws UdpError past end of stream.
     * A byte-aligned 8-bit read, the common symbol, is one byte load
     * inline; every other read gathers bits out of line.
     */
    Word read(unsigned width) {
        // size_bits_ is a multiple of 8, so an aligned cursor below it
        // has a whole byte left.
        if (width == 8 && (pos_bits_ & 7) == 0 && pos_bits_ < size_bits_) {
            const Word v = data_[static_cast<std::size_t>(pos_bits_ >> 3)];
            pos_bits_ += 8;
            return v;
        }
        return read_bits(width);
    }

    /// Read without consuming.
    Word peek(unsigned width) const;

    /// Advance the cursor by `nbits` without delivering data.
    void skip(std::uint64_t nbits);

    /// Push back `nbits` previously consumed bits (refill transition).
    void refill(std::uint64_t nbits);

    /// Absolute reposition (Setstream action, r15 writes), in bits.
    void seek_bits(std::uint64_t bit_pos) {
        if (bit_pos > size_bits_)
            seek_past_end();
        pos_bits_ = bit_pos;
    }

    /// Byte at absolute byte offset (loop-compare/copy source view).
    BytesView data() const { return data_; }

  private:
    Word read_bits(unsigned width); ///< read()'s general case
    [[noreturn]] static void seek_past_end();

    BytesView data_{};
    std::uint64_t size_bits_ = 0;
    std::uint64_t pos_bits_ = 0;
};

} // namespace udp
