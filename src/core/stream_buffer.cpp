/**
 * @file
 * Stream buffer implementation.
 */
#include "stream_buffer.hpp"

#include "fault.hpp"

namespace udp {

void
StreamBuffer::attach(BytesView data)
{
    data_ = data;
    size_bits_ = static_cast<std::uint64_t>(data.size()) * 8;
    pos_bits_ = 0;
}

Word
StreamBuffer::read_bits(unsigned width)
{
    const Word v = peek(width);
    pos_bits_ += width;
    return v;
}

Word
StreamBuffer::peek(unsigned width) const
{
    if (width == 0 || width > 32)
        throw UdpFaultError(FaultCode::BadAction,
                            "StreamBuffer: symbol width must be 1..32");
    if (remaining_bits() < width)
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "StreamBuffer: read past end of stream");

    // MSB-first within the byte stream: bit 0 of the stream is the MSB of
    // byte 0.  Gather up to 5 bytes covering [pos, pos+width).
    Word out = 0;
    std::uint64_t p = pos_bits_;
    unsigned need = width;
    while (need > 0) {
        const std::uint64_t byte = p / 8;
        const unsigned bit_in_byte = static_cast<unsigned>(p % 8);
        const unsigned avail = 8 - bit_in_byte;
        const unsigned take = avail < need ? avail : need;
        const unsigned shift = avail - take;
        const Word chunk = (data_[byte] >> shift) & ((1u << take) - 1);
        out = (out << take) | chunk;
        p += take;
        need -= take;
    }
    return out;
}

void
StreamBuffer::skip(std::uint64_t nbits)
{
    if (remaining_bits() < nbits)
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "StreamBuffer: skip past end of stream");
    pos_bits_ += nbits;
}

void
StreamBuffer::refill(std::uint64_t nbits)
{
    if (nbits > pos_bits_)
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "StreamBuffer: refill past start of stream");
    pos_bits_ -= nbits;
}

void
StreamBuffer::seek_past_end()
{
    throw UdpFaultError(FaultCode::FetchOutOfRange,
                        "StreamBuffer: seek past end of stream");
}

} // namespace udp
