/**
 * @file
 * CPU Huffman coding baseline (libhuffman-flavored: byte-frequency tree,
 * bit-at-a-time tree-walking decoder - the branchy code path whose
 * mispredictions Table 2 documents).
 *
 * The code table is canonical so that the UDP kernel and the baseline
 * interoperate: either side can decode the other's stream.
 */
#pragma once

#include "core/types.hpp"

#include <array>
#include <vector>

namespace udp::baselines {

/// A canonical Huffman code for the byte alphabet.
struct HuffmanCode {
    /// Per-symbol code length (0 = symbol absent); max length 16.
    std::array<std::uint8_t, 256> length{};
    /// Per-symbol code value, MSB-first in the low `length` bits.
    std::array<std::uint16_t, 256> code{};
};

/// Build a canonical code from the byte frequencies of `data`.
/// Lengths are capped at 16 by construction (frequency flattening).
HuffmanCode build_huffman(BytesView data);

/// Encode: bit stream, MSB-first. Throws if a byte has no code.
Bytes huffman_encode(BytesView data, const HuffmanCode &code);

/**
 * Decode `count` symbols by walking the code tree bit-by-bit
 * (libhuffman's loop). The tree is rebuilt from the canonical code.
 */
Bytes huffman_decode(BytesView bits, std::size_t count,
                     const HuffmanCode &code);

/// Decoding tree node (exposed for the UDP kernel compiler).
struct HuffTree {
    /// Children for bit 0 / bit 1: positive = node index, negative-1 =
    /// leaf symbol (entry -(sym+1)), 0 only valid as root marker.
    std::vector<std::array<std::int32_t, 2>> nodes;
    std::int32_t root = 0;
};
HuffTree build_tree(const HuffmanCode &code);

} // namespace udp::baselines
