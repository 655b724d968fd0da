/**
 * @file
 * CPU dictionary / dictionary-RLE encoding baseline (Parquet's C++
 * dictionary encoder flavor: hash-map string -> id, fixed-width id
 * output; the RLE variant adds run-length pairs).  Table 2 attributes
 * the CPU cost to hashing (54-67% of runtime).
 */
#pragma once

#include "core/types.hpp"

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace udp::baselines {

/// String hash that also takes a `std::string_view`, so a lookup need
/// not build a `std::string` key.
struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
    }
};

/// Dictionary built over a value column.
struct Dictionary {
    std::vector<std::string> values;             ///< id -> value
    std::unordered_map<std::string, std::uint32_t, StringHash,
                       std::equal_to<>>
        ids;

    /// Id of `v`, assigning the next one when `v` is new.  A hit hashes
    /// once and copies nothing; `v` is copied only when first seen.
    std::uint32_t intern(std::string_view v);
    std::size_t size() const { return values.size(); }
};

/// Plain dictionary encoding: one 32-bit id per row.
struct DictEncoded {
    Dictionary dict;
    std::vector<std::uint32_t> ids;
    std::size_t input_bytes = 0;
};
DictEncoded dictionary_encode(const std::vector<std::string> &rows);

/// Dictionary + run-length encoding: (id, run) pairs.
struct DictRleEncoded {
    Dictionary dict;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
    std::size_t input_bytes = 0;
};
DictRleEncoded dictionary_rle_encode(const std::vector<std::string> &rows);

/// Decoders (round-trip validation).
std::vector<std::string> dictionary_decode(const DictEncoded &enc);
std::vector<std::string> dictionary_rle_decode(const DictRleEncoded &enc);

/// Serialize a column to the newline-separated byte stream the UDP
/// kernel consumes.
Bytes column_bytes(const std::vector<std::string> &rows);

} // namespace udp::baselines
