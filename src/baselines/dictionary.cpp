/**
 * @file
 * Dictionary / dictionary-RLE baseline implementation.
 */
#include "dictionary.hpp"

namespace udp::baselines {

std::uint32_t
Dictionary::intern(std::string_view v)
{
    const auto it = ids.find(v);
    if (it != ids.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(values.size());
    values.emplace_back(v);
    ids.emplace(values.back(), id);
    return id;
}

DictEncoded
dictionary_encode(const std::vector<std::string> &rows)
{
    DictEncoded enc;
    enc.ids.reserve(rows.size());
    for (const auto &r : rows) {
        enc.ids.push_back(enc.dict.intern(r));
        enc.input_bytes += r.size() + 1;
    }
    return enc;
}

DictRleEncoded
dictionary_rle_encode(const std::vector<std::string> &rows)
{
    DictRleEncoded enc;
    std::uint32_t prev = ~0u;
    for (const auto &r : rows) {
        const std::uint32_t id = enc.dict.intern(r);
        enc.input_bytes += r.size() + 1;
        if (!enc.runs.empty() && id == prev) {
            ++enc.runs.back().second;
        } else {
            enc.runs.emplace_back(id, 1);
            prev = id;
        }
    }
    return enc;
}

std::vector<std::string>
dictionary_decode(const DictEncoded &enc)
{
    std::vector<std::string> out;
    out.reserve(enc.ids.size());
    for (const auto id : enc.ids)
        out.push_back(enc.dict.values.at(id));
    return out;
}

std::vector<std::string>
dictionary_rle_decode(const DictRleEncoded &enc)
{
    std::vector<std::string> out;
    for (const auto &[id, run] : enc.runs)
        for (std::uint32_t i = 0; i < run; ++i)
            out.push_back(enc.dict.values.at(id));
    return out;
}

Bytes
column_bytes(const std::vector<std::string> &rows)
{
    Bytes out;
    for (const auto &r : rows) {
        out.insert(out.end(), r.begin(), r.end());
        out.push_back('\n');
    }
    return out;
}

} // namespace udp::baselines
