/**
 * @file
 * Canonical Huffman construction, encoder and tree-walking decoder.
 */
#include "huffman.hpp"

#include <algorithm>
#include <queue>

namespace udp::baselines {

HuffmanCode
build_huffman(BytesView data)
{
    std::array<std::uint64_t, 256> freq{};
    for (const std::uint8_t b : data)
        ++freq[b];

    // Package-merge would be exact; we use the classic trick of flattening
    // frequencies until the tree depth fits 16 (rarely needed below 1 MiB).
    std::array<std::uint8_t, 256> length{};
    for (int attempt = 0; attempt < 20; ++attempt) {
        // Build the tree over present symbols with a priority queue.
        using Item = std::pair<std::uint64_t, int>; // (freq, node)
        struct Node {
            int left = -1, right = -1;
            int sym = -1;
        };
        std::vector<Node> nodes;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
        for (int s = 0; s < 256; ++s) {
            if (freq[s] == 0)
                continue;
            nodes.push_back({-1, -1, s});
            pq.emplace(freq[s], static_cast<int>(nodes.size() - 1));
        }
        if (nodes.empty()) { // empty input: give byte 0 a 1-bit code
            HuffmanCode c;
            c.length[0] = 1;
            c.code[0] = 0;
            return c;
        }
        if (nodes.size() == 1) {
            HuffmanCode c;
            c.length[nodes[0].sym] = 1;
            c.code[nodes[0].sym] = 0;
            return c;
        }
        while (pq.size() > 1) {
            const auto [fa, a] = pq.top();
            pq.pop();
            const auto [fb, bn] = pq.top();
            pq.pop();
            nodes.push_back({a, bn, -1});
            pq.emplace(fa + fb, static_cast<int>(nodes.size() - 1));
        }
        // Depth-assign lengths.
        length.fill(0);
        unsigned max_len = 0;
        std::vector<std::pair<int, unsigned>> stack{
            {pq.top().second, 0}};
        while (!stack.empty()) {
            const auto [n, d] = stack.back();
            stack.pop_back();
            if (nodes[n].sym >= 0) {
                length[nodes[n].sym] =
                    static_cast<std::uint8_t>(std::max(1u, d));
                max_len = std::max(max_len, std::max(1u, d));
            } else {
                stack.push_back({nodes[n].left, d + 1});
                stack.push_back({nodes[n].right, d + 1});
            }
        }
        if (max_len <= 16)
            break;
        // Flatten and retry.
        for (auto &f : freq)
            if (f)
                f = (f >> 2) + 1;
    }

    // Canonicalize: sort by (length, symbol) and assign increasing codes.
    std::vector<int> symbols;
    for (int s = 0; s < 256; ++s)
        if (length[s])
            symbols.push_back(s);
    std::sort(symbols.begin(), symbols.end(), [&](int a, int b) {
        return length[a] != length[b] ? length[a] < length[b] : a < b;
    });

    HuffmanCode c;
    c.length = length;
    std::uint32_t next = 0;
    unsigned prev_len = 0;
    for (const int s : symbols) {
        next <<= (length[s] - prev_len);
        prev_len = length[s];
        c.code[s] = static_cast<std::uint16_t>(next);
        ++next;
    }
    return c;
}

Bytes
huffman_encode(BytesView data, const HuffmanCode &code)
{
    Bytes out;
    out.reserve(data.size() / 2 + 8);
    std::uint32_t acc = 0;
    unsigned nbits = 0;
    for (const std::uint8_t b : data) {
        const unsigned len = code.length[b];
        if (len == 0)
            throw UdpError("huffman_encode: symbol without a code");
        acc = (acc << len) | code.code[b];
        nbits += len;
        while (nbits >= 8) {
            out.push_back(
                static_cast<std::uint8_t>(acc >> (nbits - 8)));
            nbits -= 8;
        }
    }
    if (nbits)
        out.push_back(static_cast<std::uint8_t>(acc << (8 - nbits)));
    return out;
}

HuffTree
build_tree(const HuffmanCode &code)
{
    HuffTree t;
    t.nodes.push_back({0, 0});
    for (int s = 0; s < 256; ++s) {
        const unsigned len = code.length[s];
        if (!len)
            continue;
        std::int32_t n = 0;
        for (unsigned i = len; i-- > 0;) {
            const unsigned bit = (code.code[s] >> i) & 1;
            if (i == 0) {
                t.nodes[n][bit] = -(s + 1);
            } else {
                if (t.nodes[n][bit] <= 0) {
                    t.nodes.push_back({0, 0});
                    t.nodes[n][bit] =
                        static_cast<std::int32_t>(t.nodes.size() - 1);
                }
                n = t.nodes[n][bit];
            }
        }
    }
    return t;
}

Bytes
huffman_decode(BytesView bits, std::size_t count, const HuffmanCode &code)
{
    const HuffTree tree = build_tree(code);
    Bytes out;
    out.reserve(count);
    std::int32_t n = tree.root;
    std::size_t bitpos = 0;
    const std::size_t nbits = bits.size() * 8;
    while (out.size() < count) {
        if (bitpos >= nbits)
            throw UdpError("huffman_decode: truncated stream");
        const unsigned bit =
            (bits[bitpos / 8] >> (7 - bitpos % 8)) & 1;
        ++bitpos;
        const std::int32_t next = tree.nodes[n][bit];
        if (next < 0) {
            out.push_back(static_cast<std::uint8_t>(-next - 1));
            n = tree.root;
        } else {
            n = next;
        }
    }
    return out;
}

} // namespace udp::baselines
