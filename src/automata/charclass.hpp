/**
 * @file
 * Byte character classes for the automata library.
 */
#pragma once

#include "core/types.hpp"

#include <bitset>

namespace udp {

/// A set over the byte alphabet.
class CharClass
{
  public:
    CharClass() = default;

    static CharClass single(std::uint8_t c) {
        CharClass cc;
        cc.bits_.set(c);
        return cc;
    }
    static CharClass range(std::uint8_t lo, std::uint8_t hi) {
        CharClass cc;
        for (unsigned c = lo; c <= hi; ++c)
            cc.bits_.set(c);
        return cc;
    }
    static CharClass any() {
        CharClass cc;
        cc.bits_.set();
        return cc;
    }

    void add(std::uint8_t c) { bits_.set(c); }
    void negate() { bits_.flip(); }
    void unite(const CharClass &o) { bits_ |= o.bits_; }

    bool test(std::uint8_t c) const { return bits_.test(c); }
    bool empty() const { return bits_.none(); }
    std::size_t count() const { return bits_.count(); }

    bool operator==(const CharClass &o) const { return bits_ == o.bits_; }

  private:
    std::bitset<256> bits_;
};

} // namespace udp
