/**
 * @file
 * A small regular-expression parser for the pattern-matching workloads
 * (paper Sections 2.1 and 5.3; substitutes for Boost.Regex on the CPU
 * side and feeds the NFA/DFA/aDFA pipeline on the UDP side).
 *
 * Supported syntax: literals, '\\' escapes (\n \r \t \0 \xHH \d \D \w \W
 * \s \S), '.', character classes [a-z0-9^-], alternation '|', grouping
 * '()', and the quantifiers '*', '+', '?', '{m}', '{m,}', '{m,n}'.
 * Matching is unanchored byte matching (NIDS style).
 */
#pragma once

#include "charclass.hpp"
#include "core/types.hpp"

#include <memory>
#include <string>
#include <vector>

namespace udp {

/// Regex AST node.
struct RegexNode {
    enum class Kind {
        Class,   ///< one symbol from `cls`
        Concat,  ///< children in sequence
        Alt,     ///< one of the children
        Repeat,  ///< child repeated min..max times (max<0 = unbounded)
        Empty,   ///< epsilon
    };

    Kind kind = Kind::Empty;
    CharClass cls;
    std::vector<std::unique_ptr<RegexNode>> children;
    int min = 0, max = 0;
};

/// Parse `pattern`; throws UdpError with a position on syntax errors.
std::unique_ptr<RegexNode> parse_regex(const std::string &pattern);

} // namespace udp
