/**
 * @file
 * Recursive-descent regex parser.
 */
#include "regex.hpp"

namespace udp {

namespace {

using NodePtr = std::unique_ptr<RegexNode>;

NodePtr
make_node(RegexNode::Kind k)
{
    auto n = std::make_unique<RegexNode>();
    n->kind = k;
    return n;
}

NodePtr
make_class(CharClass cc)
{
    auto n = make_node(RegexNode::Kind::Class);
    n->cls = cc;
    return n;
}

class Parser
{
  public:
    explicit Parser(const std::string &s) : s_(s) {}

    NodePtr parse() {
        NodePtr n = alternation();
        if (pos_ != s_.size())
            fail("trailing characters");
        return n;
    }

  private:
    [[noreturn]] void fail(const std::string &msg) const {
        throw UdpError("regex: " + msg + " at position " +
                       std::to_string(pos_) + " in \"" + s_ + "\"");
    }

    bool eof() const { return pos_ >= s_.size(); }
    char peek() const { return s_[pos_]; }
    char next() {
        if (eof())
            fail("unexpected end");
        return s_[pos_++];
    }

    NodePtr alternation() {
        NodePtr lhs = concat();
        if (eof() || peek() != '|')
            return lhs;
        auto alt = make_node(RegexNode::Kind::Alt);
        alt->children.push_back(std::move(lhs));
        while (!eof() && peek() == '|') {
            ++pos_;
            alt->children.push_back(concat());
        }
        return alt;
    }

    NodePtr concat() {
        auto seq = make_node(RegexNode::Kind::Concat);
        while (!eof() && peek() != '|' && peek() != ')')
            seq->children.push_back(repetition());
        if (seq->children.empty())
            return make_node(RegexNode::Kind::Empty);
        if (seq->children.size() == 1)
            return std::move(seq->children.front());
        return seq;
    }

    NodePtr repetition() {
        NodePtr atom_node = atom();
        while (!eof()) {
            const char c = peek();
            int min = 0, max = -1;
            if (c == '*') {
                ++pos_;
            } else if (c == '+') {
                ++pos_;
                min = 1;
            } else if (c == '?') {
                ++pos_;
                max = 1;
            } else if (c == '{') {
                ++pos_;
                min = number();
                max = min;
                if (!eof() && peek() == ',') {
                    ++pos_;
                    max = (!eof() && peek() == '}') ? -1 : number();
                }
                if (eof() || next() != '}')
                    fail("expected '}'");
                if (max >= 0 && max < min)
                    fail("bad repetition bounds");
                if (max > 64 || min > 64)
                    fail("repetition bound too large (limit 64)");
            } else {
                break;
            }
            auto rep = make_node(RegexNode::Kind::Repeat);
            rep->min = min;
            rep->max = max;
            rep->children.push_back(std::move(atom_node));
            atom_node = std::move(rep);
        }
        return atom_node;
    }

    int number() {
        if (eof() || !isdigit(static_cast<unsigned char>(peek())))
            fail("expected number");
        int v = 0;
        while (!eof() && isdigit(static_cast<unsigned char>(peek()))) {
            v = v * 10 + (next() - '0');
            if (v > 9999)
                fail("number too large");
        }
        return v;
    }

    NodePtr atom() {
        const char c = next();
        switch (c) {
          case '(': {
            NodePtr inner = alternation();
            if (eof() || next() != ')')
                fail("expected ')'");
            return inner;
          }
          case '[': return make_class(char_class());
          case '.': return make_class(CharClass::any());
          case '\\': return make_class(escape());
          case '*':
          case '+':
          case '?':
            fail("quantifier with nothing to repeat");
          default:
            return make_class(
                CharClass::single(static_cast<std::uint8_t>(c)));
        }
    }

    CharClass escape() {
        const char c = next();
        CharClass cc;
        switch (c) {
          case 'n': return CharClass::single('\n');
          case 'r': return CharClass::single('\r');
          case 't': return CharClass::single('\t');
          case '0': return CharClass::single(0);
          case 'd': return CharClass::range('0', '9');
          case 'D':
            cc = CharClass::range('0', '9');
            cc.negate();
            return cc;
          case 'w':
            cc = CharClass::range('a', 'z');
            cc.unite(CharClass::range('A', 'Z'));
            cc.unite(CharClass::range('0', '9'));
            cc.add('_');
            return cc;
          case 'W':
            cc = escape_named('w');
            cc.negate();
            return cc;
          case 's':
            cc.add(' ');
            cc.add('\t');
            cc.add('\n');
            cc.add('\r');
            cc.add('\f');
            cc.add(0x0B);
            return cc;
          case 'S':
            cc = escape_named('s');
            cc.negate();
            return cc;
          case 'x': {
            const int hi = hex_digit();
            const int lo = hex_digit();
            return CharClass::single(
                static_cast<std::uint8_t>(hi * 16 + lo));
          }
          default:
            // Escaped metacharacter (\., \[, \\, ...).
            return CharClass::single(static_cast<std::uint8_t>(c));
        }
    }

    CharClass escape_named(char c) {
        // Reuse escape() logic for \w / \s bodies without re-consuming.
        CharClass cc;
        if (c == 'w') {
            cc = CharClass::range('a', 'z');
            cc.unite(CharClass::range('A', 'Z'));
            cc.unite(CharClass::range('0', '9'));
            cc.add('_');
        } else {
            cc.add(' ');
            cc.add('\t');
            cc.add('\n');
            cc.add('\r');
            cc.add('\f');
            cc.add(0x0B);
        }
        return cc;
    }

    int hex_digit() {
        const char c = next();
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        fail("bad hex digit");
    }

    CharClass char_class() {
        CharClass cc;
        bool negated = false;
        if (!eof() && peek() == '^') {
            ++pos_;
            negated = true;
        }
        bool first = true;
        while (true) {
            if (eof())
                fail("unterminated character class");
            char c = peek();
            if (c == ']' && !first) {
                ++pos_;
                break;
            }
            first = false;
            ++pos_;
            CharClass atom_cc;
            if (c == '\\') {
                --pos_;
                ++pos_; // consume backslash position marker
                atom_cc = escape();
            } else {
                atom_cc = CharClass::single(static_cast<std::uint8_t>(c));
            }
            // Range a-b (only for single-char atoms).
            if (!eof() && peek() == '-' && pos_ + 1 < s_.size() &&
                s_[pos_ + 1] != ']' && atom_cc.count() == 1 && c != '\\') {
                ++pos_; // '-'
                const char hi = next();
                if (static_cast<std::uint8_t>(hi) <
                    static_cast<std::uint8_t>(c))
                    fail("reversed class range");
                atom_cc = CharClass::range(static_cast<std::uint8_t>(c),
                                           static_cast<std::uint8_t>(hi));
            }
            cc.unite(atom_cc);
        }
        if (negated)
            cc.negate();
        if (cc.empty())
            fail("empty character class");
        return cc;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

std::unique_ptr<RegexNode>
parse_regex(const std::string &pattern)
{
    return Parser(pattern).parse();
}

} // namespace udp
