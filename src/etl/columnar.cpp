/**
 * @file
 * Mini columnar store implementation.
 */
#include "columnar.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>

namespace udp::etl {

std::size_t
Column::size() const
{
    switch (type) {
      case ColType::Int64:
      case ColType::Date: return ints.size();
      case ColType::Double: return doubles.size();
      case ColType::Text: return codes.size();
    }
    return 0;
}

std::size_t
Column::bytes() const
{
    std::size_t b = ints.size() * 8 + doubles.size() * 8 +
                    codes.size() * 4;
    for (const auto &v : dict.values)
        b += v.size() + 8;
    return b;
}

Table::Table(std::string name,
             std::vector<std::pair<std::string, ColType>> schema)
    : name_(std::move(name))
{
    for (auto &[n, t] : schema) {
        Column c;
        c.name = std::move(n);
        c.type = t;
        cols_.push_back(std::move(c));
    }
    if (cols_.empty())
        throw UdpError("Table: empty schema");
}

template <typename FieldAt>
void
Table::append_fields(FieldAt field)
{
    for (std::size_t i = 0; i < cols_.size(); ++i) {
        Column &c = cols_[i];
        const std::string_view f = field(i);
        switch (c.type) {
          case ColType::Int64:
            c.ints.push_back(parse_int64(f));
            break;
          case ColType::Date:
            c.ints.push_back(parse_date(f));
            break;
          case ColType::Double:
            c.doubles.push_back(parse_double(f));
            break;
          case ColType::Text:
            c.codes.push_back(c.dict.intern(f));
            break;
        }
    }
    ++rows_;
}

void
Table::append_raw(const std::vector<std::string> &fields)
{
    if (fields.size() != cols_.size())
        throw UdpError("Table: CSV arity mismatch for " + name_);
    append_fields(
        [&](std::size_t i) -> std::string_view { return fields[i]; });
}

namespace {

/// Bit i set when byte i of the min(n, 64) at `p` is '\n' or 0x1E.
std::uint64_t
delimiter_bits(const char *p, std::size_t n)
{
    std::uint64_t bits = 0;
    if (n < 64) {
        for (std::size_t i = 0; i < n; ++i)
            bits |= std::uint64_t{p[i] == '\n' || p[i] == '\x1E'} << i;
        return bits;
    }
    // A fixed trip count and no branch, so compilers vectorize this.
    std::uint8_t hit[64];
    for (unsigned i = 0; i < 64; ++i)
        hit[i] = (p[i] == '\n') | (p[i] == '\x1E');
    static_assert(std::endian::native == std::endian::little,
                  "hit[8k + j] must land in byte j of the word");
    for (unsigned k = 0; k < 8; ++k) {
        std::uint64_t w;
        std::memcpy(&w, hit + 8 * k, sizeof w);
        // Moves bit 0 of byte j to bit 56 + j; no two partial products
        // overlap, so nothing carries.
        bits |= ((w * 0x0102040810204080ull) >> 56) << (8 * k);
    }
    return bits;
}

} // namespace

std::size_t
Table::append_field_stream(std::string_view stream)
{
    // One pass that finds each delimiter once, 64 bytes at a time; a row
    // is checked when its mark arrives, so an unfinished tail is never
    // judged.
    std::vector<std::string_view> row(cols_.size());
    const char *const s = stream.data();
    std::size_t done = 0; // bytes consumed through the last row mark
    std::size_t at = 0;   // start of the current field
    std::size_t n = 0;    // fields of the current row
    for (std::size_t base = 0; base < stream.size(); base += 64) {
        for (std::uint64_t bits =
                 delimiter_bits(s + base, stream.size() - base);
             bits; bits &= bits - 1) {
            const std::size_t end = base + std::countr_zero(bits);
            if (s[end] == '\n') {
                if (n < row.size())
                    row[n] = std::string_view(s + at, end - at);
                ++n;
            } else {
                if (end != at)
                    throw UdpError("Table: unterminated field in " + name_);
                if (n != row.size())
                    throw UdpError("Table: CSV arity mismatch for " + name_);
                append_fields([&](std::size_t i) { return row[i]; });
                done = end + 1;
                n = 0;
            }
            at = end + 1;
        }
    }
    return done;
}

std::size_t
Table::bytes() const
{
    std::size_t b = 0;
    for (const auto &c : cols_)
        b += c.bytes();
    return b;
}

std::int64_t
parse_int64(std::string_view s)
{
    std::int64_t v = 0;
    const auto *b = s.data();
    const auto *e = s.data() + s.size();
    const auto [p, ec] = std::from_chars(b, e, v);
    if (ec != std::errc{} || p != e)
        throw UdpError("parse_int64: bad integer '" + std::string(s) + "'");
    return v;
}

double
parse_double(std::string_view s)
{
    double v = 0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || p != s.data() + s.size())
        throw UdpError("parse_double: bad number '" + std::string(s) + "'");
    return v;
}

namespace {

bool
is_leap(int y)
{
    return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

DateDays
days_from_civil(int y, int m, int d)
{
    // Howard Hinnant's algorithm.
    y -= m <= 2;
    const int era = (y >= 0 ? y : y - 399) / 400;
    const unsigned yoe = static_cast<unsigned>(y - era * 400);
    const unsigned doy =
        (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
        static_cast<unsigned>(d) - 1;
    const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    return static_cast<DateDays>(era * 146097 +
                                 static_cast<int>(doe) - 719468);
}

int
two_digits(std::string_view s, std::size_t at)
{
    if (at + 2 > s.size() || !isdigit((unsigned char)s[at]) ||
        !isdigit((unsigned char)s[at + 1]))
        throw UdpError("parse_date: bad digits in '" + std::string(s) + "'");
    return (s[at] - '0') * 10 + (s[at + 1] - '0');
}

} // namespace

DateDays
parse_date(std::string_view s)
{
    // "YYYY-MM-DD", or Crimes-style "MM/DD/YYYY[ hh:mm:ss]".
    int y = 0, m = 0, d = 0;
    if (s.size() == 10 && s[4] == '-' && s[7] == '-') {
        y = two_digits(s, 0) * 100 + two_digits(s, 2);
        m = two_digits(s, 5);
        d = two_digits(s, 8);
    } else if ((s.size() == 10 || (s.size() == 19 && s[10] == ' ' &&
                                   s[13] == ':' && s[16] == ':')) &&
               s[2] == '/' && s[5] == '/') {
        m = two_digits(s, 0);
        d = two_digits(s, 3);
        y = two_digits(s, 6) * 100 + two_digits(s, 8);
        if (s.size() == 19 && (two_digits(s, 11) > 23 ||
                               two_digits(s, 14) > 59 ||
                               two_digits(s, 17) > 59))
            throw UdpError("parse_date: out-of-range '" + std::string(s) +
                           "'");
    } else {
        throw UdpError("parse_date: unrecognized format '" +
                       std::string(s) + "'");
    }
    if (m < 1 || m > 12 || d < 1 ||
        d > (m == 2 ? (is_leap(y) ? 29 : 28)
                    : (m == 4 || m == 6 || m == 9 || m == 11 ? 30 : 31)))
        throw UdpError("parse_date: out-of-range '" + std::string(s) + "'");
    return days_from_civil(y, m, d);
}

} // namespace udp::etl
