/**
 * @file
 * CPU CSV parser baseline, faithful to libcsv's streaming FSM semantics
 * (paper Section 4.1: "UDP implements the parsing finite-state machine
 * used in libcsv"): RFC-4180 quoting, "" escapes, CR/LF/CRLF row ends,
 * per-field and per-row callbacks.
 */
#pragma once

#include "core/types.hpp"

#include <functional>
#include <string>
#include <vector>

namespace udp::baselines {

/// Streaming CSV parser (libcsv-flavored three-state FSM).
class CsvParser
{
  public:
    using FieldFn = std::function<void(const char *data, std::size_t len)>;
    using RowFn = std::function<void()>;

    CsvParser(FieldFn on_field, RowFn on_row)
        : on_field_(std::move(on_field)), on_row_(std::move(on_row))
    {
    }

    /// Feed a chunk; may be called repeatedly (streaming).
    void feed(BytesView chunk);

    /// Signal end of input (flushes a trailing unterminated row, a quoted
    /// field left open included, as libcsv does).
    void finish();

    /// True inside a quoted field whose closing quote has not come yet;
    /// a caller that refuses an open quote at the end checks it first.
    bool in_quoted_field() const { return state_ == State::Quoted; }

    std::uint64_t fields() const { return fields_; }
    std::uint64_t rows() const { return rows_; }

  private:
    enum class State { FieldStart, Unquoted, Quoted, QuoteInQuoted };

    void end_field();
    void end_row();

    FieldFn on_field_;
    RowFn on_row_;
    State state_ = State::FieldStart;
    std::string field_;
    std::uint64_t fields_ = 0;
    std::uint64_t rows_ = 0;
    bool row_open_ = false;
    bool eat_lf_ = false;
};

/// Convenience: parse a whole buffer, returning (fields, rows) and
/// accumulating total field bytes (defeats dead-code elimination).
struct CsvCounts {
    std::uint64_t fields = 0;
    std::uint64_t rows = 0;
    std::uint64_t field_bytes = 0;
};
CsvCounts parse_csv(BytesView data);

} // namespace udp::baselines
