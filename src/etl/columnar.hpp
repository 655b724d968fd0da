/**
 * @file
 * A miniature columnar store: the load target of the Figure 1 ETL study
 * (standing in for PostgreSQL's heap + the columnar formats of Section
 * 2.1).  Typed columns with dictionary encoding for strings; the loader
 * deserializes CSV fields into these columns.
 */
#pragma once

#include "baselines/dictionary.hpp"
#include "core/types.hpp"

#include <string>
#include <string_view>
#include <vector>

namespace udp::etl {

/// Column types of the mini store.
enum class ColType { Int64, Double, Date, Text };

/// Days since 1970-01-01 (date deserialization target).
using DateDays = std::int32_t;

/// One typed column.
struct Column {
    std::string name;
    ColType type = ColType::Text;
    std::vector<std::int64_t> ints;      ///< Int64 / Date storage
    std::vector<double> doubles;
    baselines::Dictionary dict;          ///< Text: dictionary
    std::vector<std::uint32_t> codes;    ///< Text: dictionary codes

    std::size_t size() const;
    /// Approximate in-memory bytes (for stats / Fig 1 accounting).
    std::size_t bytes() const;
};

/// A loaded table.
class Table
{
  public:
    Table(std::string name, std::vector<std::pair<std::string, ColType>>
                                schema);

    const std::string &name() const { return name_; }
    std::size_t num_rows() const { return rows_; }
    std::size_t num_cols() const { return cols_.size(); }
    const Column &col(std::size_t i) const { return cols_.at(i); }

    /// Deserialize and append one row of raw CSV fields.
    /// Throws UdpError on a malformed field (the "validation" step).
    void append_raw(const std::vector<std::string> &fields);

    /**
     * Deserialize and append every complete row of a field stream (the
     * CSV kernel's extract, and what load_cpu's parser writes):
     * '\n'-terminated fields, a 0x1E mark after each row.  Returns the
     * bytes consumed, up to and including the last row mark; an
     * unfinished tail is left for the caller to join with the stream
     * that continues it.  Validates as append_raw does, a row when its
     * mark arrives.  Reads each byte once.
     */
    std::size_t append_field_stream(std::string_view stream);

    std::size_t bytes() const;

  private:
    /// The typed append shared by append_raw and append_field_stream:
    /// `field(i)` is column i's raw text, arity already checked.
    template <typename FieldAt> void append_fields(FieldAt field);

    std::string name_;
    std::vector<Column> cols_;
    std::size_t rows_ = 0;
};

/// Deserialization helpers (exposed for tests and the loader).
std::int64_t parse_int64(std::string_view s);
double parse_double(std::string_view s);
/// "YYYY-MM-DD" or "MM/DD/YYYY[ hh:mm:ss]" to days since epoch; throws
/// UdpError on any other shape, trailing bytes or an impossible date.
DateDays parse_date(std::string_view s);

} // namespace udp::etl
