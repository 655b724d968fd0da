/**
 * @file
 * Tests for the columnar store and the Figure 1 ETL loaders.
 */
#include "etl/loader.hpp"
#include "kernels/csv.hpp"
#include "kernels/snappy.hpp"
#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <random>

namespace udp {
namespace {

using namespace etl;

/// Column-by-column equality: names, types, values and dictionaries
/// (dictionary order included).
void
expect_same_table(const Table &a, const Table &b)
{
    ASSERT_EQ(a.num_rows(), b.num_rows());
    ASSERT_EQ(a.num_cols(), b.num_cols());
    for (std::size_t c = 0; c < a.num_cols(); ++c) {
        const Column &x = a.col(c), &y = b.col(c);
        EXPECT_EQ(x.name, y.name) << c;
        EXPECT_EQ(x.type, y.type) << c;
        EXPECT_EQ(x.ints, y.ints) << c;
        EXPECT_EQ(x.doubles, y.doubles) << c;
        EXPECT_EQ(x.codes, y.codes) << c;
        EXPECT_EQ(x.dict.values, y.dict.values) << c;
    }
}

/// The field stream the CSV kernel extracts for `rows`.
std::string
field_stream(const std::vector<std::vector<std::string>> &rows)
{
    std::string s;
    for (const auto &row : rows) {
        for (const auto &f : row)
            s += f + '\n';
        s += '\x1E';
    }
    return s;
}

TEST(Columnar, TypedAppendAndStats)
{
    Table t("t", {{"a", ColType::Int64},
                  {"b", ColType::Double},
                  {"c", ColType::Text},
                  {"d", ColType::Date}});
    t.append_raw({"42", "3.5", "hello", "01/15/2016"});
    t.append_raw({"-7", "0.25", "hello", "2016-01-15"});
    EXPECT_EQ(t.num_rows(), 2u);
    EXPECT_EQ(t.col(0).ints[1], -7);
    EXPECT_DOUBLE_EQ(t.col(1).doubles[0], 3.5);
    EXPECT_EQ(t.col(2).dict.size(), 1u); // dictionary-shared "hello"
    EXPECT_EQ(t.col(3).ints[0], t.col(3).ints[1]); // same date
    EXPECT_GT(t.bytes(), 0u);
}

TEST(Columnar, DeserializationValidates)
{
    Table t("t", {{"a", ColType::Int64}});
    EXPECT_THROW(t.append_raw({"12x"}), UdpError);
    EXPECT_THROW(t.append_raw({""}), UdpError);
    EXPECT_THROW(t.append_raw({"1", "2"}), UdpError);
    Table d("d", {{"a", ColType::Date}});
    EXPECT_THROW(d.append_raw({"13/40/2016"}), UdpError);
    EXPECT_THROW(d.append_raw({"not a date"}), UdpError);
}

TEST(Columnar, FieldStreamMatchesAppendRaw)
{
    const std::vector<std::pair<std::string, ColType>> schema = {
        {"i", ColType::Int64}, {"d", ColType::Double},
        {"t", ColType::Date},  {"s", ColType::Text},
        {"u", ColType::Text}};
    const char *const words[] = {"", "alpha", "beta", "", "gamma"};
    std::mt19937 rng(7);
    std::vector<std::vector<std::string>> rows;
    for (int r = 0; r < 500; ++r) {
        char date[16];
        const unsigned y = 1990 + rng() % 30, mo = 1 + rng() % 12,
                       d = 1 + rng() % 28;
        if (rng() % 2)
            std::snprintf(date, sizeof(date), "%04u-%02u-%02u", y, mo, d);
        else
            std::snprintf(date, sizeof(date), "%02u/%02u/%04u", mo, d, y);
        rows.push_back({std::to_string(int(rng() % 2000000) - 1000000),
                        std::to_string(double(rng() % 100000) / 64.0),
                        date, words[rng() % std::size(words)],
                        "w" + std::to_string(rng() % 7)});
    }
    Table raw("t", schema);
    for (const auto &row : rows)
        raw.append_raw(row);
    const std::string stream = field_stream(rows);
    Table streamed("t", schema);
    EXPECT_EQ(streamed.append_field_stream(stream), stream.size());
    expect_same_table(streamed, raw);

    // An unfinished last row is left for the stream that continues it.
    Table part("t", schema);
    const std::string head = field_stream({rows[0], rows[1]});
    EXPECT_EQ(part.append_field_stream(head + "1\n2.5\n"), head.size());
    EXPECT_EQ(part.num_rows(), 2u);
    EXPECT_EQ(part.append_field_stream("1\n2.5"), 0u);
    EXPECT_EQ(part.num_rows(), 2u);

    // Arity and field checks still apply, as in append_raw.
    auto short_row = rows[0];
    short_row.pop_back();
    auto long_row = rows[0];
    long_row.push_back("extra");
    auto bad_int = rows[0];
    bad_int[0] = "12x";
    for (const auto &row : {short_row, long_row, bad_int}) {
        Table t("t", schema);
        EXPECT_THROW(t.append_raw(row), UdpError);
        EXPECT_THROW(t.append_field_stream(field_stream({row})), UdpError);
    }
    EXPECT_THROW(raw.append_field_stream("1\x1E"), UdpError);
}

TEST(Columnar, DateArithmetic)
{
    EXPECT_EQ(parse_date("1970-01-01"), 0);
    EXPECT_EQ(parse_date("1970-01-02"), 1);
    EXPECT_EQ(parse_date("01/01/1971"), 365);
    EXPECT_EQ(parse_date("1996-02-29"), parse_date("02/29/1996"));
}

TEST(Columnar, ParseDateRefusesImpossibleDatesAndTrailingBytes)
{
    // Both forms check the day against its month, leap years included.
    EXPECT_THROW(parse_date("1995-02-30"), UdpError); // was 1995-03-02
    EXPECT_THROW(parse_date("1995-04-31"), UdpError); // was 1995-05-01
    EXPECT_THROW(parse_date("02/31/1995"), UdpError);
    EXPECT_THROW(parse_date("1995-02-29"), UdpError);
    EXPECT_THROW(parse_date("1900-02-29"), UdpError);
    EXPECT_EQ(parse_date("2000-02-29"), parse_date("02/29/2000"));
    EXPECT_EQ(parse_date("1995-04-30") + 1, parse_date("1995-05-01"));
    // An ISO date is exactly 10 bytes; a US date may carry only a
    // Crimes-style " hh:mm:ss".
    EXPECT_THROW(parse_date("1995-01-01junk"), UdpError);
    EXPECT_THROW(parse_date("1995-01-01 00:00:00"), UdpError);
    EXPECT_THROW(parse_date("01/01/1995junk"), UdpError);
    EXPECT_THROW(parse_date("01/01/1995 12:00"), UdpError);
    EXPECT_THROW(parse_date("01/01/1995 24:00:00"), UdpError);
    EXPECT_THROW(parse_date("01/01/1995 12:00:00 PM"), UdpError);
    EXPECT_EQ(parse_date("01/01/1995 23:59:59"), parse_date("1995-01-01"));
}

TEST(EtlLoad, CpuPipelineLoadsLineitem)
{
    const std::string csv = lineitem_csv(0.05); // 300 rows
    const Bytes comp = compress_for_load(csv);
    EXPECT_LT(comp.size(), csv.size()); // compresses

    Table t("lineitem", lineitem_schema());
    const LoadBreakdown bd = load_cpu(comp, t);
    EXPECT_EQ(t.num_rows(), 300u);
    EXPECT_EQ(bd.rows, 300u);
    EXPECT_EQ(bd.csv_bytes, csv.size());
    EXPECT_GT(bd.cpu_seconds(), 0.0);
    // The paper's Fig 1b point: CPU time dwarfs modeled SSD time.
    EXPECT_GT(bd.cpu_seconds(), bd.io);
}

/// CSV jobs of the offload's parse stage over `csv` (12 KiB chunks on
/// row boundaries, as the loader cuts them).
std::vector<runtime::JobPlan>
csv_jobs(const std::string &csv)
{
    return runtime::chunk_jobs(
        kernels::csv_kernel_spec(),
        runtime::ArenaSlice::borrow(BytesView(
            reinterpret_cast<const std::uint8_t *>(csv.data()),
            csv.size())),
        12 * 1024, runtime::align_after_delim('\n'));
}

TEST(EtlLoad, UdpOffloadProducesIdenticalTable)
{
    const std::string csv = lineitem_csv(0.25);
    const Bytes comp = compress_for_load(csv);
    const std::size_t jobs = csv_jobs(csv).size();

    Table cpu_t("lineitem", lineitem_schema());
    load_cpu(comp, cpu_t);

    Machine m(AddressingMode::Restricted);
    for (const unsigned lanes : {1u, 3u, 8u, 32u}) {
        SCOPED_TRACE(lanes);
        if (lanes > 1) {
            EXPECT_NE(jobs % lanes, 0u); // the last slice is partial
        }
        Table udp_t("lineitem", lineitem_schema());
        const LoadBreakdown bd = load_udp_offload(m, comp, udp_t, lanes);
        expect_same_table(udp_t, cpu_t);
        EXPECT_EQ(bd.rows, cpu_t.num_rows());
        EXPECT_EQ(bd.csv_bytes, csv.size());
        EXPECT_GT(bd.decompress, 0.0);
        EXPECT_GT(bd.parse, 0.0);
        EXPECT_GT(bd.deserialize, 0.0);
    }
}

TEST(EtlLoad, SlicedParseMatchesOneSchedule)
{
    // The offload runs the CSV jobs one wave-sized slice at a time; the
    // summed machine time must be one Scheduler::run's over them all.
    const std::string csv = lineitem_csv(0.3);
    const Bytes comp = compress_for_load(csv);
    const auto parse_jobs = csv_jobs(csv);
    // The decompress stage's jobs: one per frame (u32 compressed
    // length, u32 raw length, then a Snappy block past its varint).
    std::vector<runtime::JobPlan> dec_jobs;
    const auto arena = runtime::ArenaSlice::borrow(comp);
    for (std::size_t pos = 0; pos < comp.size();) {
        const std::size_t clen = comp[pos] | (comp[pos + 1] << 8) |
                                 (comp[pos + 2] << 16) |
                                 (std::size_t{comp[pos + 3]} << 24);
        std::size_t p = pos + 8;
        while (comp[p] & 0x80)
            ++p;
        ++p;
        dec_jobs.push_back(kernels::snappy_decompress_spec().make_job(
            arena.subslice(p, clen - (p - pos - 8))));
        pos += 8 + clen;
    }

    Machine m(AddressingMode::Restricted);
    for (const unsigned lanes : {3u, 32u}) {
        SCOPED_TRACE(lanes);
        runtime::SchedulerOptions o;
        o.max_jobs_per_wave = lanes;
        runtime::Scheduler sched(m, o);
        const Cycles dec = sched.run(dec_jobs).wall_cycles;
        const Cycles parse = sched.run(parse_jobs).wall_cycles;
        Table t("lineitem", lineitem_schema());
        const LoadBreakdown bd = load_udp_offload(m, comp, t, lanes);
        EXPECT_EQ(bd.decompress, double(dec) / kClockHz);
        EXPECT_EQ(bd.parse, double(parse) / kClockHz);
    }
}

TEST(EtlLoad, BadFieldInALateWaveThrows)
{
    // A malformed integer fails the load on either side of the overlap:
    // in the last slice, and in the first one while the next simulates.
    const std::string good = lineitem_csv(0.3);
    const std::size_t last_row = good.rfind('\n', good.size() - 2) + 1;
    for (const std::size_t at : {last_row, std::size_t{0}}) {
        SCOPED_TRACE(at);
        std::string csv = good;
        csv[at] = 'x'; // l_orderkey
        const Bytes comp = compress_for_load(csv);
        Table cpu_t("lineitem", lineitem_schema());
        EXPECT_THROW(load_cpu(comp, cpu_t), UdpError);
        Machine m(AddressingMode::Restricted);
        for (const unsigned lanes : {3u, 32u}) {
            Table udp_t("lineitem", lineitem_schema());
            EXPECT_THROW(load_udp_offload(m, comp, udp_t, lanes), UdpError);
        }
    }
}

TEST(EtlLoad, TruncatedStreamThrows)
{
    const Bytes comp = compress_for_load(lineitem_csv(0.05));
    const std::vector<Bytes> cuts = {
        Bytes(comp.begin(), comp.begin() + 3),   // inside the first header
        Bytes(comp.begin(), comp.end() - 5),     // inside the last frame
        Bytes{1, 0, 0, 0, 0, 0, 0, 0, 0x80}};    // varint never ends
    // Each error names the byte offset of the frame it stopped at.
    const auto expect_error_at_byte = [](const auto &load) {
        try {
            load();
            ADD_FAILURE() << "no error";
        } catch (const UdpError &e) {
            EXPECT_NE(std::string(e.what()).find("at byte"),
                      std::string::npos)
                << e.what();
        }
    };
    Machine m(AddressingMode::Restricted);
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        SCOPED_TRACE(i);
        Table a("lineitem", lineitem_schema());
        if (i < 2) // the varint is the Snappy decoder's own to read
            expect_error_at_byte([&] { load_cpu(cuts[i], a); });
        else
            EXPECT_THROW(load_cpu(cuts[i], a), UdpError);
        Table b("lineitem", lineitem_schema());
        expect_error_at_byte(
            [&] { load_udp_offload(m, cuts[i], b, 8); });
    }
}

TEST(EtlLoad, LoadersRefuseAFieldHoldingALineBreak)
{
    // A field of the kernel's stream ends at '\n' and a row at 0x1E, so
    // neither can sit inside a field: both loaders refuse the row,
    // load_cpu naming it.
    const std::string good = lineitem_csv(0.1); // 600 rows
    const std::string comment = ",carefully packed deliveries nag furiously\n";
    std::size_t row42 = 0;
    for (int r = 1; r < 42; ++r)
        row42 = good.find('\n', row42) + 1;
    const std::size_t at = good.find(comment, row42);
    ASSERT_LT(at, good.find('\n', row42));
    for (const std::string bad : {",\"carefully packed\ndeliveries\"\n",
                                  ",carefully\x1E" "packed\n"}) {
        SCOPED_TRACE(bad);
        std::string csv = good;
        csv.replace(at, comment.size(), bad);
        const Bytes comp = compress_for_load(csv);
        Table cpu_t("lineitem", lineitem_schema());
        try {
            load_cpu(comp, cpu_t);
            ADD_FAILURE() << "load_cpu loaded the row";
        } catch (const UdpError &e) {
            EXPECT_NE(std::string(e.what()).find("row 42 "),
                      std::string::npos)
                << e.what();
        }
        Machine m(AddressingMode::Restricted);
        Table udp_t("lineitem", lineitem_schema());
        EXPECT_THROW(load_udp_offload(m, comp, udp_t, 8), UdpError);
    }
}

TEST(EtlLoad, LoadersAgreeOnTheLastRow)
{
    // The CSV kernel closes a field only at ',', '\n' or '\r', so the
    // offload ends a text that lacks a line break with one and refuses a
    // row still open after its last slice; load_cpu refuses a quote left
    // open at the end.
    const std::string good = lineitem_csv(0.05); // 300 rows, '\n'-ended
    const std::string bare = good.substr(0, good.size() - 1);
    Machine m(AddressingMode::Restricted);
    for (const std::string &csv : {bare, bare + '\r'}) {
        SCOPED_TRACE(csv.size());
        const Bytes comp = compress_for_load(csv);
        Table cpu_t("lineitem", lineitem_schema());
        EXPECT_EQ(load_cpu(comp, cpu_t).csv_bytes, csv.size());
        EXPECT_EQ(cpu_t.num_rows(), 300u);
        Table udp_t("lineitem", lineitem_schema());
        EXPECT_EQ(load_udp_offload(m, comp, udp_t, 8).csv_bytes, csv.size());
        expect_same_table(udp_t, cpu_t);
    }
    // A trailing comma makes a 17th field; an open quote never closes.
    const std::string open_quote =
        good.substr(0, good.rfind(',') + 1) + "\"carefully packed";
    for (const std::string &csv : {bare + ',', open_quote}) {
        SCOPED_TRACE(csv.substr(csv.size() - 20));
        const Bytes comp = compress_for_load(csv);
        Table cpu_t("lineitem", lineitem_schema());
        EXPECT_THROW(load_cpu(comp, cpu_t), UdpError);
        Table udp_t("lineitem", lineitem_schema());
        EXPECT_THROW(load_udp_offload(m, comp, udp_t, 8), UdpError);
    }
}

TEST(EtlLoad, OffloadScalesWithLanes)
{
    const std::string csv = lineitem_csv(0.1);
    const Bytes comp = compress_for_load(csv);
    Machine m(AddressingMode::Restricted);

    Table t1("l", lineitem_schema());
    const LoadBreakdown b1 = load_udp_offload(m, comp, t1, 1);
    Table t8("l", lineitem_schema());
    const LoadBreakdown b8 = load_udp_offload(m, comp, t8, 8);
    // 8 lanes should cut simulated accelerator time substantially.
    EXPECT_LT(b8.decompress, b1.decompress / 3);
    EXPECT_LT(b8.parse, b1.parse / 3);
}

} // namespace
} // namespace udp
