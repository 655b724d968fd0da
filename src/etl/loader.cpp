/**
 * @file
 * ETL loader implementation (Figure 1 harness).
 */
#include "loader.hpp"

#include "baselines/csv.hpp"
#include "baselines/snappy.hpp"
#include "kernels/csv.hpp"
#include "kernels/snappy.hpp"
#include "runtime/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <random>
#include <thread>

namespace udp::etl {

namespace {

using Clock = std::chrono::steady_clock;

double
secs_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
put_u32(Bytes &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t
get_u32(BytesView in, std::size_t at)
{
    return Word{in[at]} | (Word{in[at + 1]} << 8) |
           (Word{in[at + 2]} << 16) | (Word{in[at + 3]} << 24);
}

/// Frame size chosen so a decompressed frame fits a UDP lane bank.
constexpr std::size_t kFrameRaw = 12 * 1024;

const char *const kShipModes[] = {"AIR",  "RAIL", "SHIP", "TRUCK",
                                  "MAIL", "FOB",  "REG AIR"};
const char *const kInstruct[] = {"DELIVER IN PERSON", "COLLECT COD",
                                 "TAKE BACK RETURN", "NONE"};

} // namespace

std::string
lineitem_csv(double scale, unsigned seed)
{
    const auto rows =
        static_cast<std::size_t>(scale * double(kRowsPerScale));
    std::mt19937 rng(seed);
    std::string out;
    out.reserve(rows * 120);
    char buf[32];
    for (std::size_t r = 0; r < rows; ++r) {
        out += std::to_string(1 + r / 4);            // orderkey
        out += ',';
        out += std::to_string(1 + rng() % 200000);   // partkey
        out += ',';
        out += std::to_string(1 + rng() % 10000);    // suppkey
        out += ',';
        out += std::to_string(1 + r % 4);            // linenumber
        out += ',';
        out += std::to_string(1 + rng() % 50);       // quantity
        out += ',';
        std::snprintf(buf, sizeof(buf), "%.2f",
                      900.0 + double(rng() % 9500000) / 100.0);
        out += buf;                                  // extendedprice
        out += ',';
        std::snprintf(buf, sizeof(buf), "0.0%u", unsigned(rng() % 10));
        out += buf;                                  // discount
        out += ',';
        std::snprintf(buf, sizeof(buf), "0.0%u", unsigned(rng() % 9));
        out += buf;                                  // tax
        out += ',';
        out += (rng() % 2) ? "N" : ((rng() % 2) ? "R" : "A");
        out += ',';
        out += (rng() % 2) ? "O" : "F";
        out += ',';
        std::snprintf(buf, sizeof(buf), "19%02u-%02u-%02u",
                      unsigned(92 + rng() % 7), unsigned(1 + rng() % 12),
                      unsigned(1 + rng() % 28));
        out += buf;                                  // shipdate
        out += ',';
        std::snprintf(buf, sizeof(buf), "19%02u-%02u-%02u",
                      unsigned(92 + rng() % 7), unsigned(1 + rng() % 12),
                      unsigned(1 + rng() % 28));
        out += buf;                                  // commitdate
        out += ',';
        std::snprintf(buf, sizeof(buf), "19%02u-%02u-%02u",
                      unsigned(92 + rng() % 7), unsigned(1 + rng() % 12),
                      unsigned(1 + rng() % 28));
        out += buf;                                  // receiptdate
        out += ',';
        out += kInstruct[rng() % std::size(kInstruct)];
        out += ',';
        out += kShipModes[rng() % std::size(kShipModes)];
        out += ",carefully packed deliveries nag furiously\n"; // comment
    }
    return out;
}

std::vector<std::pair<std::string, ColType>>
lineitem_schema()
{
    return {
        {"l_orderkey", ColType::Int64},
        {"l_partkey", ColType::Int64},
        {"l_suppkey", ColType::Int64},
        {"l_linenumber", ColType::Int64},
        {"l_quantity", ColType::Int64},
        {"l_extendedprice", ColType::Double},
        {"l_discount", ColType::Double},
        {"l_tax", ColType::Double},
        {"l_returnflag", ColType::Text},
        {"l_linestatus", ColType::Text},
        {"l_shipdate", ColType::Date},
        {"l_commitdate", ColType::Date},
        {"l_receiptdate", ColType::Date},
        {"l_shipinstruct", ColType::Text},
        {"l_shipmode", ColType::Text},
        {"l_comment", ColType::Text},
    };
}

Bytes
compress_for_load(const std::string &csv)
{
    Bytes out;
    std::size_t off = 0;
    while (off < csv.size()) {
        const std::size_t n = std::min(kFrameRaw, csv.size() - off);
        const BytesView chunk(
            reinterpret_cast<const std::uint8_t *>(csv.data()) + off, n);
        const Bytes comp = baselines::snappy_compress(chunk);
        put_u32(out, static_cast<std::uint32_t>(comp.size()));
        put_u32(out, static_cast<std::uint32_t>(n));
        out.insert(out.end(), comp.begin(), comp.end());
        off += n;
    }
    return out;
}

namespace {

/// Iterate frames of the compressed stream.  Throws UdpError, naming
/// the frame's byte offset, when a header or a frame runs past the end.
template <typename Fn>
void
for_frames(BytesView compressed, Fn &&fn)
{
    std::size_t pos = 0;
    while (pos < compressed.size()) {
        if (compressed.size() - pos < 8)
            throw UdpError("etl: truncated frame header at byte " +
                           std::to_string(pos));
        const std::uint32_t clen = get_u32(compressed, pos);
        const std::uint32_t rlen = get_u32(compressed, pos + 4);
        if (clen > compressed.size() - pos - 8)
            throw UdpError("etl: frame at byte " + std::to_string(pos) +
                           " runs past the stream end");
        fn(compressed.subspan(pos + 8, clen), rlen);
        pos += 8 + clen;
    }
}

} // namespace

LoadBreakdown
load_cpu(BytesView compressed, Table &table)
{
    LoadBreakdown bd;
    bd.compressed_bytes = compressed.size();
    bd.io = double(compressed.size()) / kSsdBytesPerSec;

    // The parser writes the CSV kernel's field stream (each field then
    // '\n', a 0x1E mark after each row) into `stream`.  After each frame
    // the table takes every complete row, and the unfinished tail stays
    // at the front of `stream` for the frame that continues it.
    std::string stream;
    std::size_t row = 0; // rows the parser has closed
    baselines::CsvParser parser(
        [&](const char *d, std::size_t n) {
            if (std::any_of(d, d + n,
                            [](char c) { return c == '\n' || c == '\x1E'; }))
                throw UdpError("etl: CSV row " + std::to_string(row + 1) +
                               " has a field holding a line break or "
                               "0x1E, which the field stream cannot carry");
            stream.append(d, n);
            stream += '\n';
        },
        [&] {
            stream += '\x1E';
            ++row;
        });
    const auto timed = [](double &stage, auto &&step) {
        const auto t0 = Clock::now();
        step();
        stage += secs_since(t0);
    };
    const auto deserialize = [&] {
        stream.erase(0, table.append_field_stream(stream));
    };
    for_frames(compressed, [&](BytesView frame, std::uint32_t) {
        Bytes raw;
        timed(bd.decompress,
              [&] { raw = baselines::snappy_decompress(frame); });
        bd.csv_bytes += raw.size();
        timed(bd.parse, [&] { parser.feed(raw); });
        timed(bd.deserialize, deserialize);
    });
    timed(bd.parse, [&] { parser.finish(); });
    timed(bd.deserialize, deserialize);
    bd.rows = table.num_rows();
    return bd;
}

LoadBreakdown
load_udp_offload(Machine &m, BytesView compressed, Table &table,
                 unsigned lanes)
{
    if (lanes == 0 || lanes > 32)
        throw UdpError("load_udp_offload: lanes must be 1..32");
    LoadBreakdown bd;
    bd.compressed_bytes = compressed.size();
    bd.io = double(compressed.size()) / kSsdBytesPerSec;

    runtime::SchedulerOptions opts;
    opts.max_jobs_per_wave = lanes;
    runtime::Scheduler sched(m, opts);

    // --- Stage 1: Snappy decompression on UDP lanes ---------------------
    // One job per compressed frame; the scheduler waves them over the
    // deployed lanes and charges the wave-summed machine time.
    const runtime::KernelSpec dec_spec = kernels::snappy_decompress_spec();
    // One arena over the whole compressed stream; every frame job is a
    // slice of it (the caller's buffer outlives the scheduled run).
    const runtime::ArenaSlice comp_arena =
        runtime::ArenaSlice::borrow(compressed);
    std::vector<runtime::JobPlan> dec_jobs;
    for_frames(compressed, [&](BytesView frame, std::uint32_t) {
        const std::size_t at =
            static_cast<std::size_t>(frame.data() - compressed.data());
        // Strip the varint preamble.
        std::size_t p = 0;
        while (p < frame.size() && (frame[p] & 0x80))
            ++p;
        if (p == frame.size())
            throw UdpError("etl: frame at byte " + std::to_string(at - 8) +
                           " has no complete varint preamble");
        ++p;
        dec_jobs.push_back(
            dec_spec.make_job(comp_arena.subslice(at + p, frame.size() - p)));
    });
    runtime::ScheduleReport dec_rep = sched.run(dec_jobs);
    std::size_t csv_size = 0;
    for (const runtime::JobResult &r : dec_rep.jobs)
        csv_size += kernels::snappy_decompressed(r).size();
    std::string csv;
    csv.reserve(csv_size);
    for (const runtime::JobResult &r : dec_rep.jobs) {
        const BytesView block = kernels::snappy_decompressed(r);
        csv.append(reinterpret_cast<const char *>(block.data()),
                   block.size());
    }
    bd.decompress = double(dec_rep.wall_cycles) / kClockHz;
    bd.csv_bytes = csv.size();
    sched.recycle(std::move(dec_rep));

    // --- Stages 2 and 3: CSV parse on UDP lanes, deserialize on the CPU --
    // Chunk on row boundaries so every lane parses whole rows.  `csv`
    // outlives every scheduled run, so the chunk jobs borrow it through
    // one arena — no per-chunk copies.
    std::vector<runtime::JobPlan> csv_jobs = runtime::chunk_jobs(
        kernels::csv_kernel_spec(),
        runtime::ArenaSlice::borrow(BytesView(
            reinterpret_cast<const std::uint8_t *>(csv.data()),
            csv.size())),
        kFrameRaw, runtime::align_after_delim('\n'));

    // The jobs run as consecutive `lanes`-sized slices.  A CSV window is
    // two banks and lanes <= 32, so each slice is exactly one wave of a
    // single run over all the jobs, and the slices' summed wall clock is
    // that run's.  While slice k+1 simulates, a helper thread
    // deserializes slice k straight from its extracts, in job order, and
    // hands the buffers back to the scheduler's pool.  Only the helper
    // touches `table`, `carry` and `deserialize_s` until it is joined.
    Cycles parse_cycles = 0;
    double deserialize_s = 0;
    std::string carry; // a row the next job's stream continues
    std::exception_ptr helper_error;
    std::thread helper;
    const auto join_helper = [&] {
        if (helper.joinable())
            helper.join();
        if (helper_error)
            std::rethrow_exception(helper_error);
    };
    const auto deserialize = [&](runtime::ScheduleReport &rep) {
        const auto t0 = Clock::now();
        for (const runtime::JobResult &r : rep.jobs) {
            const std::string_view stream = kernels::csv_field_stream(r);
            if (carry.empty()) {
                carry = stream.substr(table.append_field_stream(stream));
            } else {
                carry += stream;
                carry.erase(0, table.append_field_stream(carry));
            }
        }
        sched.recycle(std::move(rep));
        deserialize_s += secs_since(t0);
    };
    try {
        for (auto first = csv_jobs.begin(); first != csv_jobs.end();) {
            const auto last =
                first + std::min<std::ptrdiff_t>(lanes, csv_jobs.end() - first);
            const std::vector<runtime::JobPlan> slice(
                std::make_move_iterator(first), std::make_move_iterator(last));
            first = last;
            runtime::ScheduleReport rep = sched.run(slice);
            parse_cycles += rep.wall_cycles;
            join_helper();
            helper = std::thread([&, rep = std::move(rep)]() mutable {
                try {
                    deserialize(rep);
                } catch (...) {
                    helper_error = std::current_exception();
                }
            });
        }
        join_helper();
    } catch (...) {
        if (helper.joinable())
            helper.join();
        throw;
    }
    bd.parse = double(parse_cycles) / kClockHz;
    bd.deserialize = deserialize_s;
    bd.rows = table.num_rows();
    return bd;
}

} // namespace udp::etl
