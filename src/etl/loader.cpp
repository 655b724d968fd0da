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
#include <condition_variable>
#include <exception>
#include <iterator>
#include <mutex>
#include <optional>
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

/// Both loaders' error for a text that ends inside a quoted field.
constexpr const char *kOpenQuote =
    "etl: the CSV text ends inside a quoted field";

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
    if (parser.in_quoted_field())
        throw UdpError(kOpenQuote);
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

    // A frame's Snappy block, past the varint preamble the kernel does
    // not read, as an offset and length in `compressed`.  Every frame is
    // checked before the first wave, so a truncated stream does no work.
    const auto block_of = [&](BytesView frame) {
        const std::size_t at =
            static_cast<std::size_t>(frame.data() - compressed.data());
        std::size_t p = 0;
        while (p < frame.size() && (frame[p] & 0x80))
            ++p;
        if (p == frame.size())
            throw UdpError("etl: frame at byte " + std::to_string(at - 8) +
                           " has no complete varint preamble");
        return std::pair{at + p + 1, frame.size() - p - 1};
    };
    for_frames(compressed,
               [&](BytesView frame, std::uint32_t) { block_of(frame); });

    runtime::SchedulerOptions opts;
    opts.max_jobs_per_wave = lanes;
    runtime::Scheduler sched(m, opts);
    const runtime::KernelSpec dec_spec = kernels::snappy_decompress_spec();
    const runtime::KernelSpec csv_spec = kernels::csv_kernel_spec();
    const runtime::ChunkAlign row_end = runtime::align_after_delim('\n');
    // The frame jobs slice the caller's buffer, which outlives the load.
    const runtime::ArenaSlice comp_arena =
        runtime::ArenaSlice::borrow(compressed);

    // The load streams one wave at a time.  Snappy runs as `lanes`-frame
    // slices and CSV as `lanes`-chunk slices of the same Scheduler; both
    // windows are two banks and lanes <= 32, so each slice is exactly one
    // wave of a single run over all of its stage's jobs, and the summed
    // wall clocks are those runs'.  A Snappy slice's output is appended
    // to `text`, the chunks chunk_jobs would cut are cut from it as soon
    // as they are settled (runtime::chunk_end), and every `lanes` of them
    // run as a CSV slice, after which the text they held is dropped.
    Cycles dec_cycles = 0, parse_cycles = 0;
    double deserialize_s = 0;
    std::vector<runtime::JobPlan> slice; // the next wave's jobs
    std::vector<std::size_t> cuts;       // ends in `text` of cut chunks
    // Decompressed, not yet parsed: under `lanes` cut chunks and an uncut
    // tail of at most a chunk, then one slice's output appended.
    std::string text;
    text.reserve(2 * std::size_t{lanes} * kFrameRaw);
    std::string carry; // a row the next job's stream continues

    // While the lanes simulate, one helper thread deserializes the CSV
    // slice handed to it straight from its extracts, in job order, and
    // hands the buffers back to the scheduler's pool.  A hand-off waits
    // until the helper is idle; until then only the helper touches
    // `table`, `carry` and `deserialize_s`.  One thread serves the whole
    // load so that the table grows in one malloc arena: a helper started
    // per slice sometimes took the arena a simulation worker had just
    // left, and two arenas then each kept a table's freed pages.  The
    // jthread is declared after all it touches; on any exit it finishes
    // the slice it holds, then stops.
    std::optional<runtime::ScheduleReport> handed;
    std::exception_ptr helper_error;
    std::mutex mu;
    std::condition_variable_any cv;
    std::jthread helper([&](std::stop_token stop) {
        std::unique_lock lock(mu);
        while (cv.wait(lock, stop, [&] { return handed.has_value(); })) {
            lock.unlock();
            const auto t0 = Clock::now();
            try {
                for (const runtime::JobResult &r : handed->jobs) {
                    const std::string_view stream =
                        kernels::csv_field_stream(r);
                    if (carry.empty()) {
                        carry =
                            stream.substr(table.append_field_stream(stream));
                    } else {
                        carry += stream;
                        carry.erase(0, table.append_field_stream(carry));
                    }
                }
            } catch (...) {
                helper_error = std::current_exception();
            }
            sched.recycle(std::move(*handed));
            deserialize_s += secs_since(t0);
            lock.lock();
            handed.reset();
            cv.notify_all();
        }
    });
    // Waits until the helper is idle; rethrows its error.
    const auto wait_helper = [&] {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !handed; });
        if (helper_error)
            std::rethrow_exception(helper_error);
    };
    const auto text_bytes = [&] {
        return BytesView(reinterpret_cast<const std::uint8_t *>(text.data()),
                         text.size());
    };
    const auto parse = [&] {
        const runtime::ArenaSlice arena =
            runtime::ArenaSlice::borrow(text_bytes());
        for (std::size_t i = 0, begin = 0; i < cuts.size(); begin = cuts[i++])
            slice.push_back(
                csv_spec.make_job(arena.subslice(begin, cuts[i] - begin)));
        runtime::ScheduleReport rep = sched.run(slice);
        slice.clear();
        parse_cycles += rep.wall_cycles;
        text.erase(0, cuts.back());
        cuts.clear();
        wait_helper();
        {
            std::lock_guard lock(mu);
            handed = std::move(rep);
        }
        cv.notify_all();
    };
    const auto cut = [&](bool at_end) {
        for (;;) {
            const std::size_t begin = cuts.empty() ? 0 : cuts.back();
            const std::size_t end = runtime::chunk_end(
                csv_spec, text_bytes(), begin, kFrameRaw, row_end, at_end);
            if (end == begin)
                return;
            cuts.push_back(end);
            if (cuts.size() == lanes)
                parse();
        }
    };
    const auto decompress = [&] {
        runtime::ScheduleReport rep = sched.run(slice);
        slice.clear();
        dec_cycles += rep.wall_cycles;
        for (const runtime::JobResult &r : rep.jobs) {
            const BytesView block = kernels::snappy_decompressed(r);
            text.append(reinterpret_cast<const char *>(block.data()),
                        block.size());
            bd.csv_bytes += block.size();
        }
        sched.recycle(std::move(rep));
        cut(false);
    };
    for_frames(compressed, [&](BytesView frame, std::uint32_t) {
        const auto [at, n] = block_of(frame);
        slice.push_back(dec_spec.make_job(comp_arena.subslice(at, n)));
        if (slice.size() == lanes)
            decompress();
    });
    if (!slice.empty())
        decompress();
    // The kernel closes a field only at ',', '\n' or '\r', so a last row
    // without a line break gets one.  A cut chunk always leaves text
    // behind it, so the text's last byte is still held.
    if (!text.empty() && text.back() != '\n' && text.back() != '\r')
        text += '\n';
    cut(true);
    if (!cuts.empty())
        parse();
    wait_helper();
    // A '\n'-ended text leaves a row open only inside a quoted field.
    if (!carry.empty())
        throw UdpError(kOpenQuote);
    bd.decompress = double(dec_cycles) / kClockHz;
    bd.parse = double(parse_cycles) / kClockHz;
    bd.deserialize = deserialize_s;
    bd.rows = table.num_rows();
    return bd;
}

} // namespace udp::etl
