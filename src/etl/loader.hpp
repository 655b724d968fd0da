/**
 * @file
 * The Figure 1 ETL-load study: decompress -> parse -> tokenize ->
 * deserialize a compressed CSV into the mini columnar store, with an
 * SSD I/O model, per-stage timing, and an optional UDP offload of the
 * accelerable stages.
 *
 * Substitutions vs the paper (DESIGN.md §4): PostgreSQL -> mini columnar
 * store; gzip -> Snappy (same decompress-parse-deserialize pipeline
 * structure); TPC-H dbgen -> a lineitem-like generator; absolute times
 * therefore shift, but the paper's point - CPU transformation dwarfs
 * I/O, and decompression+parsing dominate - is what the harness checks.
 */
#pragma once

#include "columnar.hpp"
#include "core/machine.hpp"

#include <chrono>

namespace udp::etl {

/// A TPC-H-like lineitem table (16 columns).  `scale` mirrors the TPC-H
/// scale factor, downscaled: rows = scale * kRowsPerScale.
inline constexpr std::size_t kRowsPerScale = 6000; // 1/1000 of TPC-H

/// Generate the CSV text of lineitem at `scale` (deterministic).
std::string lineitem_csv(double scale, unsigned seed = 20);

/// The lineitem schema for the mini store.
std::vector<std::pair<std::string, ColType>> lineitem_schema();

/// Per-stage wall-clock breakdown, in seconds.
struct LoadBreakdown {
    double io = 0;          ///< modeled SSD read time
    double decompress = 0;
    double parse = 0;       ///< CSV parse + tokenize
    /// Typed conversion + dictionary + insert.  In load_udp_offload this
    /// is the deserialize helper's busy time, which overlaps the lanes'
    /// simulation: it is CPU work, not a share of the load's wall time.
    double deserialize = 0;
    std::size_t csv_bytes = 0;
    std::size_t compressed_bytes = 0;
    std::size_t rows = 0;

    double cpu_seconds() const {
        return decompress + parse + deserialize;
    }
    double total_seconds() const { return io + cpu_seconds(); }
};

/// SSD read bandwidth of the I/O model (250 GB-class SATA SSD, Fig 1).
inline constexpr double kSsdBytesPerSec = 500.0e6;

/**
 * CPU-only load (Fig 1a/1b): Snappy-decompress `compressed`, parse the
 * CSV, deserialize into `table`.  It streams one frame at a time: the
 * frame is decompressed, a CSV parser writes its fields in the CSV
 * kernel's field-stream format (each field then '\n', a 0x1E mark after
 * each row), and Table::append_field_stream takes every complete row,
 * the deserializer load_udp_offload uses.  The whole CSV text is never
 * held.  Stage times are measured wall-clock and summed over the
 * frames; `io` is modeled from the compressed size.
 *
 * A field holding '\n' or 0x1E, which the field stream cannot carry,
 * throws UdpError naming its row; load_udp_offload refuses such a row
 * too.  A truncated stream, a malformed field or a quoted field left
 * open at the end of the text throws UdpError as well.  After a throw
 * `table` holds the rows deserialized before the error, a prefix of the
 * input's, and a row that failed deserializing may have filled its
 * first columns; discard it.
 */
LoadBreakdown load_cpu(BytesView compressed, Table &table);

/**
 * UDP-offloaded load: decompression and parse/tokenize run on simulated
 * UDP lanes (cycles at 1 GHz), deserialize stays on the CPU.  Returns
 * the same breakdown with offloaded stage times replaced by simulated
 * accelerator time.
 *
 * The load streams one wave at a time.  Each wave decompresses `lanes`
 * frames and appends their text to a window; the CSV chunks that
 * runtime::chunk_jobs would cut from the whole text are cut from the
 * window as soon as it settles them (runtime::chunk_end), every `lanes`
 * of them parse as one wave, and the text they held is dropped.  One
 * helper thread deserializes each CSV wave's field streams in place
 * while the next wave simulates.  Rows land in order, so the table is
 * the one a serial load builds, and `decompress` and `parse` are the
 * wall clocks of one Scheduler::run over each stage's jobs.  The working
 * memory above the table is a few waves whatever the input's size: at
 * most two waves of text and three of lane buffers (1.6-2.0 MB at 32
 * lanes, 0.5-0.7 MB at 8).
 *
 * A text that lacks a final line break gets one, as load_cpu's parser
 * ends its last row; a row still open after the last wave (a quoted
 * field left open) throws UdpError.  Every frame's header and preamble
 * are checked before the first wave, so a truncated stream throws,
 * naming the frame's byte offset, before any work.  A rejected or
 * incomplete job, a malformed field and a 12 KiB run of text with no
 * line break throw UdpError too, once the helper has stopped.  After a
 * throw `table` holds the rows of the waves deserialized before the
 * error, a prefix of the input's, and a row that failed deserializing
 * may have filled its first columns; discard it.
 */
LoadBreakdown load_udp_offload(Machine &m, BytesView compressed,
                               Table &table, unsigned lanes = 32);

/// Compress a CSV text for the loaders (Snappy, 12 KiB frames so each
/// decompressed frame fits a UDP lane bank).
Bytes compress_for_load(const std::string &csv);

} // namespace udp::etl
