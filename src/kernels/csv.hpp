/**
 * @file
 * UDP CSV-parsing kernel (paper Section 5.1, Figure 13).
 *
 * Implements the libcsv parsing FSM with multi-way dispatch (one 8-bit
 * dispatch per input byte; majority arcs cover the "regular character"
 * bulk), and uses the loop-copy action at field boundaries to copy the
 * field span into the output region of the lane's memory window - the
 * paper's "loop-copy action for efficient field copy".
 *
 * Memory plan (per lane window, restricted addressing):
 *   [0, input_size)        staged input bytes
 *   [out_base, ...)        extracted fields, each terminated by '\n',
 *                          rows separated by an extra 0x1E byte
 * Registers: r4 = field start, r5 = output cursor, r7 = field count,
 * r8 = row count, r10 = input base (0), r6 = scratch length.
 *
 * Quoted fields are copied as their raw inner span ("" escapes are kept
 * verbatim; unescaping would be a per-byte action chain, which the
 * paper's rate figures exclude as well).
 */
#pragma once

#include "core/machine.hpp"
#include "core/program.hpp"
#include "runtime/kernel_spec.hpp"

#include <string_view>

namespace udp::kernels {

/// Output area offset within the lane window.  The kernel uses a
/// two-bank (32 KiB) window per lane - input in the first bank, field
/// output in the second - trading lane parallelism for memory exactly as
/// the paper's flexible addressing allows (Section 3.2.4, Section 5.2).
inline constexpr ByteAddr kCsvOutBase = 16 * 1024;
inline constexpr std::size_t kCsvWindowBytes = 32 * 1024;

/// Build the CSV parsing program.
Program csv_parser_program();

/// Result of running the kernel on one buffer.
struct CsvKernelResult {
    std::uint64_t fields = 0;
    std::uint64_t rows = 0;
    Bytes field_stream;   ///< '\n'-terminated fields, 0x1E row marks
    LaneStats stats;
};

/**
 * Runtime description of the kernel (docs/RUNTIME.md): two-bank window,
 * input staged at offset 0, fields extracted from [kCsvOutBase, rOut).
 * One chunk of CSV text (split on row boundaries) per job.
 */
runtime::KernelSpec csv_kernel_spec();

/// The field stream of a runtime JobResult, viewed in place: valid
/// while `r` keeps its extract.  Throws UdpError when the parser
/// rejected the input or the job did not complete.
std::string_view csv_field_stream(const runtime::JobResult &r);

/// Unpack counters and a copy of the field stream from a runtime
/// JobResult (throws as csv_field_stream does).
CsvKernelResult decode_csv_result(const runtime::JobResult &r);

/**
 * Convenience single-lane harness: stages `data` into the lane window,
 * runs, and unpacks counters (used by tests and benches).
 */
CsvKernelResult run_csv_kernel(Machine &m, unsigned lane, BytesView data,
                               ByteAddr window_base);

} // namespace udp::kernels
