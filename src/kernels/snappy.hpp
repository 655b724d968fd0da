/**
 * @file
 * UDP Snappy kernels (paper Sections 5.6, Figures 19/20 and 11a/11b).
 *
 * Both kernels are "block compatible" with the Snappy format (and with
 * `baselines::snappy_*`).
 *
 * Decompression: the tag byte drives one multi-way dispatch; the symbol
 * value parameterizes a handful of *shared* action blocks (via the
 * latched dispatch symbol), which decode lengths/offsets and use
 * loop-copy for literal and match copies - "multi-way dispatch to deal
 * with complex pattern detection ... efficient hash, loop-compare and
 * loop-copy actions".
 *
 * Compression: a scan state consumes one byte per dispatch and computes
 * hash-table candidate + end-of-input conditions into r0; *flagged*
 * (register) dispatch branches among continue / emit-match / finish,
 * with loop-compare extending matches and loop-copy-to-output emitting
 * literals.  Literals always use the 2-byte length form (valid Snappy,
 * marginally less compact).
 *
 * Memory plan (two-bank 32 KiB window per lane):
 *   decompress: input block at 0, output at kSnapOutBase.
 *   compress:   input block at 0, 4 KiB hash table at kSnapHashBase.
 */
#pragma once

#include "core/machine.hpp"
#include "core/program.hpp"
#include "runtime/kernel_spec.hpp"

namespace udp::kernels {

inline constexpr ByteAddr kSnapOutBase = 16 * 1024;
inline constexpr ByteAddr kSnapHashBase = 16 * 1024;
inline constexpr std::size_t kSnapMaxInput = 16 * 1024 - 8;

/// Build the decompressor (expects the varint header already stripped).
Program snappy_decompress_program();

/// Build the compressor (emits the element stream, no varint header).
Program snappy_compress_program();

/// Harness: decompress `block` (no varint) on one lane; returns output.
struct SnapKernelResult {
    Bytes data;
    LaneStats stats;
};
SnapKernelResult run_snappy_decompress(Machine &m, unsigned lane,
                                       const Program &prog,
                                       BytesView block,
                                       ByteAddr window_base);

/// Harness: compress `input` on one lane; returns a full Snappy stream
/// (varint header + elements) decodable by baselines::snappy_decompress.
SnapKernelResult run_snappy_compress(Machine &m, unsigned lane,
                                     const Program &prog, BytesView input,
                                     ByteAddr window_base);

/**
 * Runtime descriptions (docs/RUNTIME.md): two-bank windows; one Snappy
 * block per job.  Decompress expects the varint header already stripped;
 * compress wants 8..kSnapMaxInput raw bytes.
 */
runtime::KernelSpec snappy_decompress_spec();
runtime::KernelSpec snappy_compress_spec();

/// The decompressed block of a runtime JobResult, viewed in place:
/// valid while `r` keeps its extract.  Throws UdpError on a bad element
/// stream or a job that did not complete.
BytesView snappy_decompressed(const runtime::JobResult &r);

/// Unpack a copy of the decompressed block from a runtime JobResult
/// (throws as snappy_decompressed does).
SnapKernelResult decode_snappy_decompress_result(
    const runtime::JobResult &r);

/// Unpack a full Snappy stream (varint header re-attached).
SnapKernelResult decode_snappy_compress_result(const runtime::JobResult &r);

} // namespace udp::kernels
