/**
 * @file
 * Execution statistics for lanes and the whole UDP.
 *
 * The cycle model (calibrated to the paper's 1 GHz lane, Section 6):
 *   - 1 cycle per multi-way dispatch;
 *   - +1 cycle when the labeled-slot signature check fails and the
 *     auxiliary chain is consulted (majority/default fallback);
 *   - 1 cycle per action; a loop-compare / loop-copy costs
 *     max(1, ceil(n/8)) in all, its own action cycle included (8-byte
 *     lane datapath; n is the match length for loop-compare);
 *   - local-memory accesses add bank-conflict stalls as arbitrated.
 */
#pragma once

#include "types.hpp"

namespace udp {

/**
 * Bytes/second implied by processing `bytes` in `cycles` at the nominal
 * 1 GHz clock (kClockHz).  Shared by LaneStats::rate_mbps() and
 * MachineResult::throughput_mbps() so the clock math lives in one place.
 */
inline double
bytes_per_second(double bytes, Cycles cycles)
{
    if (cycles == 0)
        return 0.0;
    return bytes / (double(cycles) / kClockHz);
}

/// Counters for one lane (reset per run).
struct LaneStats {
    Cycles cycles = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t sig_misses = 0;   ///< aux-chain fallbacks taken
    std::uint64_t actions = 0;
    std::uint64_t mem_reads = 0;    ///< local-memory data references
    std::uint64_t mem_writes = 0;
    std::uint64_t dispatch_reads = 0; ///< transition/action word fetches
    std::uint64_t stall_cycles = 0; ///< bank-conflict stalls
    std::uint64_t stream_bits = 0;  ///< input consumed
    std::uint64_t output_bytes = 0;
    std::uint64_t accepts = 0;

    /// Field-wise equality (the interpreter equivalence contract).
    bool operator==(const LaneStats &) const = default;

    void add(const LaneStats &o) {
        cycles += o.cycles;
        dispatches += o.dispatches;
        sig_misses += o.sig_misses;
        actions += o.actions;
        mem_reads += o.mem_reads;
        mem_writes += o.mem_writes;
        dispatch_reads += o.dispatch_reads;
        stall_cycles += o.stall_cycles;
        stream_bits += o.stream_bits;
        output_bytes += o.output_bytes;
        accepts += o.accepts;
    }

    /// Input bytes consumed.
    double input_bytes() const { return double(stream_bits) / 8.0; }

    /// Single-stream processing rate in MB/s at the nominal clock.
    double rate_mbps() const {
        return bytes_per_second(input_bytes(), cycles) / 1e6;
    }
};

} // namespace udp
