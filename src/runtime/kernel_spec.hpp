/**
 * @file
 * KernelSpec: a kernel's reusable description of how to turn input bytes
 * into a JobPlan.
 *
 * Each kernel states once — program, window footprint, per-job input
 * cap, static register initialization, and a `prepare` hook for
 * input-dependent staging/extraction — and every harness (tests,
 * benches, the ETL loader, the wave Scheduler) derives its jobs from
 * that single description via `make_job` or `chunk_jobs`.
 */
#pragma once

#include "runtime/job.hpp"

#include <functional>

namespace udp::runtime {

/// How one kernel maps input bytes onto lane jobs.
struct KernelSpec {
    std::string name;
    std::shared_ptr<const Program> program;
    std::size_t window_bytes = kBankBytes;
    std::size_t max_input_bytes = 0; ///< per-job input cap (0 = none)
    bool nfa_mode = false;
    std::vector<std::pair<unsigned, Word>> init_regs;

    /// Input-dependent setup, run after the plan's input is set: push
    /// MemStage / MemExtract entries, add input-derived init registers.
    std::function<void(JobPlan &)> prepare;

    /// Build one job over `input` (throws when the cap is exceeded).
    /// Takes an ArenaSlice — a pinned view, cheap to pass by value.
    /// `Bytes` still converts implicitly (a private single-job arena is
    /// materialized from it), but multi-job call sites should build one
    /// arena and slice it: the bytes are then never copied at all.
    JobPlan make_job(ArenaSlice input) const;
};

/**
 * Chunk-boundary adjuster: given the whole input and a tentative chunk
 * [begin, end), return a new end in (begin, end] that is a legal split
 * point.  Returning `begin` means no legal split exists (error).
 */
using ChunkAlign =
    std::function<std::size_t(BytesView data, std::size_t begin,
                              std::size_t end)>;

/// ChunkAlign that shrinks `end` to just past the last `delim` byte.
ChunkAlign align_after_delim(std::uint8_t delim);

/**
 * The split rule of chunk_jobs: the end of the chunk that starts at
 * `begin` of `data`.  A chunk holds at most `chunk_bytes` (clamped to
 * the spec's per-job cap), and one that stops short of the input's end
 * is aligned with `align` when given.  `data` may be a prefix of the
 * input, ending it only when `at_end`: a prefix settles the chunk once
 * more than `chunk_bytes` follow `begin`, and until then this returns
 * `begin`.  A caller that receives the input in pieces therefore cuts
 * the chunks chunk_jobs cuts from the whole.  Throws UdpError on a zero
 * `chunk_bytes` and when `align` finds no legal split.
 */
std::size_t chunk_end(const KernelSpec &spec, BytesView data,
                      std::size_t begin, std::size_t chunk_bytes,
                      const ChunkAlign &align, bool at_end = true);

/**
 * Split `input` into jobs of at most `chunk_bytes` each (clamped to the
 * spec's per-job cap), aligning every split with `align` when given
 * (chunk_end).  Chunks cover the input exactly, in order.
 *
 * Zero-copy: every chunk is a sub-slice pinning `input`'s arena — no
 * chunk ever copies payload bytes.  Callers with a view they do not
 * own wrap it first (`ArenaSlice::copy_of` — one copy total — or
 * `ArenaSlice::borrow` when the storage provably outlives the jobs).
 */
std::vector<JobPlan> chunk_jobs(const KernelSpec &spec, ArenaSlice input,
                                std::size_t chunk_bytes,
                                const ChunkAlign &align = nullptr);

/// Non-owning shared_ptr view of a caller-owned program (the caller
/// guarantees the program outlives every job built from it).
std::shared_ptr<const Program> borrow_program(const Program &prog);

} // namespace udp::runtime
