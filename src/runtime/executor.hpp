/**
 * @file
 * Single-job executor: drive one JobPlan on one lane of a Machine.
 *
 * This is the shared bottom half of the runtime: the legacy per-kernel
 * harnesses (`run_csv_kernel`, ...) and the wave Scheduler both funnel
 * through `stage_job` / `harvest_job`, so the staging and extraction
 * rules live in exactly one place.
 */
#pragma once

#include "core/machine.hpp"
#include "runtime/job.hpp"

namespace udp::runtime {

/**
 * Check that a plan can run at all, whatever its program does: it has a
 * program; its window is not empty and fits local memory (the window
 * bounds the lane's addresses); its stages and fixed-length
 * extracts lie inside the window; its `init_regs` and extract `end_reg`
 * indices name scalar registers (< 16); and its input and every stage
 * slice are pinned by a live arena.  Throws UdpError naming the job
 * (and the slice, for a lost pin).  The wave Scheduler checks every
 * plan here before its first wave, and udp_service before it admits a
 * submission.
 */
void validate_plan(const JobPlan &plan);

/**
 * `validate_plan`, then check the window fits local memory at
 * `window_base` and copy the stage slices into it.  Throws UdpError
 * before any byte is read.  `stage_job` and the wave Scheduler both
 * stage through here.
 */
void stage_regions(Machine &m, ByteAddr window_base, const JobPlan &plan);

/**
 * Stage the plan's memory regions (`stage_regions`) and bind the lane:
 * load the program, attach the input, set the window (base and the
 * plan's `window_bytes`, past which an access faults) and initial
 * registers.
 *
 * Lifetime: the lane streams *directly from the plan's arena memory*
 * (no copy), so the arena pinned by `plan.input` must stay alive until
 * the run is harvested.  This is enforced, not assumed: staging runs an
 * arena generation/canary check (`ArenaSlice::check_pinned`) on the
 * input and every stage slice, and `harvest_job` re-checks after the
 * run — a plan (or arena) that died mid-run throws UdpError instead of
 * silently streaming freed memory.
 */
void stage_job(Machine &m, unsigned lane, ByteAddr window_base,
               const JobPlan &plan);

/**
 * Collect the JobResult of a lane that finished running `plan` at
 * `window_base` with terminal status `status`.  Flushes the output
 * bitstream and copies registers, output, accepts and extract regions.
 *
 * When `pool` is non-null the result's output and extract buffers are
 * acquired from it, so a recycled steady state copies into retained
 * capacity instead of allocating per attempt (runtime/arena.hpp).
 * Contents are byte-identical either way.
 *
 * An `end_reg` extract whose cursor lies before its offset or past the
 * window comes back empty, and faults the job: status Faulted with
 * FaultCode::FetchOutOfRange and a detail naming the job and the
 * extract, unless the run had already faulted.
 */
JobResult harvest_job(Machine &m, unsigned lane, ByteAddr window_base,
                      const JobPlan &plan, LaneStatus status,
                      BufferPool *pool = nullptr);

/**
 * Convenience: stage + run + harvest one job on `lane`, without touching
 * any other lane's state (unlike Machine::assign, which resets all
 * lanes).  Used by the legacy single-lane kernel harnesses.
 *
 * Interpreter errors and watchdog expiry do not throw: they surface as
 * `JobResult::status` Faulted / TimedOut with the diagnosis in
 * `JobResult::fault`.  Callers that need a clean completion must check
 * the status (or call `require_done`) — a run cut short by its budget
 * is *not* a success.  The budget is the plan's `max_cycles` when
 * nonzero, as in the Scheduler, else `max_cycles`.
 *
 * Latencies are filled as for a job that never queued: zero queue
 * wait, service and end-to-end both the lane's cycle count.
 */
JobResult run_job_on(Machine &m, unsigned lane, ByteAddr window_base,
                     const JobPlan &plan,
                     std::uint64_t max_cycles = ~std::uint64_t{0});

} // namespace udp::runtime
