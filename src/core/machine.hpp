/**
 * @file
 * The full 64-lane UDP machine (paper Figure 3a) and its run harness.
 *
 * A `Machine` owns the shared local memory and 64 lanes.  Work is
 * described by a `JobSpec` per lane (program, input view, memory
 * window, initial registers).  Two run modes:
 *
 *  - `run_parallel()` — each lane runs to completion independently.  This
 *    is exact for the paper's data-parallel kernels, whose lanes touch
 *    disjoint memory windows (local or restricted addressing); machine
 *    time is the slowest lane.
 *  - `run_lockstep()` — lanes advance one dispatch step per round with a
 *    shared per-round bank arbiter, modeling the "detect and stall"
 *    contention of global/overlapping addressing.
 */
#pragma once

#include "energy.hpp"
#include "lane.hpp"
#include "local_memory.hpp"
#include "program.hpp"
#include "stats.hpp"

#include <memory>
#include <optional>

namespace udp {

/// Work assignment for one lane.
struct JobSpec {
    const Program *program = nullptr; ///< nullptr = lane idle
    /// Stream contents.  Non-owning: the lane's StreamBuffer reads these
    /// bytes in place for the whole run, so the caller keeps the backing
    /// storage alive until the run's results are collected.  The runtime
    /// layer pins this with a ref-counted InputArena and checks the pin
    /// at stage/harvest time (runtime/arena.hpp).
    BytesView input{};
    ByteAddr window_base = 0;         ///< restricted-addressing window
    /// The window's size (Lane::set_window_base): a restricted-mode
    /// access past `window_base + window_bytes` faults, and so does a
    /// Setbase below `window_base` (0: the lane keeps the whole memory).
    std::size_t window_bytes = 0;
    bool nfa_mode = false;            ///< run with multi-state activation
    std::vector<std::pair<unsigned, Word>> init_regs; ///< (reg, value)
    /// Per-lane watchdog budget for run_parallel (the Scheduler's retry
    /// policy grows this).
    std::uint64_t max_cycles = ~std::uint64_t{0};
    /// Forced-trap cycle for deterministic fault injection (0 = off).
    Cycles trap_cycle = 0;
};

/// Result of a machine run.
struct MachineResult {
    Cycles wall_cycles = 0;      ///< max over lanes (+stalls in lockstep)
    LaneStats total;             ///< summed lane counters
    std::vector<LaneStatus> status;
    /// Per-lane trap records, parallel to `status` (code == None for a
    /// healthy lane).  One poisoned lane never takes down the wave: its
    /// fault lands here while the other lanes' results stay intact.
    std::vector<LaneFault> faults;
    unsigned active_lanes = 0;

    /// Lanes whose status is Faulted or TimedOut.
    unsigned faulted_lanes() const {
        unsigned n = 0;
        for (const LaneFault &f : faults)
            n += f.code != FaultCode::None;
        return n;
    }

    /// Aggregate throughput in MB/s at the nominal clock.
    double throughput_mbps() const {
        return bytes_per_second(total.input_bytes(), wall_cycles) / 1e6;
    }
};

/// The 64-lane UDP.
class Machine
{
  public:
    explicit Machine(AddressingMode mode = AddressingMode::Restricted);

    LocalMemory &memory() { return mem_; }
    const LocalMemory &memory() const { return mem_; }
    Lane &lane(unsigned idx);

    /// Stage bytes into local memory at a physical byte address (host /
    /// DLT-engine side, not charged to lane cycles).
    void stage(ByteAddr phys, BytesView data);

    /// Read back a region of local memory.
    Bytes unstage(ByteAddr phys, std::size_t len) const;

    /// Read back a region of local memory into `out`, replacing its
    /// contents but retaining its capacity — the allocation-free path
    /// the runtime's BufferPool recycling uses (runtime/arena.hpp).
    void unstage(ByteAddr phys, std::size_t len, Bytes &out) const;

    /// Assign one job per lane (at most kNumLanes entries).  Every lane
    /// — assigned or idle — is architecturally hard-reset first, so a
    /// batch can never inherit registers, stream position, accepts or
    /// window state from the previous one.
    void assign(std::vector<JobSpec> jobs);

    /**
     * Run all assigned lanes to completion, independently: each through
     * Lane::run (run_nfa in NFA mode) within its JobSpec::max_cycles.
     *
     * One worker loop runs on `resolved_sim_threads()` host threads,
     * the calling thread among them (`set_sim_threads`).  Parallel-mode
     * lanes touch disjoint memory windows, so the result cannot depend
     * on the thread count: LaneStats, wall cycles and energy are
     * bit-identical for any count.  An attached Tracer is safe under
     * threads: every lane records its events and profile only into its
     * own entry (each `tracer_->record*(id_, ...)` site passes the
     * recording lane's id), so worker threads never share one — pinned
     * under TSan in CI by `SpanTrace.TracerIsIdenticalUnderThreadedBackend`
     * (events) and `Runtime.ProfiledRunUsesThreadsAndStaysNeutral`
     * (profile).
     */
    MachineResult run_parallel();

    /**
     * Host threads for run_parallel lane simulation.  0 (the default)
     * resolves from the UDP_SIM_THREADS environment variable, else 1
     * (serial).  Purely a host-performance knob — simulated results do
     * not depend on it.
     */
    void set_sim_threads(unsigned n) { sim_threads_ = n; }

    /// The thread count run_parallel will actually use (>= 1).
    unsigned resolved_sim_threads() const;

    /// Run with per-round shared bank arbitration.
    MachineResult run_lockstep(std::uint64_t max_rounds = ~std::uint64_t{0});

    /// Energy of the last run, in joules (see run_energy_joules).
    double last_run_energy_j() const { return last_energy_j_; }

    /// Attach the lane observer to every lane (nullptr detaches; see
    /// core/trace.hpp).  Costs nothing when detached (the default).
    void set_tracer(Tracer *t);
    Tracer *tracer() const { return tracer_; }

  private:
    MachineResult collect(Cycles wall);

    LocalMemory mem_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::vector<JobSpec> jobs_;
    UdpCostModel cost_;
    unsigned sim_threads_ = 0; ///< 0 = resolve from UDP_SIM_THREADS
    double last_energy_j_ = 0.0;
    Tracer *tracer_ = nullptr;
};

} // namespace udp
