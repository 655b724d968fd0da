/**
 * @file
 * Machine implementation: job assignment and the two run harnesses.
 */
#include "machine.hpp"

#include "profile.hpp"
#include "threaded_program.hpp"
#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

namespace udp {

Machine::Machine(AddressingMode mode) : mem_(mode)
{
    lanes_.reserve(kNumLanes);
    for (unsigned i = 0; i < kNumLanes; ++i)
        lanes_.push_back(std::make_unique<Lane>(i, mem_));
}

Lane &
Machine::lane(unsigned idx)
{
    if (idx >= lanes_.size())
        throw UdpError("Machine: lane index out of range");
    return *lanes_[idx];
}

void
Machine::set_tracer(Tracer *t)
{
    tracer_ = t;
    for (auto &ln : lanes_)
        ln->set_tracer(t);
}

void
Machine::set_profiler(Profiler *p)
{
    profiler_ = p;
    for (auto &ln : lanes_)
        ln->set_profiler(p);
}

void
Machine::stage(ByteAddr phys, BytesView data)
{
    if (std::uint64_t{phys} + data.size() > mem_.raw().size())
        throw UdpError("Machine: stage outside local memory");
    std::copy(data.begin(), data.end(), mem_.raw().begin() + phys);
}

Bytes
Machine::unstage(ByteAddr phys, std::size_t len) const
{
    Bytes out;
    unstage(phys, len, out);
    return out;
}

void
Machine::unstage(ByteAddr phys, std::size_t len, Bytes &out) const
{
    if (std::uint64_t{phys} + len > mem_.raw().size())
        throw UdpError("Machine: unstage outside local memory");
    out.assign(mem_.raw().begin() + phys, mem_.raw().begin() + phys + len);
}

unsigned
Machine::resolved_sim_threads() const
{
    // The Profiler aggregates into maps shared by all lanes, so a
    // profiled run is pinned to the serial backend (docs/RUNTIME.md);
    // the Tracer's per-lane rings need no such fallback.
    if (profiler_)
        return 1;
    unsigned n = sim_threads_;
    if (n == 0) {
        if (const char *env = std::getenv("UDP_SIM_THREADS")) {
            const long v = std::strtol(env, nullptr, 10);
            if (v > 0)
                n = static_cast<unsigned>(std::min<long>(v, 256));
        }
    }
    return n ? n : 1;
}

void
Machine::assign(std::vector<JobSpec> jobs)
{
    if (jobs.size() > kNumLanes)
        throw UdpError("Machine: more jobs than lanes");
    jobs_ = std::move(jobs);
    // A batch starts from architectural reset on every lane, including
    // idle ones: wave N+1 must not observe wave N's registers, stream
    // position, accepts or window bases.
    for (auto &ln : lanes_)
        ln->hard_reset();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const JobSpec &j = jobs_[i];
        if (!j.program)
            continue;
        Lane &ln = *lanes_[i];
        ln.load(*j.program);
        ln.set_input(j.input);
        ln.set_window_base(j.window_base);
        ln.set_forced_trap(j.trap_cycle);
        for (const auto &[r, v] : j.init_regs)
            ln.set_reg(r, v);
    }
}

MachineResult
Machine::collect(Cycles wall)
{
    MachineResult res;
    res.wall_cycles = wall;
    res.status.resize(jobs_.size(), LaneStatus::Done);
    res.faults.resize(jobs_.size());
    AddressingMode mode = mem_.mode();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (!jobs_[i].program)
            continue;
        res.total.add(lanes_[i]->stats());
        res.faults[i] = lanes_[i]->fault();
        ++res.active_lanes;
    }
    last_energy_j_ = run_energy_joules(cost_, res.total, wall,
                                       res.active_lanes, mode);
    return res;
}

MachineResult
Machine::run_parallel(std::uint64_t max_cycles_per_lane)
{
    std::vector<LaneStatus> status(jobs_.size(), LaneStatus::Done);
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (!jobs_[i].program)
            continue;
        lanes_[i]->set_arbiter(nullptr); // disjoint windows: no contention
        runnable.push_back(i);
    }

    auto run_lane = [&](std::size_t i) {
        Lane &ln = *lanes_[i];
        const std::uint64_t budget =
            std::min(max_cycles_per_lane, jobs_[i].max_cycles);
        status[i] = jobs_[i].nfa_mode ? ln.run_nfa(budget)
                                      : ln.run(budget);
    };

    unsigned threads = resolved_sim_threads();
    threads = std::min<unsigned>(
        threads, static_cast<unsigned>(std::max<std::size_t>(
                     runnable.size(), 1)));
    if (threads <= 1) {
        // Batch the block-eligible lanes (on the threaded engine, DFA
        // mode) through the struct-of-arrays runner; everything else
        // runs per-lane.
        LaneBlock blk;
        std::vector<std::size_t> rest;
        for (const std::size_t i : runnable) {
            Lane &ln = *lanes_[i];
            if (!jobs_[i].nfa_mode && ln.fast_path()) {
                blk.add(&ln, static_cast<std::uint32_t>(i),
                        std::min(max_cycles_per_lane,
                                 jobs_[i].max_cycles),
                        ln.forced_trap_cycle());
            } else {
                rest.push_back(i);
            }
        }
        if (blk.size() != 0)
            ThreadedEngine::run_block(blk);
        for (std::size_t k = 0; k < blk.size(); ++k)
            status[blk.slot[k]] = blk.status[k];
        for (const std::size_t i : rest)
            run_lane(i);
    } else {
        // Lanes are trace-independent and their windows disjoint, so
        // any work distribution yields bit-identical per-lane results.
        // Interpreter faults never unwind out of Lane::run — they land
        // in the per-lane fault record — so an exception here is a
        // host-side bug; it is rethrown lowest-lane-first.
        std::atomic<std::size_t> next{0};
        std::vector<std::exception_ptr> errors(runnable.size());
        {
            std::vector<std::jthread> pool;
            pool.reserve(threads);
            for (unsigned t = 0; t < threads; ++t)
                pool.emplace_back([&] {
                    for (;;) {
                        const std::size_t k =
                            next.fetch_add(1, std::memory_order_relaxed);
                        if (k >= runnable.size())
                            return;
                        try {
                            run_lane(runnable[k]);
                        } catch (...) {
                            errors[k] = std::current_exception();
                        }
                    }
                });
        }
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
    }

    Cycles wall = 0;
    for (const std::size_t i : runnable)
        wall = std::max(wall, lanes_[i]->stats().cycles);
    MachineResult res = collect(wall);
    res.status = std::move(status);
    return res;
}

MachineResult
Machine::run_lockstep(std::uint64_t max_rounds)
{
    BankArbiter arbiter;
    std::vector<bool> done(jobs_.size(), true);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (!jobs_[i].program)
            continue;
        if (jobs_[i].nfa_mode)
            throw UdpError("Machine: lockstep NFA mode is unsupported");
        done[i] = false;
        lanes_[i]->set_arbiter(
            [&arbiter](unsigned bank, bool is_write) {
                return arbiter.request(bank, is_write);
            });
    }

    std::vector<LaneStatus> status(jobs_.size(), LaneStatus::Done);
    std::uint64_t rounds = 0;
    bool any = true;
    while (any && rounds < max_rounds) {
        any = false;
        arbiter.begin_cycle();
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            if (done[i])
                continue;
            // step_once carries the next state's compiled index between
            // rounds, so lockstep skips the per-round lookup.
            const LaneStatus st = lanes_[i]->step_once();
            if (st != LaneStatus::Running) {
                done[i] = true;
                status[i] = st;
            } else {
                any = true;
            }
        }
        ++rounds;
    }

    // Lanes still running when the round budget expired timed out —
    // distinguishable from a clean halt, with a populated fault record.
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        if (!done[i])
            status[i] = lanes_[i]->trip_watchdog(
                "Lane: lockstep round budget (" +
                std::to_string(max_rounds) + ") exhausted");

    Cycles wall = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        if (jobs_[i].program)
            wall = std::max(wall, lanes_[i]->stats().cycles);

    MachineResult res = collect(wall);
    res.status = std::move(status);
    return res;
}

} // namespace udp
