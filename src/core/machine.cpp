/**
 * @file
 * Machine implementation: job assignment and the two run harnesses.
 */
#include "machine.hpp"

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
        ln.set_window_base(j.window_base, j.window_bytes);
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
Machine::run_parallel()
{
    std::vector<LaneStatus> status(jobs_.size(), LaneStatus::Done);
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        if (jobs_[i].program)
            runnable.push_back(i);

    // Lanes are trace-independent and their windows disjoint, so any
    // work distribution yields bit-identical per-lane results.
    // Interpreter faults never unwind out of Lane::run — they land in
    // the per-lane fault record — so an exception here is a host-side
    // bug; it is rethrown lowest-lane-first.
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(runnable.size());
    const auto worker = [&] {
        for (;;) {
            const std::size_t k =
                next.fetch_add(1, std::memory_order_relaxed);
            if (k >= runnable.size())
                return;
            const std::size_t i = runnable[k];
            const JobSpec &j = jobs_[i];
            try {
                status[i] = j.nfa_mode ? lanes_[i]->run_nfa(j.max_cycles)
                                       : lanes_[i]->run(j.max_cycles);
            } catch (...) {
                errors[k] = std::current_exception();
            }
        }
    };
    // The calling thread is one of the workers.
    const std::size_t threads =
        std::min<std::size_t>(resolved_sim_threads(), runnable.size());
    {
        std::vector<std::jthread> pool;
        for (std::size_t t = 1; t < threads; ++t)
            pool.emplace_back(worker);
        worker();
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);

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
    for (const JobSpec &j : jobs_)
        if (j.program && j.nfa_mode)
            throw UdpError("Machine: lockstep NFA mode is unsupported");

    // The arbiter lives on this frame: the lanes hold it for this run
    // only and are detached on every exit, exceptions included.
    BankArbiter arbiter;
    class ArbiterScope
    {
      public:
        ArbiterScope(Machine &m, BankArbiter &a) : m_(m) {
            for (std::size_t i = 0; i < m_.jobs_.size(); ++i)
                if (m_.jobs_[i].program)
                    m_.lanes_[i]->set_arbiter(&a);
        }
        ArbiterScope(const ArbiterScope &) = delete;
        ArbiterScope &operator=(const ArbiterScope &) = delete;
        ~ArbiterScope() {
            for (auto &ln : m_.lanes_)
                ln->set_arbiter(nullptr);
        }

      private:
        Machine &m_;
    } scope(*this, arbiter);

    std::vector<bool> done(jobs_.size(), true);
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        done[i] = !jobs_[i].program;

    std::vector<LaneStatus> status(jobs_.size(), LaneStatus::Done);
    std::uint64_t rounds = 0;
    bool any = true;
    while (any && rounds < max_rounds) {
        any = false;
        arbiter.begin_cycle();
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            if (done[i])
                continue;
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
