/**
 * @file
 * Single-job executor implementation.
 */
#include "executor.hpp"

namespace udp::runtime {

void
validate_plan(const JobPlan &plan)
{
    const auto fail = [&](const char *what) {
        throw UdpError("runtime: job '" + plan.name + "' " + what);
    };
    if (!plan.program)
        fail("has no program");
    if (plan.window_bytes == 0)
        fail("has an empty window"); // the lane would get all of memory
    if (plan.window_bytes > kLocalMemBytes)
        fail("window exceeds local memory");
    for (const MemStage &s : plan.stages)
        if (std::uint64_t{s.offset} + s.data.size() > plan.window_bytes)
            fail("stages outside its window");
    for (const auto &[r, v] : plan.init_regs)
        if (r >= kNumScalarRegs)
            fail("names a register past r15");
    for (const MemExtract &e : plan.extracts) {
        if (e.end_reg >= static_cast<int>(kNumScalarRegs))
            fail("names a register past r15");
        if (e.end_reg < 0 &&
            std::uint64_t{e.offset} + e.len > plan.window_bytes)
            fail("extract outside its window");
    }
    plan.input.check_pinned("validate_plan", plan.name, "input");
    for (const MemStage &s : plan.stages)
        s.data.check_pinned("validate_plan", plan.name, "stage");
}

void
stage_regions(Machine &m, ByteAddr window_base, const JobPlan &plan)
{
    // The lane streams straight from arena memory: validate_plan
    // enforces the pins now, before any bytes are read (see
    // executor.hpp lifetime contract).
    validate_plan(plan);
    if (std::uint64_t{window_base} + plan.window_bytes > kLocalMemBytes)
        throw UdpError("runtime: job '" + plan.name +
                       "' window escapes local memory");
    for (const MemStage &s : plan.stages)
        m.stage(window_base + s.offset, s.data);
}

void
stage_job(Machine &m, unsigned lane, ByteAddr window_base,
          const JobPlan &plan)
{
    stage_regions(m, window_base, plan);
    Lane &ln = m.lane(lane);
    ln.load(*plan.program, plan.compiled);
    ln.set_input(plan.input);
    ln.set_window_base(window_base, plan.window_bytes);
    // Single-lane runs are always "attempt 1" of the plan's trap window.
    ln.set_forced_trap(plan.trap_attempts != 0 ? plan.force_trap_cycle
                                               : Cycles{0});
    for (const auto &[r, v] : plan.init_regs)
        ln.set_reg(r, v);
}

JobResult
harvest_job(Machine &m, unsigned lane, ByteAddr window_base,
            const JobPlan &plan, LaneStatus status, BufferPool *pool)
{
    // The lane streamed from the plan's arena for the whole run; catch
    // a pin that was dropped between staging and harvesting.
    plan.input.check_pinned("harvest_job", plan.name, "input");
    Lane &ln = m.lane(lane);
    ln.finish_output();

    JobResult res;
    res.status = status;
    res.fault = ln.fault();
    res.stats = ln.stats();
    for (unsigned r = 0; r < kNumScalarRegs; ++r)
        res.regs[r] = ln.reg(r);
    if (pool) {
        // Pooled buffers retain capacity across waves: the assign below
        // copies bytes but — once the pool is warm — allocates nothing.
        res.output = pool->acquire();
        res.output.assign(ln.output().begin(), ln.output().end());
    } else {
        res.output = ln.output();
    }
    res.accepts = ln.accepts();
    res.lane = lane;

    res.extracts.reserve(plan.extracts.size());
    for (std::size_t i = 0; i < plan.extracts.size(); ++i) {
        const MemExtract &e = plan.extracts[i];
        std::uint64_t end = std::uint64_t{e.offset} + e.len;
        if (e.end_reg >= 0)
            end = ln.reg(static_cast<unsigned>(e.end_reg));
        Bytes buf = pool ? pool->acquire() : Bytes{};
        if (end >= e.offset && end <= plan.window_bytes) {
            m.unstage(window_base + e.offset,
                      static_cast<std::size_t>(end - e.offset), buf);
        } else if (!res.fault) {
            // The cursor holds whatever the program left in it, so a
            // bad one faults this job (retry, quarantine, post-mortems)
            // instead of failing every job of the run.
            res.status = LaneStatus::Faulted;
            res.fault.code = FaultCode::FetchOutOfRange;
            res.fault.lane = lane;
            res.fault.cycle = res.stats.cycles;
            res.fault.detail = "job '" + plan.name + "' extract " +
                               std::to_string(i) + " cursor " +
                               std::to_string(end) + " outside [" +
                               std::to_string(e.offset) + ", " +
                               std::to_string(plan.window_bytes) + "]";
        }
        res.extracts.push_back(std::move(buf));
    }
    return res;
}

JobResult
run_job_on(Machine &m, unsigned lane, ByteAddr window_base,
           const JobPlan &plan, std::uint64_t max_cycles)
{
    stage_job(m, lane, window_base, plan);
    Lane &ln = m.lane(lane);
    const std::uint64_t budget = plan.max_cycles ? plan.max_cycles
                                                 : max_cycles;
    const LaneStatus st = plan.nfa_mode ? ln.run_nfa(budget)
                                        : ln.run(budget);
    JobResult res = harvest_job(m, lane, window_base, plan, st);
    res.service_cycles = res.stats.cycles;
    res.e2e_cycles = res.stats.cycles; // no queue ahead of a direct run
    return res;
}

} // namespace udp::runtime
