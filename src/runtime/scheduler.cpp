/**
 * @file
 * Wave scheduler implementation.
 *
 * Waves are packed from a pending queue instead of all upfront: the
 * queue starts as the submission order (reproducing the original greedy
 * packing bit for bit when nothing faults) and faulted jobs re-enter at
 * the back, so retries land in later waves without perturbing the
 * placement of first-attempt jobs.
 */
#include "scheduler.hpp"

#include "core/trace.hpp"
#include "executor.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <utility>

namespace udp::runtime {

namespace {

/// One job's slot within a wave.
struct Placement {
    std::size_t job = 0;     ///< index into the submitted plan vector
    unsigned start_bank = 0; ///< first bank (also the lane index)
    unsigned attempt = 1;    ///< 1-based attempt number of this run
    std::uint64_t budget = ~std::uint64_t{0}; ///< cycle budget of this run
};

/// A queued (re)run of one job.
struct Pending {
    std::size_t job = 0;
    unsigned attempt = 1;
    std::uint64_t budget = ~std::uint64_t{0};
};

/// Next unreserved trace id.  Each non-empty run() reserves one id per
/// job, so ids stay unique across every Scheduler in the process.
std::atomic<std::uint64_t> g_next_trace_id{0};

/// `opts`, once its wave cap and retry count are usable.
SchedulerOptions
checked(SchedulerOptions opts)
{
    if (opts.max_jobs_per_wave == 0 || opts.max_jobs_per_wave > kNumLanes)
        throw UdpError("Scheduler: max_jobs_per_wave must be 1..64");
    if (opts.retry.max_attempts == 0)
        throw UdpError("Scheduler: retry.max_attempts must be >= 1");
    return opts;
}

} // namespace

Scheduler::Scheduler(SchedulerOptions opts)
    : opts_(checked(std::move(opts))),
      owned_(std::make_unique<Machine>(AddressingMode::Restricted)),
      machine_(owned_.get())
{
    if (opts_.threads)
        machine_->set_sim_threads(opts_.threads);
    if (opts_.lane_tracer)
        machine_->set_tracer(opts_.lane_tracer);
}

Scheduler::Scheduler(Machine &m, SchedulerOptions opts)
    : opts_(checked(std::move(opts))), machine_(&m)
{
    if (opts_.threads)
        machine_->set_sim_threads(opts_.threads);
    if (opts_.lane_tracer)
        machine_->set_tracer(opts_.lane_tracer);
}

ScheduleReport
Scheduler::run(const std::vector<JobPlan> &jobs)
{
    ScheduleReport report;
    report.jobs.resize(jobs.size());
    report.sim_threads = machine_->resolved_sim_threads();
    if (jobs.empty())
        return report;

    // Validate every plan before any wave runs, so a malformed plan
    // cannot fail a run midway.
    for (const JobPlan &plan : jobs)
        validate_plan(plan);

    std::deque<Pending> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        pending.push_back({i, 1,
                           jobs[i].max_cycles ? jobs[i].max_cycles
                                              : opts_.max_cycles_per_lane});

    const std::uint64_t trace_base = g_next_trace_id.fetch_add(jobs.size());
    for (TelemetrySink *sink : opts_.sinks)
        sink->on_schedule(jobs.size());
    const auto emit = [this](const JobRunEvent &ev) {
        for (TelemetrySink *sink : opts_.sinks)
            sink->on_job_run(ev);
    };

    const auto t0 = std::chrono::steady_clock::now();
    unsigned wave_index = 0;
    while (!pending.empty()) {
        const auto t_wave = std::chrono::steady_clock::now();
        // Machine time already spent on earlier waves: the queue wait
        // of every job running in this wave (submission is at t = 0).
        const Cycles queue_wait = report.wall_cycles;
        // Pack the next wave greedily from the queue head: consecutive
        // banks until the memory (64 banks) or lane budget is exhausted.
        std::vector<Placement> wave;
        unsigned cum_banks = 0;
        while (!pending.empty()) {
            const Pending &p = pending.front();
            if (opts_.control && opts_.control->cancelled(p.job)) {
                // Cancel-before-stage: drop the (re)run without staging
                // it.  attempts counts only runs the job actually got.
                JobResult jr;
                jr.status = LaneStatus::Cancelled;
                jr.cancelled = true;
                jr.attempts = p.attempt - 1;
                jr.queue_wait_cycles = report.wall_cycles;
                jr.e2e_cycles = report.wall_cycles;
                ++report.cancelled;
                recycle(std::move(report.jobs[p.job]));
                report.jobs[p.job] = std::move(jr);
                if (!opts_.sinks.empty())
                    emit({jobs[p.job], report.jobs[p.job], p.job,
                          trace_base + p.job, opts_.retry.max_attempts,
                          /*requeued=*/false, /*ran=*/false, nullptr});
                pending.pop_front();
                continue;
            }
            const unsigned banks = jobs[p.job].banks();
            if (!wave.empty() &&
                (cum_banks + banks > kNumBanks ||
                 wave.size() >= opts_.max_jobs_per_wave))
                break;
            wave.push_back({p.job, cum_banks, p.attempt, p.budget});
            cum_banks += banks;
            pending.pop_front();
        }
        if (wave.empty())
            continue; // every queued entry was cancelled

        // Stage and assign: lane index == the window's first bank.
        std::vector<JobSpec> specs(wave.back().start_bank + 1);
        for (const Placement &pl : wave) {
            const JobPlan &plan = jobs[pl.job];
            const ByteAddr base =
                static_cast<ByteAddr>(pl.start_bank) *
                static_cast<ByteAddr>(kBankBytes);
            stage_regions(*machine_, base, plan);
            JobSpec &js = specs[pl.start_bank];
            js.program = plan.program.get();
            js.input = plan.input;
            js.window_base = base;
            js.window_bytes = plan.window_bytes;
            js.nfa_mode = plan.nfa_mode;
            js.init_regs = plan.init_regs;
            js.max_cycles = pl.budget;
            // An injected trap is transient: it only fires while the
            // attempt is within the plan's trap window.
            js.trap_cycle = pl.attempt <= plan.trap_attempts
                                ? plan.force_trap_cycle
                                : Cycles{0};
        }
        machine_->assign(std::move(specs));
        const auto t_staged = std::chrono::steady_clock::now();
        // Budgets are carried per JobSpec (they grow per retry), so the
        // machine-wide cap stays wide open here.
        const MachineResult mr = machine_->run_parallel();
        const auto t_simulated = std::chrono::steady_clock::now();

        WaveReport wr;
        wr.jobs = static_cast<unsigned>(wave.size());
        wr.active_lanes = mr.active_lanes;
        wr.banks_used = cum_banks;
        wr.wall_cycles = mr.wall_cycles;
        wr.energy_j = machine_->last_run_energy_j();
        wr.total = mr.total;

        for (const Placement &pl : wave) {
            const JobPlan &plan = jobs[pl.job];
            const ByteAddr base =
                static_cast<ByteAddr>(pl.start_bank) *
                static_cast<ByteAddr>(kBankBytes);
            JobResult jr = harvest_job(*machine_, pl.start_bank, base,
                                       plan, mr.status[pl.start_bank],
                                       &pool_);
            jr.wave = wave_index;
            jr.attempts = pl.attempt;
            jr.queue_wait_cycles = queue_wait;
            jr.service_cycles = jr.stats.cycles;
            jr.e2e_cycles = queue_wait + wr.wall_cycles;

            bool retried_now = false;
            const bool cancelled_now =
                opts_.control && opts_.control->cancelled(pl.job);
            const bool faulted = !cancelled_now &&
                                 (jr.status == LaneStatus::Faulted ||
                                  jr.status == LaneStatus::TimedOut);
            if (cancelled_now) {
                // Cancel-mid-wave: the attempt ran, but its payload is
                // discarded (recycle() pools its buffers and leaves jr
                // without them) and any retry it would have earned is
                // suppressed.  Counters stay for accounting;
                // architectural outputs do not survive.
                recycle(std::move(jr));
                jr.accepts.clear();
                jr.regs = {};
                jr.status = LaneStatus::Cancelled;
                jr.cancelled = true;
                jr.fault = LaneFault{};
                ++wr.cancelled;
                ++report.cancelled;
            } else if (faulted) {
                ++report.faulted_runs;
                if (pl.attempt < opts_.retry.max_attempts) {
                    // Requeue into a later wave; a timeout retries with
                    // twice the watchdog budget (saturating).
                    std::uint64_t budget = pl.budget;
                    if (jr.status == LaneStatus::TimedOut)
                        budget = budget > (~std::uint64_t{0} >> 1)
                                     ? ~std::uint64_t{0}
                                     : budget * 2;
                    pending.push_back({pl.job, pl.attempt + 1, budget});
                    retried_now = true;
                    ++wr.retried;
                    ++report.retries;
                } else {
                    jr.quarantined = true;
                    ++wr.quarantined;
                    ++report.quarantined;
                }
            } else {
                ++wr.completed;
            }
            if (!opts_.sinks.empty())
                emit({plan, jr, pl.job, trace_base + pl.job,
                      opts_.retry.max_attempts, retried_now, /*ran=*/true,
                      machine_->tracer()});
            // Always the latest attempt's result; a retried job's entry
            // is overwritten when its final attempt lands — its buffers
            // go back to the pool instead of being freed.
            recycle(std::move(report.jobs[pl.job]));
            report.jobs[pl.job] = std::move(jr);
        }

        report.wall_cycles += wr.wall_cycles;
        report.energy_j += wr.energy_j;
        report.total.add(wr.total);
        const auto t_done = std::chrono::steady_clock::now();
        wr.host_seconds =
            std::chrono::duration<double>(t_done - t_wave).count();
        wr.host_setup_seconds =
            std::chrono::duration<double>(t_staged - t_wave).count();
        wr.host_simulate_seconds =
            std::chrono::duration<double>(t_simulated - t_staged).count();
        wr.host_harvest_seconds =
            std::chrono::duration<double>(t_done - t_simulated).count();
        report.host_setup_seconds += wr.host_setup_seconds;
        report.host_simulate_seconds += wr.host_simulate_seconds;
        report.host_harvest_seconds += wr.host_harvest_seconds;
        Tracer *const lane_tracer = machine_->tracer();
        if (!opts_.sinks.empty()) {
            const WaveEvent ev{wr, wave_index, queue_wait, lane_tracer};
            for (TelemetrySink *sink : opts_.sinks)
                sink->on_wave(ev);
            // Lane cycle stamps restart every wave (Machine::assign
            // hard-resets lanes), so once the sinks have read this
            // wave's rings they are cleared: the next wave's readers
            // must see only their own wave.
            if (lane_tracer)
                lane_tracer->clear();
        }
        report.waves.push_back(std::move(wr));
        ++wave_index;
    }
    report.host_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    return report;
}

void
Scheduler::recycle(JobResult &&r)
{
    if (r.output.capacity() > 0)
        pool_.release(std::exchange(r.output, {}));
    for (Bytes &e : r.extracts)
        if (e.capacity() > 0)
            pool_.release(std::move(e));
    r.extracts.clear();
}

void
Scheduler::recycle(ScheduleReport &&rep)
{
    for (JobResult &jr : rep.jobs)
        recycle(std::move(jr));
}

JobLatencySummary
summarize_job_latencies(const std::vector<JobResult> &jobs)
{
    Histogram queue_wait, service, e2e;
    for (const JobResult &jr : jobs) {
        queue_wait.record(jr.queue_wait_cycles);
        service.record(jr.service_cycles);
        e2e.record(jr.e2e_cycles);
    }
    return {queue_wait.snapshot(), service.snapshot(), e2e.snapshot()};
}

} // namespace udp::runtime
