/**
 * @file
 * Fault containment and recovery overhead (docs/ROBUSTNESS.md).
 *
 * Three experiments on a 64-job trigger run (one job per lane):
 *
 *  1. Containment: poison one job's program (guaranteed BadDispatch on
 *     first dispatch) and prove the other 63 jobs' results are
 *     byte-identical to a fault-free run — output, accepts, registers
 *     and simulated counters — while the poisoned job quarantines.
 *  2. Transient recovery: arm forced traps on a few jobs for their
 *     first attempt only; the Scheduler's retry waves recover every
 *     job, and the wall-cycle/host-time overhead of recovery is
 *     reported against the clean baseline.
 *  3. Timeout growth: start every job with a starvation cycle budget
 *     and let the RetryPolicy double it per TimedOut attempt until the
 *     run completes.
 *
 * The containment check runs down both interpreters (threaded and
 * legacy).  Flags: --json <path> (standard bench envelope; the
 * per-run fault counters land in workloads[] together with the per-job
 * `latency` block, the experiment scalars in metrics.*), --threads N,
 * --metrics <path> (Prometheus-style text exposition of the telemetry
 * registry, including per-FaultCode retry/quarantine counters;
 * docs/OBSERVABILITY.md), --trace <path> (merged runtime+lane Chrome
 * trace), and --postmortem <dir>: every faulted run — the containment
 * experiment's poisoned victim included — writes a structured
 * FaultReport JSON with the faulting lane's recent trace ring and the
 * trapped state's disassembly ("Tracing & post-mortems").
 */
#include "support.hpp"

#include "core/decoded_program.hpp"
#include "kernels/trigger.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace udp;
using namespace udp::bench;

/// Byte-level equality of everything a job architecturally produced.
bool
same_result(const runtime::JobResult &a, const runtime::JobResult &b)
{
    if (a.status != b.status || !(a.stats == b.stats) ||
        a.regs != b.regs || a.output != b.output ||
        a.extracts != b.extracts || a.accepts.size() != b.accepts.size())
        return false;
    for (std::size_t i = 0; i < a.accepts.size(); ++i)
        if (a.accepts[i].stream_bit_pos != b.accepts[i].stream_bit_pos ||
            a.accepts[i].id != b.accepts[i].id)
            return false;
    return true;
}

/// The 64-job workload every experiment starts from.  `samples` lives
/// in main() across every scheduled run, so the chunks borrow it; a
/// FaultInjector input mutation copy-on-writes a private arena for the
/// poisoned job only.
std::vector<runtime::JobPlan>
make_jobs(const runtime::KernelSpec &spec, const Bytes &samples)
{
    return runtime::chunk_jobs(
        spec, runtime::ArenaSlice::borrow(samples),
        std::max<std::size_t>(1, ceil_div(samples.size(), kNumLanes)));
}

} // namespace

int
main(int argc, char **argv)
{
    MetricsRecorder rec("bench_faults", argc, argv);

    const Bytes packed = workloads::waveform(400'000, 13);
    const Bytes samples = kernels::samples_from_bits(packed);
    const auto spec = kernels::trigger_kernel_spec(6);

    // --- Clean baseline --------------------------------------------------
    const auto clean_jobs = make_jobs(spec, samples);
    runtime::Scheduler clean_sched(sched_options());
    const auto clean = clean_sched.run(clean_jobs);

    WorkloadPerf base;
    base.name = "Trigger (clean)";
    attach_sim(base, clean.total, clean.wall_cycles, clean.waves[0].jobs);
    attach_schedule(base, clean, samples.size());
    rec.add_workload(base);

    // --- 1. Containment: one poisoned program among 64 -------------------
    const std::size_t victim = 17;
    bool contained_both_paths = true;
    for (const SimBackend backend :
         {SimBackend::Threaded, SimBackend::Legacy}) {
        set_sim_backend(backend);
        auto jobs = make_jobs(spec, samples);
        // Plans resolve their compiled image at build time; the
        // reference run must use the same backend as the poisoned run.
        runtime::Scheduler ref_sched(sched_options());
        const auto ref = ref_sched.run(jobs);

        runtime::FaultInjector inj(0xF01Dull);
        inj.poison_program(jobs[victim]);
        auto opts = sched_options();
        opts.retry.max_attempts = 2; // permanent fault: retries then gives up
        runtime::Scheduler sched(opts);
        const auto rep = sched.run(jobs);

        unsigned identical = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (i == victim)
                continue;
            if (same_result(rep.jobs[i], ref.jobs[i]))
                ++identical;
        }
        const auto &vr = rep.jobs[victim];
        const bool ok = identical == jobs.size() - 1 &&
                        vr.status == LaneStatus::Faulted &&
                        vr.fault.code == FaultCode::BadDispatch &&
                        vr.quarantined && vr.attempts == 2 &&
                        rep.quarantined == 1;
        contained_both_paths = contained_both_paths && ok;

        print_header(std::string("Containment (") +
                         std::string(sim_backend_name(backend)) + " path)",
                     {"healthy identical", "victim status", "fault",
                      "attempts"});
        print_row({std::to_string(identical) + "/63",
                   std::string(lane_status_name(vr.status)),
                   std::string(fault_code_name(vr.fault.code)),
                   std::to_string(vr.attempts)});
        if (backend == SimBackend::Threaded) {
            WorkloadPerf p;
            p.name = "Trigger (1 poisoned / 64)";
            attach_sim(p, rep.total, rep.wall_cycles, rep.waves[0].jobs);
            attach_schedule(p, rep, samples.size());
            rec.add_workload(p);
            // Post-mortem demo: the victim faulted once per attempt, so
            // with --postmortem the bench's sink captured one report per
            // faulted run (queryable in memory, serialized to the dir).
            // The clean and reference runs before it fault nowhere.
            if (const runtime::PostmortemSink *pm = rec.postmortems()) {
                const auto &pms = pm->reports();
                std::printf("\npostmortem: %u report(s) in %s "
                            "(victim state @0x%x, %u recent events)\n",
                            unsigned(pms.size()), pm->dir().c_str(),
                            pms.empty() ? 0u
                                        : pms.back().fault.state_base,
                            pms.empty()
                                ? 0u
                                : unsigned(pms.back().recent_events.size()));
                rec.add_metric("postmortems_captured",
                               double(pms.size()));
            }
        }
    }
    set_sim_backend(SimBackend::Threaded);

    // --- 2. Transient faults: forced traps recovered by retry ------------
    {
        auto jobs = make_jobs(spec, samples);
        runtime::FaultInjector inj(0xBEEFull);
        unsigned injected = 0;
        for (const std::size_t j : {3u, 31u, 60u}) {
            // Trap a few thousand cycles in, first attempt only.
            inj.force_trap(jobs[j], 1000 + inj.next_below(4000),
                           /*attempts=*/1);
            ++injected;
        }
        auto opts = sched_options();
        opts.retry.max_attempts = 3;
        runtime::Scheduler sched(opts);
        const auto rep = sched.run(jobs);

        unsigned recovered = 0;
        for (const auto &jr : rep.jobs)
            if (jr.status == LaneStatus::Done)
                ++recovered;
        const double wall_overhead =
            clean.wall_cycles
                ? double(rep.wall_cycles) / double(clean.wall_cycles)
                : 0;

        print_header("Transient recovery (3 forced traps, retry x3)",
                     {"recovered", "faulted runs", "retries", "waves",
                      "wall overhead"});
        print_row({std::to_string(recovered) + "/64",
                   std::to_string(rep.faulted_runs),
                   std::to_string(rep.retries),
                   std::to_string(unsigned(rep.waves.size())),
                   fmt(wall_overhead, 2) + "x"});

        WorkloadPerf p;
        p.name = "Trigger (3 transient traps)";
        attach_sim(p, rep.total, rep.wall_cycles, rep.waves[0].jobs);
        attach_schedule(p, rep, samples.size());

        print_header("Per-job latency under faults (simulated cycles)",
                     {"metric", "p50", "p99", "max"});
        const auto lat_row = [](const char *name,
                                const runtime::HistogramSnapshot &h) {
            print_row({name, fmt(double(h.percentile(0.50)), 0),
                       fmt(double(h.percentile(0.99)), 0),
                       fmt(double(h.max), 0)});
        };
        lat_row("queue wait", p.latency.queue_wait);
        lat_row("service", p.latency.service);
        lat_row("end-to-end", p.latency.e2e);
        rec.add_workload(p);

        rec.add_metric("transient_injected", injected);
        rec.add_metric("transient_recovered", recovered);
        rec.add_metric("transient_wall_overhead", wall_overhead);
        rec.add_metric("transient_waves", double(rep.waves.size()));
    }

    // --- 3. Timeout recovery: budget growth ------------------------------
    {
        auto jobs = make_jobs(spec, samples);
        auto opts = sched_options();
        // Far below the per-job need; every job times out at least once
        // and the policy doubles the budget per retry.
        opts.max_cycles_per_lane = 1024;
        opts.retry.max_attempts = 16;
        runtime::Scheduler sched(opts);
        const auto rep = sched.run(jobs);

        unsigned done = 0, max_attempts = 0;
        for (const auto &jr : rep.jobs) {
            if (jr.status == LaneStatus::Done)
                ++done;
            max_attempts = std::max(max_attempts, jr.attempts);
        }
        print_header("Timeout recovery (budget 1024, doubled per retry)",
                     {"completed", "timeouts", "max attempts", "waves"});
        print_row({std::to_string(done) + "/64",
                   std::to_string(rep.faulted_runs),
                   std::to_string(max_attempts),
                   std::to_string(unsigned(rep.waves.size()))});

        rec.add_metric("timeout_completed", done);
        rec.add_metric("timeout_faulted_runs", rep.faulted_runs);
        rec.add_metric("timeout_max_attempts", max_attempts);
    }

    std::printf("\ncontainment (both interpreter paths): %s\n",
                contained_both_paths ? "OK" : "FAILED");
    rec.add_metric("containment_ok", contained_both_paths ? 1 : 0);
    rec.add_metric("clean_wall_cycles", double(clean.wall_cycles));

    const int rc = rec.finish();
    return contained_both_paths ? rc : 1;
}
