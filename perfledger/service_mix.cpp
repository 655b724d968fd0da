/**
 * @file
 * Workload `service_mix`: a closed loop over one udp_service Service
 * with serial simulation, the benchmark's one client thread and the
 * service's run loop.  The client keeps a fixed window of jobs
 * outstanding for each of three well-behaved tenants (three 64-job
 * batches deep in total), waiting on the oldest before submitting its
 * replacement.  A hostile tenant submits FaultInjector jobs at a fixed
 * share (poisoned programs, and transient forced traps retried once);
 * the client only polls those and never blocks on them, so a breaker
 * holding the hostile queue cannot stall the loop.  Every 16th
 * well-behaved job is cancelled right after submit.  Jobs are 1 KiB
 * trigger-kernel chunks, so per-job overhead (admission, queueing,
 * batch gathering, staging and harvest, retries, quarantine,
 * cancellation, poisoned-image churn) dominates, not interpretation.
 */
#include "ledger.hpp"

#include "baselines/trigger.hpp"
#include "kernels/trigger.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "service/service.hpp"
#include "workloads/generators.hpp"

#include <cstdio>
#include <deque>
#include <optional>

namespace ledger {

namespace {

using namespace udp;

constexpr unsigned kWidth = 6;              ///< trigger pulse width
constexpr std::size_t kChunkBytes = 1024;   ///< samples per job
constexpr std::size_t kChunks = 1024;       ///< corpus: 1 MiB of samples
constexpr unsigned kGoodTenants = 3;
constexpr std::size_t kWindowPerTenant = 64; ///< outstanding jobs each
constexpr unsigned kHostileEvery = 8;  ///< one hostile per 8 good submits
constexpr unsigned kCancelEvery = 16;  ///< cancel every 16th good job
constexpr std::size_t kReplayJobs = 4096; ///< bare-Scheduler replay
/// The loop runs this long before each measured window: a fresh loop's
/// first seconds run markedly slower (allocator and queue growth).
constexpr double kWarmupSeconds = 2.0;

struct Inputs {
    Bytes samples;
    std::vector<std::uint64_t> want; ///< PulseTrigger count per chunk
};

Inputs
make_inputs(std::uint64_t seed)
{
    Inputs in;
    const Bytes packed = workloads::waveform(kChunks * kChunkBytes, 16,
                                             static_cast<unsigned>(seed));
    in.samples = kernels::samples_from_bits(packed);
    const baselines::PulseTrigger fsm(kWidth);
    for (std::size_t c = 0; c < kChunks; ++c) {
        unsigned state = 0;
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < kChunkBytes; ++i) {
            bool trig = false;
            state = fsm.next_state(
                state, in.samples[c * kChunkBytes + i] >= 128, &trig);
            n += trig;
        }
        in.want.push_back(n);
    }
    return in;
}

service::ServiceOptions
service_options()
{
    service::ServiceOptions so;
    so.sched.threads = 1;               // serial simulation
    so.sched.retry.max_attempts = 2;    // transient traps retry once
    so.max_batch_jobs = kNumLanes;
    return so;
}

/// Three well-behaved tenants (ids 0..2) and the hostile one (id 3).
std::vector<service::ServiceClient>
register_tenants(service::Service &svc)
{
    std::vector<service::ServiceClient> clients;
    for (unsigned i = 0; i <= kGoodTenants; ++i) {
        const bool hostile = i == kGoodTenants;
        service::TenantOptions t;
        t.name = hostile ? "hostile" : "good" + std::to_string(i);
        // Admission never throttles the loop: the window bounds load.
        t.rate_jobs_per_s = 1e9;
        t.burst = 1e9;
        t.queue_capacity = hostile ? kNumLanes : 4 * kWindowPerTenant;
        t.overflow = service::OverflowPolicy::Shed;
        clients.push_back(svc.client(svc.register_tenant(t)));
    }
    return clients;
}

/// What one closed-loop phase measured.  Timings, client-side counts
/// and spans cover the measured window only; `stats` is the service's
/// accounting over the whole phase (warm-up and drain included).
struct Phase {
    std::vector<double> lat_s;      ///< good jobs Done in the window
    std::vector<double> submit_us;  ///< every submit() call (traced only)
    double wall = 0;
    double cpu_s = 0;               ///< process CPU time in the window
    double blocked_s = 0;
    double make_job_s = 0;
    std::uint64_t jobs_made = 0;
    std::uint64_t retries = 0;      ///< attempts beyond the first
    std::uint64_t jobs_run = 0;     ///< jobs the run loop ran
    std::uint64_t batches = 0;      ///< Scheduler batches it issued
    std::uint64_t quarantined = 0;  ///< all tenants
    std::uint64_t cancelled = 0;    ///< all tenants
    service::ServiceStats stats;
};

class ClosedLoop
{
  public:
    ClosedLoop(const Inputs &in, const runtime::KernelSpec &spec,
               service::Service &svc,
               std::vector<service::ServiceClient> clients, Report &r,
               Spans *sp, std::uint64_t seed)
        : in_(in), spec_(spec), svc_(svc), clients_(std::move(clients)),
          r_(r), window_sp_(sp), inj_(seed ^ 0xF01Dull),
          arena_(runtime::ArenaSlice::borrow(in.samples))
    {
    }

    Phase run(double warmup, double window) {
        for (unsigned t = 0; t < kGoodTenants; ++t)
            for (std::size_t k = 0; k < kWindowPerTenant; ++k)
                submit_good(t);
        for (const auto t0 = Clock::now(); seconds_since(t0) < warmup;) {
            finish_oldest(true, false);
            poll_hostile();
        }
        // Storage for the window's samples is reserved up front, so the
        // resident set grows with the samples, not in doubling steps.
        ph_ = Phase{};
        ph_.lat_s.reserve(static_cast<std::size_t>(window * 200e3));
        if (window_sp_)
            ph_.submit_us.reserve(static_cast<std::size_t>(window * 250e3));
        const service::ServiceStats s0 = svc_.stats();
        sp_ = window_sp_;
        const double cpu0 = cpu_seconds();
        const auto w0 = Clock::now();
        while (seconds_since(w0) < window) {
            finish_oldest(true, true);
            poll_hostile();
        }
        ph_.wall = seconds_since(w0);
        ph_.cpu_s = cpu_seconds() - cpu0;
        sp_ = nullptr;
        const service::ServiceStats s1 = svc_.stats();
        ph_.jobs_run = s1.jobs_run - s0.jobs_run;
        ph_.batches = s1.batches - s0.batches;
        for (std::size_t i = 0; i < s1.tenants.size(); ++i) {
            ph_.quarantined +=
                s1.tenants[i].quarantined - s0.tenants[i].quarantined;
            ph_.cancelled += s1.tenants[i].cancelled - s0.tenants[i].cancelled;
        }
        // Outside the window: collect what is still outstanding, drain,
        // and check the service's books.
        while (!good_.empty())
            finish_oldest(false, false);
        svc_.drain();
        while (!hostile_.empty())
            poll_hostile();
        ph_.stats = svc_.stats();
        for (const service::TenantStats &t : ph_.stats.tenants) {
            const std::uint64_t ended = t.completed + t.rejected_total() +
                                        t.cancelled + t.expired +
                                        t.quarantined;
            if (t.submitted != ended)
                r_.fail("service_mix: tenant " + t.name + " submitted " +
                        std::to_string(t.submitted) + " but accounted " +
                        std::to_string(ended));
        }
        return ph_;
    }

  private:
    struct Pending {
        service::JobId id = 0;
        unsigned tenant = 0;
        std::size_t chunk = 0;
        bool cancel_slice = false;
        /// A hostile job's poisoned program (null otherwise).  Its
        /// outcome depends on the poison (quarantined when the first
        /// dispatch faults, a kernel Reject when it misses the
        /// signature), so only transient-trap jobs have a checkable
        /// output.
        std::shared_ptr<const Program> poisoned;
    };

    runtime::JobPlan make(std::size_t chunk) {
        LEDGER_SPAN(s, sp_, "runtime", "runtime.make_job", 0);
        const auto t0 = Clock::now();
        runtime::JobPlan p =
            spec_.make_job(arena_.subslice(chunk * kChunkBytes, kChunkBytes));
        ph_.make_job_s += seconds_since(t0);
        ++ph_.jobs_made;
        return p;
    }

    service::JobId submit(unsigned tenant, runtime::JobPlan &&plan) {
        LEDGER_SPAN(s, sp_, "service", "service.submit", 0);
        const auto t0 = Clock::now();
        const service::JobId id = clients_[tenant].submit(std::move(plan));
        if (sp_)
            ph_.submit_us.push_back(seconds_since(t0) * 1e6);
        return id;
    }

    void submit_good(unsigned tenant) {
        const std::size_t chunk = cursor_++ % kChunks;
        const service::JobId id = submit(tenant, make(chunk));
        const bool cancel = ++n_good_ % kCancelEvery == 0;
        if (cancel) {
            LEDGER_SPAN(s, sp_, "service", "service.cancel", id);
            clients_[tenant].cancel(id);
        }
        good_.push_back({id, tenant, chunk, cancel, nullptr});
        if (n_good_ % kHostileEvery == 0)
            submit_hostile();
    }

    void submit_hostile() {
        const std::size_t chunk = cursor_++ % kChunks;
        runtime::JobPlan plan = make(chunk);
        std::shared_ptr<const Program> poisoned;
        {
            LEDGER_SPAN(s, sp_, "runtime", "runtime.fault_inject", 0);
            if (n_hostile_++ % 2 == 0) {
                inj_.poison_program(plan);
                poisoned = plan.program;
            } else {
                inj_.force_trap(plan, 64 + inj_.next_below(512), 1);
            }
        }
        hostile_.push_back({submit(kGoodTenants, std::move(plan)),
                            kGoodTenants, chunk, false, poisoned});
        // Consume an immediate rejection (open breaker, full queue) now,
        // so refused records never pile up behind a held job.
        if (!consume_hostile(hostile_.back()))
            return;
        hostile_.pop_back();
    }

    /// Check a Done job's trigger count against PulseTrigger's; a
    /// mismatch is recorded as a failure and returns false.
    bool check(const Pending &p, const service::JobOutcome &o) {
        if (o.result.status == LaneStatus::Done &&
            o.result.stats.accepts == in_.want[p.chunk])
            return true;
        r_.fail("service_mix: job on chunk " + std::to_string(p.chunk) +
                " ended " + std::string(lane_status_name(o.result.status)) +
                " with " + std::to_string(o.result.stats.accepts) +
                " triggers, PulseTrigger counts " +
                std::to_string(in_.want[p.chunk]));
        return false;
    }

    /// Wait on the oldest well-behaved job and account for it (its
    /// latency only when `measured`); while the loop is `open`, submit
    /// its replacement for the same tenant.
    void finish_oldest(bool open, bool measured) {
        const Pending p = good_.front();
        good_.pop_front();
        std::optional<service::JobOutcome> o;
        {
            LEDGER_SPAN(s, sp_, "service", "service.wait", p.id);
            const auto t0 = Clock::now();
            o = clients_[p.tenant].wait(p.id);
            ph_.blocked_s += seconds_since(t0);
        }
        if (!p.cancel_slice)
            ++r_.attempted;
        if (!o) {
            r_.fail("service_mix: job " + std::to_string(p.id) + " lost");
        } else {
            ph_.retries += o->attempts > 1 ? o->attempts - 1 : 0;
            if (o->state == service::JobState::Done) {
                check(p, *o);
                if (measured && !p.cancel_slice)
                    ph_.lat_s.push_back(o->e2e_seconds);
                svc_.recycle(std::move(*o));
            } else if (!p.cancel_slice) {
                r_.fail("service_mix: well-behaved job ended " +
                        std::string(service::job_state_name(o->state)));
            }
        }
        if (open)
            submit_good(p.tenant);
    }

    /// Consume hostile outcomes that are terminal, oldest first; never
    /// blocks (a breaker-held job stops the sweep until the next call).
    void poll_hostile() {
        while (!hostile_.empty() && consume_hostile(hostile_.front()))
            hostile_.pop_front();
    }

    /// Poll one hostile job; on a terminal outcome account for it and
    /// return true (false: still queued or running).
    bool consume_hostile(const Pending &p) {
        std::optional<service::JobOutcome> o;
        {
            LEDGER_SPAN(s, sp_, "service", "service.poll", p.id);
            o = clients_[kGoodTenants].poll(p.id);
        }
        if (o && !o->terminal())
            return false;
        if (o) {
            ph_.retries += o->attempts > 1 ? o->attempts - 1 : 0;
            // Machine::assign hard-resets every lane, and Lane::reset
            // reads the program the lane ran last: a poisoned program
            // that ran must outlive the service's later batches, or that
            // read is a use-after-free.  Released after drain.
            if (p.poisoned && o->attempts > 0)
                ran_poisoned_.push_back(p.poisoned);
            // A transient trap retried clean must still be right; only a
            // wrong one enters the (well-behaved) attempted count.
            if (!p.poisoned && o->state == service::JobState::Done &&
                !check(p, *o))
                ++r_.attempted;
        }
        return true;
    }

    const Inputs &in_;
    const runtime::KernelSpec &spec_;
    service::Service &svc_;
    std::vector<service::ServiceClient> clients_;
    Report &r_;
    Spans *window_sp_; ///< the traced phase's recorder
    Spans *sp_ = nullptr; ///< window_sp_ inside the window, else null
    runtime::FaultInjector inj_;
    runtime::ArenaSlice arena_;
    std::deque<Pending> good_, hostile_;
    std::vector<std::shared_ptr<const Program>> ran_poisoned_;
    std::uint64_t n_good_ = 0, n_hostile_ = 0;
    std::size_t cursor_ = 0;
    Phase ph_;
};

/// The service's work replayed on a bare Scheduler: the first `jobs`
/// corpus chunks in 64-job batches.  Deterministic, so its
/// simulated totals are exact; its host time is the Scheduler's own cost
/// of the jobs the service runs.
SchedTotals
replay(const Inputs &in, const runtime::KernelSpec &spec, std::size_t jobs,
       Report &r, double &host_s, runtime::BufferPool::Stats &pool)
{
    runtime::Scheduler sched(service_options().sched);
    const auto arena = runtime::ArenaSlice::borrow(in.samples);
    SchedTotals t;
    host_s = 0;
    for (std::size_t b = 0; b < jobs; b += kNumLanes) {
        std::vector<runtime::JobPlan> plans;
        for (std::size_t j = b; j < b + kNumLanes; ++j)
            plans.push_back(spec.make_job(arena.subslice(
                (j % kChunks) * kChunkBytes, kChunkBytes)));
        const auto t0 = Clock::now();
        runtime::ScheduleReport rep = sched.run(plans);
        host_s += seconds_since(t0);
        t.add(rep);
        for (std::size_t j = 0; j < rep.jobs.size(); ++j) {
            const std::size_t chunk = (b + j) % kChunks;
            if (rep.jobs[j].status != LaneStatus::Done ||
                rep.jobs[j].stats.accepts != in.want[chunk]) {
                ++r.attempted;
                r.fail("service_mix: replay job on chunk " +
                       std::to_string(chunk) + " is wrong");
            }
        }
        sched.recycle(std::move(rep));
    }
    pool = sched.pool().stats();
    return t;
}

void
set_class_layer(Report &r, const service::ServiceStats &st)
{
    for (const bool hostile : {false, true}) {
        service::TenantStats sum;
        for (std::size_t i = 0; i < st.tenants.size(); ++i) {
            if ((i == kGoodTenants) != hostile)
                continue;
            const auto &t = st.tenants[i];
            sum.submitted += t.submitted;
            sum.completed += t.completed;
            sum.rejected_rate_limited += t.rejected_rate_limited;
            sum.rejected_queue_full += t.rejected_queue_full;
            sum.rejected_breaker += t.rejected_breaker;
            sum.cancelled += t.cancelled;
            sum.expired += t.expired;
            sum.quarantined += t.quarantined;
            sum.breaker_trips += t.breaker_trips;
        }
        const std::string p = hostile ? "service.hostile." : "service.good.";
        r.set_layer(p + "submitted", double(sum.submitted));
        r.set_layer(p + "done", double(sum.completed));
        r.set_layer(p + "rejected_rate", double(sum.rejected_rate_limited));
        r.set_layer(p + "rejected_queue", double(sum.rejected_queue_full));
        r.set_layer(p + "rejected_breaker", double(sum.rejected_breaker));
        r.set_layer(p + "cancelled", double(sum.cancelled));
        r.set_layer(p + "expired", double(sum.expired));
        r.set_layer(p + "quarantined", double(sum.quarantined));
        r.set_layer(p + "breaker_trips", double(sum.breaker_trips));
    }
}

} // namespace

void
run_service_mix(const RunConfig &cfg, Report &r, Spans *sp)
{
    const Inputs in = make_inputs(cfg.seed);
    r.env["sim_threads"] = "1";
    r.env["outstanding"] = std::to_string(kGoodTenants * kWindowPerTenant);

    // Set-up: cold start (kernel build, Service + Scheduler + Machine,
    // run-loop thread) to the first well-behaved job Done.
    std::optional<service::Service> svc;
    std::vector<service::ServiceClient> clients;
    const auto t0 = Clock::now();
    const runtime::KernelSpec spec = kernels::trigger_kernel_spec(kWidth);
    svc.emplace(service_options());
    clients = register_tenants(*svc);
    {
        const auto id = clients[0].submit(spec.make_job(
            runtime::ArenaSlice::borrow(in.samples).subslice(0, kChunkBytes)));
        const auto o = clients[0].wait(id);
        r.set_e2e("setup_s", seconds_since(t0), "s", "host");
        ++r.attempted;
        if (!o || o->state != service::JobState::Done ||
            o->result.stats.accepts != in.want[0])
            r.fail("service_mix: first job failed");
    }
    if (cfg.setup_only)
        return;

    const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    const double warmup = cfg.probe ? 0.0 : kWarmupSeconds;
    const Phase u = ClosedLoop(in, spec, *svc, clients, r, nullptr, cfg.seed)
                        .run(warmup, window);
    svc.reset();
    double bare_s = 0;
    runtime::BufferPool::Stats pool;
    const SchedTotals rep = replay(in, spec, cfg.probe ? 256 : kReplayJobs,
                                   r, bare_s, pool);

    const double p50 = quantile(u.lat_s, 0.5);
    r.set_e2e("latency_ms_p50", p50 * 1e3, "ms", "host");
    r.set_e2e("latency_ms_p90", quantile(u.lat_s, 0.9) * 1e3, "ms", "host");
    r.set_e2e("goodput_per_s", double(u.lat_s.size()) / u.wall, "1/s",
              "host");
    r.set_e2e("sim_mbps", rep.sim_mbps(), "MB/s", "sim");
    r.set_e2e("peak_rss_mb", peak_rss_mb(), "MB", "host");
    r.set_named("goodput_jps", double(u.lat_s.size()) / u.wall, "1/s",
                "host");
    r.set_named("job_ms_p50", p50 * 1e3, "ms", "host");
    r.set_named("job_ms_p90", quantile(u.lat_s, 0.9) * 1e3, "ms", "host");
    r.set_named("job_ms_p99", quantile(u.lat_s, 0.99) * 1e3, "ms", "host");
    r.set_named("jobs_done", double(u.lat_s.size()), "count", "count");
    if (!sp)
        return;

    // Traced window: a fresh service, the same loop, client calls in
    // spans.  The service's own run loop is not traced.
    {
        LEDGER_SPAN(s, sp, "assembler", "assembler.kernel_build", 0);
        kernels::trigger_program(kWidth);
    }
    r.set_layer("assembler.kernel_build_ms",
                sp->total_s("assembler.kernel_build") * 1e3);
    svc.emplace(service_options());
    clients = register_tenants(*svc);
    const Phase t = ClosedLoop(in, spec, *svc, clients, r, sp, cfg.seed)
                        .run(warmup, window);
    r.set_layer("host.cpu_per_wall", t.cpu_s / t.wall);
    svc.reset();

    const double jobs_run = std::max<double>(1.0, double(t.jobs_run));
    const double replay_jobs = double(rep.jobs);
    set_sim_layer(r, rep);
    set_runtime_layer(r, rep, replay_jobs, kNumLanes);
    // Fault handling happens inside the service, not in the replay.
    r.set_layer("runtime.retries", 1000.0 * double(t.retries) / jobs_run);
    r.set_layer("runtime.quarantined",
                1000.0 * double(t.quarantined) / jobs_run);
    r.set_layer("runtime.cancelled", 1000.0 * double(t.cancelled) / jobs_run);
    r.set_layer("runtime.make_job_us",
                t.jobs_made ? t.make_job_s * 1e6 / double(t.jobs_made) : 0);
    r.set_layer("runtime.pool_reuse",
                pool.acquired ? double(pool.reused) / double(pool.acquired)
                              : 0.0);
    const std::size_t injected = sp->calls("runtime.fault_inject");
    r.set_layer("runtime.fault_inject_us",
                injected ? sp->total_s("runtime.fault_inject") * 1e6 /
                               double(injected)
                         : 0.0);
    r.set_layer("core.interp.simulate_s", rep.host_simulate_s / replay_jobs);
    r.set_layer("core.interp.ns_per_lane_cycle.trigger",
                rep.host_simulate_s * 1e9 / double(rep.sim.cycles));
    r.set_layer("service.submit_us_p50", quantile(t.submit_us, 0.5));
    r.set_layer("service.submit_us_p99", quantile(t.submit_us, 0.99));
    r.set_layer("service.client_blocked_s", t.blocked_s);
    r.set_layer("service.batch_fill",
                t.batches ? double(t.jobs_run) / (double(t.batches) * kNumLanes)
                          : 0.0);
    r.set_layer("service.overhead_us_per_job",
                t.wall * 1e6 / jobs_run - bare_s * 1e6 / replay_jobs);
    set_class_layer(r, t.stats);
    r.set_layer("trace.overhead_frac", quantile(t.lat_s, 0.5) / p50 - 1.0);
    set_span_layer(r, *sp, double(t.lat_s.size()));
}

int
determinism_service_mix(std::uint64_t seed)
{
    const Inputs in = make_inputs(seed);
    const runtime::KernelSpec spec = kernels::trigger_kernel_spec(kWidth);
    Report r;
    double host_s = 0;
    runtime::BufferPool::Stats pool;
    const SchedTotals a = replay(in, spec, kReplayJobs, r, host_s, pool);
    const SchedTotals b = replay(in, spec, kReplayJobs, r, host_s, pool);
    int bad = static_cast<int>(r.failed);
    if (a.sim != b.sim || a.wall_cycles != b.wall_cycles) {
        std::fprintf(stderr, "service_mix: replay differs between runs\n");
        ++bad;
    }
    return bad;
}

} // namespace ledger
