/**
 * @file
 * udpd's core: an always-on, multi-tenant job service wrapping the wave
 * Scheduler (docs/SERVICE.md).
 *
 * Everything below the Scheduler is a batch world: one caller, one
 * vector of JobPlans, one report.  `Service` provides the always-on
 * shape the ROADMAP's `udpd` item asks for: many concurrent in-process
 * clients submit jobs into bounded per-tenant queues, a dedicated run
 * loop drains them through one Scheduler in round-robin batches, and
 * the robustness surface keeps the service responsive when tenants
 * misbehave or demand exceeds capacity:
 *
 *  - *Admission control*: a per-tenant token bucket (admission.hpp)
 *    caps each tenant's sustained submission rate; over-rate and
 *    over-capacity submissions hit the tenant's explicit
 *    `OverflowPolicy` — block with a timeout, shed with a `Rejected`
 *    outcome, or degrade to a smaller per-job cycle budget.
 *  - *Fair dispatch*: queued jobs are packed into Scheduler batches
 *    round-robin, one job per tenant per pass, so one noisy tenant
 *    cannot starve the rest.
 *  - *Deadlines & cancellation*: a queued job whose deadline passes is
 *    `Expired` without running; client `cancel()` propagates into the
 *    Scheduler through a `JobControl` handle — before staging it
 *    removes the job from the queue, mid-wave it discards the
 *    attempt's result and suppresses retries.
 *  - *Circuit breakers*: a tenant whose jobs keep quarantining trips
 *    into cool-down (admission.hpp) instead of burning retry budget.
 *  - *Per-tenant post-mortems*: the service's own `PostmortemSink`
 *    captures every faulted run of a batch; after the batch the run
 *    loop moves each report into its tenant's ring of 8, so a tenant
 *    sees only its own faults.
 *  - *Graceful drain*: `drain()` stops admitting, finishes queued and
 *    in-flight waves (breakers no longer hold jobs back), flushes
 *    telemetry and post-mortems, and joins the run loop.
 *
 * The simulated results a client receives are bit-identical to what a
 * direct `Scheduler::run` of the same plans would produce (pinned by
 * Service.ResultsBitIdenticalToDirectScheduler): the service adds
 * policy, never semantics.
 */
#pragma once

#include "runtime/postmortem.hpp"
#include "runtime/scheduler.hpp"
#include "service/admission.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace udp::service {

using TenantId = std::size_t;
using JobId = std::uint64_t;

/// What happens when a submission exceeds the tenant's token bucket or
/// queue capacity (docs/SERVICE.md "Overflow policies").
enum class OverflowPolicy : std::uint8_t {
    /// Wait (up to `TenantOptions::block_timeout_s`) for a token and a
    /// queue slot; reject with `Timeout` when the wait expires.
    Block,
    /// Reject immediately (`RateLimited` / `QueueFull`).
    Shed,
    /// Admit anyway with `TenantOptions::degraded_max_cycles` as the
    /// job's cycle budget — load-shedding by cheapening work instead of
    /// refusing it.  The queue still hard-caps at twice its capacity.
    Degrade,
};

/// One tenant's contract with the service.
struct TenantOptions {
    std::string name;               ///< label on stats/metrics/postmortems
    double rate_jobs_per_s = 0;     ///< token refill rate (0 = no refill)
    double burst = 64;              ///< token-bucket capacity
    std::size_t queue_capacity = 256;
    OverflowPolicy overflow = OverflowPolicy::Shed;
    double block_timeout_s = 0.25;  ///< Block policy wait cap
    /// Degrade policy budget (simulated cycles) for over-rate jobs.
    std::uint64_t degraded_max_cycles = 1u << 20;
    CircuitBreaker::Options breaker;
};

/// Terminal and in-flight states of one submitted job.
enum class JobState : std::uint8_t {
    Queued,      ///< admitted, waiting for a batch
    Running,     ///< in the batch the run loop is currently executing
    Done,        ///< completed; JobOutcome::result holds the payload
    Quarantined, ///< faulted on every attempt (JobOutcome::result.fault)
    Rejected,    ///< never admitted (JobOutcome::reject says why)
    Cancelled,   ///< client cancel() won (possibly mid-wave)
    Expired,     ///< deadline passed before the job could finish
};

/// Why a submission was rejected.
enum class RejectReason : std::uint8_t {
    None,
    RateLimited,  ///< token bucket empty (Shed policy)
    QueueFull,    ///< tenant queue at capacity (Shed / Degrade hard cap)
    BreakerOpen,  ///< tenant in circuit-breaker cool-down
    ShuttingDown, ///< service draining
    Timeout,      ///< Block policy wait expired
};

std::string_view job_state_name(JobState s);

/// Per-submission knobs.
struct SubmitOptions {
    /// Relative deadline in host seconds (0 = none): a job still queued
    /// when it expires is dropped as `Expired`; a job running past it
    /// is cancelled into the Scheduler (mid-wave discard).
    double deadline_s = 0;
};

/**
 * Snapshot of one job's state; terminal outcomes are *consumed* — the
 * first poll()/wait() that observes a terminal state takes ownership
 * of the result and the service forgets the job id.
 */
struct JobOutcome {
    JobId id = 0;
    JobState state = JobState::Queued;
    RejectReason reject = RejectReason::None;
    /// Architectural result (Done / Quarantined; default elsewhere).
    /// Bit-identical to a direct Scheduler::run of the same plan.
    runtime::JobResult result;
    unsigned attempts = 0;     ///< scheduler runs the job received
    double e2e_seconds = 0;    ///< submit → terminal, host clock
    bool terminal() const { return state != JobState::Queued &&
                                   state != JobState::Running; }
};

/// Monotonic per-tenant accounting (ServiceStats::tenants).
struct TenantStats {
    std::string name;
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t degraded = 0;   ///< admitted with a degraded budget
    std::uint64_t rejected_rate_limited = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_breaker = 0;
    std::uint64_t rejected_shutdown = 0;
    std::uint64_t rejected_timeout = 0;
    std::uint64_t completed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t expired = 0;
    std::uint64_t breaker_trips = 0;
    std::size_t queue_depth = 0;  ///< current (not monotone)
    std::size_t in_flight = 0;    ///< current batch occupancy

    std::uint64_t rejected_total() const {
        return rejected_rate_limited + rejected_queue_full +
               rejected_breaker + rejected_shutdown + rejected_timeout;
    }
};

/// Whole-service snapshot (Service::stats()).
struct ServiceStats {
    std::vector<TenantStats> tenants; ///< indexed by TenantId
    std::uint64_t batches = 0;        ///< scheduler runs the loop issued
    std::uint64_t waves = 0;          ///< waves across those runs
    std::uint64_t jobs_run = 0;       ///< jobs handed to the Scheduler
    bool draining = false;
    bool drained = false;
};

/// Service construction knobs.
struct ServiceOptions {
    /// Scheduler configuration the run loop uses (retry policy, host
    /// threads, cycle budgets...).  `control` is managed by the service
    /// itself, which also appends its registry sink and its post-mortem
    /// sink to `sinks`: caller sinks (a SpanTracer, or a PostmortemSink
    /// writing report files) still see every event, from the run-loop
    /// thread — read them after drain().
    runtime::SchedulerOptions sched;
    /// Jobs per Scheduler batch (>= 1, else construction throws; one
    /// 64-lane wave by default).
    unsigned max_batch_jobs = kNumLanes;
    /// External metric registry to publish into (nullptr = the service
    /// owns a private one; see Service::registry()).
    runtime::MetricRegistry *registry = nullptr;
};

class ServiceClient;

/**
 * The always-on multi-tenant front-end.  Thread-safe throughout:
 * submit/poll/wait/cancel may be called from any number of client
 * threads while the internal run loop executes batches.
 */
class Service
{
  public:
    /// Throws UdpError when `opts.sched` is unusable (see
    /// SchedulerOptions), before the run loop starts.
    explicit Service(ServiceOptions opts = {});
    /// Drains (stops admitting, finishes queued + in-flight) and joins.
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /// Add a tenant; the returned id is its handle (and stats index).
    TenantId register_tenant(const TenantOptions &opts);

    /// Tenant-bound convenience handle (cheap, copyable).
    ServiceClient client(TenantId tenant);

    /**
     * Submit a job for `tenant`.  Admission control runs here: the
     * outcome may already be terminal (`Rejected`) when the tenant is
     * over rate/capacity under a Shed policy, in breaker cool-down, or
     * the service is draining.  The returned id is always valid to
     * poll exactly once.  The plan's arena stays pinned by the plan
     * itself (runtime/arena.hpp) — submission never copies payload.
     * Throws UdpError, recording nothing, for an unknown tenant or a
     * plan `runtime::validate_plan` refuses.
     */
    JobId submit(TenantId tenant, runtime::JobPlan plan,
                 const SubmitOptions &opts = {});

    /**
     * Observe a job.  Non-terminal states return a snapshot and keep
     * the job alive; the first observation of a terminal state consumes
     * it (moves the result out and forgets the id).  nullopt: unknown
     * or already-consumed id.
     */
    std::optional<JobOutcome> poll(JobId id);

    /**
     * Block until the job is terminal (or `timeout_s` elapses, when
     * >= 0), then consume it as poll() does.  Enforces the job's
     * deadline while waiting: a queued job that expires is dropped, a
     * running one is cancelled into the Scheduler.
     */
    std::optional<JobOutcome> wait(JobId id, double timeout_s = -1.0);

    /**
     * Request cancellation.  Returns true when the request can still
     * change the job's fate (it was queued or running); false for
     * terminal/unknown jobs (a cancel after completion is a no-op).
     * The terminal state arrives asynchronously — observe it via
     * poll()/wait().
     */
    bool cancel(JobId id);

    /**
     * Graceful shutdown: stop admitting (submissions reject with
     * `ShuttingDown`), finish every queued and in-flight job (breaker
     * cool-downs no longer gate dispatch — drain is work-conserving),
     * flush telemetry gauges, then stop the run loop.  Idempotent;
     * implied by the destructor.  Outcomes remain pollable afterwards.
     */
    void drain();

    ServiceStats stats() const;

    /// Tenant's last 8 post-mortem reports, oldest first — only its
    /// own (a tenant never sees another tenant's faults).
    std::vector<runtime::FaultReport> postmortems(TenantId tenant) const;

    /// The registry all service metrics land in (the constructor-given
    /// one, else the service-owned instance).
    runtime::MetricRegistry &registry() { return *registry_; }

    /// Prometheus-style text exposition of registry() — the /metrics
    /// payload (labeled per-tenant series; docs/SERVICE.md).
    std::string prometheus_text() const;

    /// JSON dump of registry() plus a "service" stats block.
    std::string metrics_json() const;

    /// Return a consumed outcome's buffers to the scheduler's pool so
    /// steady-state serving loops recycle instead of reallocating.
    void recycle(JobOutcome &&outcome);

  private:
    struct JobRecord;
    struct Tenant;

    double now_s() const;
    void run_loop();
    /// Build the next batch under the lock (round-robin, one job per
    /// tenant per pass, deadline sweep); returns records in batch order.
    std::vector<std::shared_ptr<JobRecord>> gather_batch();
    void finalize_batch(const std::vector<std::shared_ptr<JobRecord>> &batch,
                        runtime::ScheduleReport &&rep);
    void reject(JobRecord &rec, Tenant &t, RejectReason why);
    /// Expire a queued/running job whose deadline passed; returns true
    /// when the record is (now) on an expiry path.
    bool maybe_expire(JobRecord &rec, double now);
    JobOutcome snapshot_and_maybe_consume(const std::shared_ptr<JobRecord> &rec);
    void make_terminal(JobRecord &rec, JobState state, double now);

    ServiceOptions opts_;
    std::unique_ptr<runtime::MetricRegistry> owned_registry_;
    runtime::MetricRegistry *registry_;
    std::unique_ptr<runtime::RegistryTelemetry> telemetry_;
    /// This service's post-mortem capture: every faulted run of a batch,
    /// moved into the owning tenant's ring by finalize_batch.  Only the
    /// run-loop thread touches it.
    runtime::PostmortemSink postmortems_;
    std::unique_ptr<runtime::Scheduler> scheduler_;

    mutable std::mutex mu_;
    std::condition_variable cv_work_;  ///< run loop: work available
    std::condition_variable cv_space_; ///< Block submitters: queue space
    std::condition_variable cv_done_;  ///< waiters: job became terminal
    std::vector<std::unique_ptr<Tenant>> tenants_;
    std::map<JobId, std::shared_ptr<JobRecord>> jobs_;
    JobId next_id_ = 1;
    std::size_t queued_total_ = 0;
    bool stop_ = false;
    bool drained_ = false;
    std::uint64_t batches_ = 0;
    std::uint64_t waves_ = 0;
    std::uint64_t jobs_run_ = 0;
    /// Persistent cancellation handle shared with the Scheduler (sized
    /// max_batch_jobs, re-armed between batches; client cancels flag
    /// the running job's batch index into it at any time).
    std::unique_ptr<runtime::JobControl> control_;
    /// Consumed results handed back via recycle(); drained into the
    /// scheduler's BufferPool by the run loop between batches, so
    /// clients never touch the pool concurrently with a harvest.
    std::vector<runtime::JobResult> recycle_list_;
    std::size_t rr_cursor_ = 0; ///< round-robin position

    std::chrono::steady_clock::time_point epoch_;
    std::thread loop_;
};

/// Tenant-bound handle: the client-facing API of docs/SERVICE.md.
/// Copyable and thread-safe (it only forwards to the Service).
class ServiceClient
{
  public:
    ServiceClient() = default;
    ServiceClient(Service *svc, TenantId tenant)
        : svc_(svc), tenant_(tenant) {}

    TenantId tenant() const { return tenant_; }

    JobId submit(runtime::JobPlan plan, const SubmitOptions &opts = {}) {
        return svc_->submit(tenant_, std::move(plan), opts);
    }
    std::optional<JobOutcome> poll(JobId id) { return svc_->poll(id); }
    std::optional<JobOutcome> wait(JobId id, double timeout_s = -1.0) {
        return svc_->wait(id, timeout_s);
    }
    bool cancel(JobId id) { return svc_->cancel(id); }
    std::vector<runtime::FaultReport> postmortems() const {
        return svc_->postmortems(tenant_);
    }

  private:
    Service *svc_ = nullptr;
    TenantId tenant_ = 0;
};

} // namespace udp::service
