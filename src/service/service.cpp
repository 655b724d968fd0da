#include "service/service.hpp"

#include "core/metrics_json.hpp"
#include "runtime/executor.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace udp::service {

namespace {

/// Post-mortem reports each tenant keeps (ring, oldest dropped).
constexpr std::size_t kPostmortemsPerTenant = 8;

/// Escape a tenant name for use as a Prometheus label value
/// (backslash, double quote and newline, per the exposition format).
std::string
label_escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
        }
    }
    return out;
}

/// Registry name of one tenant-labeled series: `base{tenant="name"}`.
std::string
series(std::string_view base, std::string_view tenant)
{
    std::string s(base);
    s += "{tenant=\"";
    s += label_escape(tenant);
    s += "\"}";
    return s;
}

} // namespace

std::string_view
job_state_name(JobState s)
{
    switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Quarantined: return "quarantined";
    case JobState::Rejected: return "rejected";
    case JobState::Cancelled: return "cancelled";
    case JobState::Expired: return "expired";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Internal records.
// ---------------------------------------------------------------------------

/// One submitted job, shared between the submitting client, the jobs_
/// map and the run loop's batch vector.  Mutated only under mu_ (the
/// Scheduler communicates through control_/the report, never directly).
struct Service::JobRecord {
    JobId id = 0;
    TenantId tenant = 0;
    runtime::JobPlan plan;
    double submit_s = 0;
    double deadline_s = 0; ///< absolute (service clock); 0 = none
    JobState state = JobState::Queued;
    RejectReason reject = RejectReason::None;
    runtime::JobResult result;
    unsigned attempts = 0;
    double e2e_s = 0;
    bool degraded = false;
    bool cancel_requested = false;
    /// Deadline passed while Running: the cancel propagated into the
    /// Scheduler came from expiry, so the terminal state is Expired.
    bool expired_pending = false;
    std::size_t batch_index = 0; ///< valid while state == Running
};

/// Per-tenant state: contract, admission machinery, queue, accounting
/// and the resolved labeled metrics.  Lives behind a unique_ptr so
/// references stay stable as tenants register.
struct Service::Tenant {
    TenantOptions opt;
    TokenBucket bucket;
    CircuitBreaker breaker;
    std::deque<std::shared_ptr<JobRecord>> queue; ///< may hold tombstones
    std::size_t queued = 0;   ///< live (non-terminal) entries in queue
    std::size_t in_flight = 0;
    TenantStats st;
    std::deque<runtime::FaultReport> pms;

    runtime::Counter *c_submitted = nullptr;
    runtime::Counter *c_admitted = nullptr;
    runtime::Counter *c_degraded = nullptr;
    runtime::Counter *c_completed = nullptr;
    runtime::Counter *c_quarantined = nullptr;
    runtime::Counter *c_cancelled = nullptr;
    runtime::Counter *c_expired = nullptr;
    runtime::Counter *c_rej_rate = nullptr;
    runtime::Counter *c_rej_queue = nullptr;
    runtime::Counter *c_rej_breaker = nullptr;
    runtime::Counter *c_rej_shutdown = nullptr;
    runtime::Counter *c_rej_timeout = nullptr;
    runtime::Counter *c_trips = nullptr;
    runtime::Gauge *g_depth = nullptr;
    runtime::Histogram *h_e2e_us = nullptr;
};

// ---------------------------------------------------------------------------
// Construction / shutdown.
// ---------------------------------------------------------------------------

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)), epoch_(std::chrono::steady_clock::now())
{
    if (opts_.max_batch_jobs == 0)
        throw UdpError("Service: max_batch_jobs must be >= 1");
    if (opts_.registry) {
        registry_ = opts_.registry;
    } else {
        owned_registry_ = std::make_unique<runtime::MetricRegistry>();
        registry_ = owned_registry_.get();
    }
    telemetry_ = std::make_unique<runtime::RegistryTelemetry>(*registry_);
    control_ = std::make_unique<runtime::JobControl>(opts_.max_batch_jobs);

    runtime::SchedulerOptions sopts = opts_.sched;
    sopts.sinks.push_back(telemetry_.get());
    sopts.sinks.push_back(&postmortems_);
    sopts.control = control_.get();
    scheduler_ = std::make_unique<runtime::Scheduler>(sopts);

    loop_ = std::thread([this] { run_loop(); });
}

Service::~Service() { drain(); }

void
Service::drain()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    if (loop_.joinable())
        loop_.join();
}

double
Service::now_s() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

// ---------------------------------------------------------------------------
// Tenant registration.
// ---------------------------------------------------------------------------

TenantId
Service::register_tenant(const TenantOptions &opts)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto t = std::make_unique<Tenant>();
    t->opt = opts;
    if (t->opt.name.empty())
        t->opt.name = "tenant" + std::to_string(tenants_.size());
    if (t->opt.queue_capacity == 0)
        t->opt.queue_capacity = 1;
    t->bucket = TokenBucket(t->opt.rate_jobs_per_s, t->opt.burst, now_s());
    t->breaker = CircuitBreaker(t->opt.breaker);
    t->st.name = t->opt.name;

    const std::string &n = t->opt.name;
    auto &reg = *registry_;
    t->c_submitted = &reg.counter(series("service.jobs.submitted", n));
    t->c_admitted = &reg.counter(series("service.jobs.admitted", n));
    t->c_degraded = &reg.counter(series("service.jobs.degraded", n));
    t->c_completed = &reg.counter(series("service.jobs.completed", n));
    t->c_quarantined = &reg.counter(series("service.jobs.quarantined", n));
    t->c_cancelled = &reg.counter(series("service.jobs.cancelled", n));
    t->c_expired = &reg.counter(series("service.jobs.expired", n));
    t->c_rej_rate = &reg.counter(series("service.rejected.rate_limited", n));
    t->c_rej_queue = &reg.counter(series("service.rejected.queue_full", n));
    t->c_rej_breaker = &reg.counter(series("service.rejected.breaker", n));
    t->c_rej_shutdown = &reg.counter(series("service.rejected.shutdown", n));
    t->c_rej_timeout = &reg.counter(series("service.rejected.timeout", n));
    t->c_trips = &reg.counter(series("service.breaker.trips", n));
    t->g_depth = &reg.gauge(series("service.queue.depth", n));
    t->h_e2e_us = &reg.histogram(series("service.e2e_host_us", n));

    tenants_.push_back(std::move(t));
    return tenants_.size() - 1;
}

ServiceClient
Service::client(TenantId tenant)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (tenant >= tenants_.size())
        throw UdpError("Service::client: unknown tenant id");
    return ServiceClient(this, tenant);
}

// ---------------------------------------------------------------------------
// Submission / admission control.
// ---------------------------------------------------------------------------

void
Service::reject(JobRecord &rec, Tenant &t, RejectReason why)
{
    rec.state = JobState::Rejected;
    rec.reject = why;
    rec.e2e_s = now_s() - rec.submit_s;
    switch (why) {
    case RejectReason::RateLimited:
        ++t.st.rejected_rate_limited;
        t.c_rej_rate->add();
        break;
    case RejectReason::QueueFull:
        ++t.st.rejected_queue_full;
        t.c_rej_queue->add();
        break;
    case RejectReason::BreakerOpen:
        ++t.st.rejected_breaker;
        t.c_rej_breaker->add();
        break;
    case RejectReason::ShuttingDown:
        ++t.st.rejected_shutdown;
        t.c_rej_shutdown->add();
        break;
    case RejectReason::Timeout:
        ++t.st.rejected_timeout;
        t.c_rej_timeout->add();
        break;
    case RejectReason::None:
        break;
    }
}

JobId
Service::submit(TenantId tenant, runtime::JobPlan plan,
                const SubmitOptions &opts)
{
    runtime::validate_plan(plan);
    std::unique_lock<std::mutex> lk(mu_);
    if (tenant >= tenants_.size())
        throw UdpError("Service::submit: unknown tenant id");
    Tenant &t = *tenants_[tenant];

    double now = now_s();
    auto rec = std::make_shared<JobRecord>();
    rec->id = next_id_++;
    rec->tenant = tenant;
    rec->plan = std::move(plan);
    rec->submit_s = now;
    if (opts.deadline_s > 0)
        rec->deadline_s = now + opts.deadline_s;
    jobs_[rec->id] = rec;
    ++t.st.submitted;
    t.c_submitted->add();

    bool degraded = false;
    if (stop_) {
        reject(*rec, t, RejectReason::ShuttingDown);
        return rec->id;
    }
    if (t.breaker.open(now)) {
        reject(*rec, t, RejectReason::BreakerOpen);
        return rec->id;
    }

    switch (t.opt.overflow) {
    case OverflowPolicy::Shed:
        if (t.queued >= t.opt.queue_capacity) {
            reject(*rec, t, RejectReason::QueueFull);
            return rec->id;
        }
        if (!t.bucket.try_take(now)) {
            reject(*rec, t, RejectReason::RateLimited);
            return rec->id;
        }
        break;

    case OverflowPolicy::Block: {
        const double give_up = now + t.opt.block_timeout_s;
        for (;;) {
            if (stop_) {
                reject(*rec, t, RejectReason::ShuttingDown);
                return rec->id;
            }
            now = now_s();
            const bool space = t.queued < t.opt.queue_capacity;
            const double to_token = t.bucket.seconds_to_token(now);
            if (space && to_token <= 0.0) {
                t.bucket.try_take(now);
                break;
            }
            if (now >= give_up) {
                reject(*rec, t, RejectReason::Timeout);
                return rec->id;
            }
            // Queue space arrivals signal cv_space_; token refills are
            // time-driven, so bound the nap by the refill horizon.
            double nap = give_up - now;
            if (space)
                nap = std::min(nap, std::max(to_token, 1e-4));
            else
                nap = std::min(nap, 0.05);
            cv_space_.wait_for(lk, std::chrono::duration<double>(nap));
        }
        break;
    }

    case OverflowPolicy::Degrade: {
        // Cheapen instead of refusing: over-rate or over-capacity jobs
        // are admitted with the degraded cycle budget, up to a hard cap
        // of twice the queue (past that even degraded work sheds).
        if (t.queued >= 2 * t.opt.queue_capacity) {
            reject(*rec, t, RejectReason::QueueFull);
            return rec->id;
        }
        const bool have_token = t.bucket.try_take(now);
        degraded = !have_token || t.queued >= t.opt.queue_capacity;
        break;
    }
    }

    if (degraded) {
        rec->degraded = true;
        rec->plan.max_cycles = t.opt.degraded_max_cycles;
        ++t.st.degraded;
        t.c_degraded->add();
    }
    t.queue.push_back(rec);
    ++t.queued;
    ++queued_total_;
    t.g_depth->set(static_cast<double>(t.queued));
    ++t.st.admitted;
    t.c_admitted->add();
    cv_work_.notify_one();
    return rec->id;
}

// ---------------------------------------------------------------------------
// Observation: poll / wait / cancel.
// ---------------------------------------------------------------------------

void
Service::make_terminal(JobRecord &rec, JobState state, double now)
{
    Tenant &t = *tenants_[rec.tenant];
    rec.state = state;
    rec.e2e_s = now - rec.submit_s;
    switch (state) {
    case JobState::Done:
        ++t.st.completed;
        t.c_completed->add();
        break;
    case JobState::Quarantined:
        ++t.st.quarantined;
        t.c_quarantined->add();
        break;
    case JobState::Cancelled:
        ++t.st.cancelled;
        t.c_cancelled->add();
        break;
    case JobState::Expired:
        ++t.st.expired;
        t.c_expired->add();
        break;
    default:
        break;
    }
    t.h_e2e_us->record(static_cast<std::uint64_t>(rec.e2e_s * 1e6));
}

JobOutcome
Service::snapshot_and_maybe_consume(const std::shared_ptr<JobRecord> &rec)
{
    JobOutcome out;
    out.id = rec->id;
    out.state = rec->state;
    out.reject = rec->reject;
    out.attempts = rec->attempts;
    if (out.terminal()) {
        out.result = std::move(rec->result);
        out.e2e_seconds = rec->e2e_s;
        jobs_.erase(rec->id); // consumed: the id is forgotten
    } else {
        out.e2e_seconds = now_s() - rec->submit_s;
    }
    return out;
}

std::optional<JobOutcome>
Service::poll(JobId id)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    auto rec = it->second;
    maybe_expire(*rec, now_s());
    return snapshot_and_maybe_consume(rec);
}

std::optional<JobOutcome>
Service::wait(JobId id, double timeout_s)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    auto rec = it->second;
    const double start = now_s();
    for (;;) {
        double now = now_s();
        maybe_expire(*rec, now);
        if (rec->state != JobState::Queued && rec->state != JobState::Running)
            break;
        if (timeout_s >= 0 && now - start >= timeout_s)
            break; // non-consuming snapshot below
        double nap = 0.05;
        if (timeout_s >= 0)
            nap = std::min(nap, timeout_s - (now - start));
        if (rec->deadline_s > 0 && rec->deadline_s > now)
            nap = std::min(nap, rec->deadline_s - now);
        cv_done_.wait_for(lk, std::chrono::duration<double>(
                                  std::max(nap, 1e-4)));
    }
    return snapshot_and_maybe_consume(rec);
}

bool
Service::cancel(JobId id)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false; // unknown or already consumed: no-op
    JobRecord &rec = *it->second;
    if (rec.state == JobState::Queued) {
        // Cancel-before-stage: terminal immediately; the queue entry
        // becomes a tombstone the next gather pops and skips.
        Tenant &t = *tenants_[rec.tenant];
        --t.queued;
        --queued_total_;
        t.g_depth->set(static_cast<double>(t.queued));
        make_terminal(rec, JobState::Cancelled, now_s());
        cv_done_.notify_all();
        cv_space_.notify_all();
        return true;
    }
    if (rec.state == JobState::Running) {
        // Cancel-mid-batch: flag into the Scheduler; the terminal state
        // arrives with the batch report.
        rec.cancel_requested = true;
        control_->cancel(rec.batch_index);
        return true;
    }
    return false; // already terminal: cancel-after-completion is a no-op
}

bool
Service::maybe_expire(JobRecord &rec, double now)
{
    if (rec.deadline_s <= 0 || now < rec.deadline_s)
        return false;
    if (rec.state == JobState::Queued) {
        Tenant &t = *tenants_[rec.tenant];
        --t.queued;
        --queued_total_;
        t.g_depth->set(static_cast<double>(t.queued));
        make_terminal(rec, JobState::Expired, now);
        cv_done_.notify_all();
        cv_space_.notify_all();
        return true;
    }
    if (rec.state == JobState::Running) {
        if (!rec.expired_pending) {
            rec.expired_pending = true;
            control_->cancel(rec.batch_index);
        }
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// The run loop.
// ---------------------------------------------------------------------------

auto
Service::gather_batch() -> std::vector<std::shared_ptr<JobRecord>>
{
    const double now = now_s();
    std::vector<std::shared_ptr<JobRecord>> batch;
    if (tenants_.empty())
        return batch;
    bool progress = true;
    while (progress && batch.size() < opts_.max_batch_jobs) {
        progress = false;
        for (std::size_t k = 0;
             k < tenants_.size() && batch.size() < opts_.max_batch_jobs; ++k) {
            Tenant &t = *tenants_[(rr_cursor_ + k) % tenants_.size()];
            // A tripped breaker holds the tenant's queue back too —
            // except under drain, which is work-conserving.
            if (!stop_ && t.breaker.open(now))
                continue;
            // The tenant's next live job; tombstones (cancelled or
            // expired while queued) are popped on the way.
            while (!t.queue.empty()) {
                auto rec = std::move(t.queue.front());
                t.queue.pop_front();
                if (rec->state != JobState::Queued || maybe_expire(*rec, now))
                    continue;
                --t.queued;
                --queued_total_;
                ++t.in_flight;
                batch.push_back(std::move(rec));
                progress = true;
                break;
            }
            t.g_depth->set(static_cast<double>(t.queued));
        }
        rr_cursor_ = (rr_cursor_ + 1) % tenants_.size();
    }
    if (!batch.empty())
        cv_space_.notify_all();
    return batch;
}

void
Service::finalize_batch(const std::vector<std::shared_ptr<JobRecord>> &batch,
                        runtime::ScheduleReport &&rep)
{
    const double now = now_s();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        JobRecord &rec = *batch[i];
        Tenant &t = *tenants_[rec.tenant];
        --t.in_flight;
        runtime::JobResult &r = rep.jobs[i];
        rec.attempts = r.attempts;
        JobState state;
        if (r.cancelled)
            state = rec.expired_pending ? JobState::Expired
                                        : JobState::Cancelled;
        else if (r.quarantined)
            state = JobState::Quarantined;
        else
            state = JobState::Done;
        rec.result = std::move(r);
        if (state == JobState::Quarantined || state == JobState::Done) {
            const unsigned before = t.breaker.trips();
            t.breaker.record(state == JobState::Quarantined, now);
            if (t.breaker.trips() != before) {
                t.st.breaker_trips = t.breaker.trips();
                t.c_trips->add(t.breaker.trips() - before);
            }
        }
        make_terminal(rec, state, now);
    }

    // Route this batch's post-mortems to their tenants, then empty the
    // sink for the next batch (only the run loop touches it).
    for (runtime::FaultReport &fr : postmortems_.reports()) {
        Tenant &t = *tenants_[batch[fr.job_index]->tenant];
        t.pms.push_back(std::move(fr));
        while (t.pms.size() > kPostmortemsPerTenant)
            t.pms.pop_front();
    }
    postmortems_.reports().clear();

    ++batches_;
    waves_ += rep.waves.size();
    jobs_run_ += batch.size();
}

void
Service::run_loop()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_work_.wait(lk, [&] {
            return stop_ || queued_total_ > 0 || !recycle_list_.empty();
        });
        if (!recycle_list_.empty()) {
            // Only this thread touches the scheduler (and its pool), so
            // client recycles are applied here, between batches.
            for (auto &r : recycle_list_)
                scheduler_->recycle(std::move(r));
            recycle_list_.clear();
        }
        if (queued_total_ == 0) {
            if (stop_)
                break;
            continue;
        }
        auto batch = gather_batch();
        if (batch.empty()) {
            if (queued_total_ > 0 && !stop_) {
                // Everything queued belongs to breaker-open tenants:
                // nap until the earliest cool-down can end.
                const double now = now_s();
                double nap = 0.05;
                for (const auto &t : tenants_)
                    if (t->queued > 0 && t->breaker.open(now))
                        nap = std::min(nap,
                                       std::max(t->breaker.remaining(now),
                                                1e-3));
                cv_work_.wait_for(lk, std::chrono::duration<double>(nap));
            }
            continue;
        }

        control_->reset();
        std::vector<runtime::JobPlan> plans;
        plans.reserve(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            JobRecord &rec = *batch[i];
            rec.state = JobState::Running;
            rec.batch_index = i;
            plans.push_back(rec.plan); // views + shared_ptrs, no payload
            if (rec.cancel_requested)
                control_->cancel(i);
        }

        lk.unlock();
        runtime::ScheduleReport rep = scheduler_->run(plans);
        lk.lock();

        finalize_batch(batch, std::move(rep));
        cv_space_.notify_all();
        cv_done_.notify_all();
    }
    drained_ = true;
    cv_done_.notify_all();
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

ServiceStats
Service::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats s;
    s.tenants.reserve(tenants_.size());
    for (const auto &t : tenants_) {
        TenantStats ts = t->st;
        ts.queue_depth = t->queued;
        ts.in_flight = t->in_flight;
        ts.breaker_trips = t->breaker.trips();
        s.tenants.push_back(std::move(ts));
    }
    s.batches = batches_;
    s.waves = waves_;
    s.jobs_run = jobs_run_;
    s.draining = stop_;
    s.drained = drained_;
    return s;
}

std::vector<runtime::FaultReport>
Service::postmortems(TenantId tenant) const
{
    std::lock_guard<std::mutex> lk(mu_);
    if (tenant >= tenants_.size())
        return {};
    const Tenant &t = *tenants_[tenant];
    return {t.pms.begin(), t.pms.end()};
}

std::string
Service::prometheus_text() const
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto &t : tenants_)
            t->g_depth->set(static_cast<double>(t->queued));
    }
    return registry_->prometheus_text();
}

std::string
Service::metrics_json() const
{
    ServiceStats s = stats();
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("service").begin_object();
    w.field("batches", s.batches);
    w.field("waves", s.waves);
    w.field("jobs_run", s.jobs_run);
    w.field("draining", s.draining);
    w.field("drained", s.drained);
    w.key("tenants").begin_array();
    for (const TenantStats &t : s.tenants) {
        w.begin_object();
        w.field("name", t.name);
        w.field("submitted", t.submitted);
        w.field("admitted", t.admitted);
        w.field("degraded", t.degraded);
        w.field("completed", t.completed);
        w.field("quarantined", t.quarantined);
        w.field("cancelled", t.cancelled);
        w.field("expired", t.expired);
        w.field("rejected_rate_limited", t.rejected_rate_limited);
        w.field("rejected_queue_full", t.rejected_queue_full);
        w.field("rejected_breaker", t.rejected_breaker);
        w.field("rejected_shutdown", t.rejected_shutdown);
        w.field("rejected_timeout", t.rejected_timeout);
        w.field("breaker_trips", t.breaker_trips);
        w.field("queue_depth", std::uint64_t{t.queue_depth});
        w.field("in_flight", std::uint64_t{t.in_flight});
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.key("metrics");
    registry_->write_json(w);
    w.end_object();
    return os.str();
}

void
Service::recycle(JobOutcome &&outcome)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        recycle_list_.push_back(std::move(outcome.result));
    }
    cv_work_.notify_one();
}

} // namespace udp::service
