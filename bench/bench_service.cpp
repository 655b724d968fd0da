/**
 * @file
 * udp_service under load: admission control, backpressure and fault
 * isolation in the always-on multi-tenant service (docs/SERVICE.md).
 *
 * Methodology: first a closed-loop calibration run measures the
 * service's capacity (jobs/s through the wave scheduler for the
 * trigger-kernel corpus on this host).  Then three open-loop scenarios
 * run Poisson arrivals over N well-behaved tenant threads plus one
 * *hostile* tenant submitting the FaultInjector corpus (poisoned
 * programs and forced traps), at 0.5x, 1x and 2x of measured capacity.
 * Every tenant's token bucket is pinned at capacity/N either way, so
 * the overload scenario must shed (RateLimited/QueueFull) rather than
 * collapse, the hostile tenant's quarantines trip its circuit breaker,
 * and well-behaved goodput at 2x should hold within ~10% of the 1x
 * run — the degradation contract CI gates on.
 *
 * Reported per scenario: goodput (well-behaved completions/s), shed /
 * cancelled / quarantined / expired counts, and p50/p99/p999 e2e host
 * latency of well-behaved jobs.  A slice of well-behaved submissions is
 * cancelled right after submit to exercise the cancellation path under
 * load.
 *
 * Flags: --json <path> (metrics.* carries the per-scenario numbers the
 * CI gate reads), --metrics <path> (Prometheus exposition of the
 * shared registry, including the per-tenant labeled series; validated
 * by tools/check_exposition.py), --threads N, --tenants N (well-behaved
 * tenants, 1..64, default 3), --window S (seconds per scenario,
 * 0.1..600, default 1.0), --postmortem <dir> (every faulted run's
 * FaultReport JSON, written by the Service's scheduler through the
 * bench's PostmortemSink).  A --tenants or --window value that does not
 * parse in full or leaves its range exits 2 with a message naming the
 * flag.
 */
#include "support.hpp"

#include "kernels/trigger.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "service/service.hpp"
#include "workloads/generators.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace {

using namespace udp;
using namespace udp::bench;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

double
exp_draw(std::uint64_t &state, double rate_per_s)
{
    state = mix64(state);
    const double u =
        (double(state >> 11) + 0.5) * (1.0 / 9007199254740992.0);
    return -std::log(u) / rate_per_s;
}

double
elapsed_s(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

/// Service options publishing into `reg`.  The Service feeds `reg`
/// through its own RegistryTelemetry, so the bench-wide --metrics sink
/// over the same registry is dropped: each event must count once.
service::ServiceOptions
service_options(runtime::MetricRegistry &reg)
{
    service::ServiceOptions so;
    so.sched = sched_options();
    std::erase_if(so.sched.sinks, [&reg](runtime::TelemetrySink *s) {
        auto *rt = dynamic_cast<runtime::RegistryTelemetry *>(s);
        return rt && &rt->registry() == &reg;
    });
    so.registry = &reg;
    return so;
}

/// Closed-loop capacity probe: one unthrottled tenant, `jobs` jobs,
/// measured from first submission to last completion.
double
calibrate_capacity(const std::vector<runtime::JobPlan> &corpus,
                   runtime::MetricRegistry &reg, unsigned jobs)
{
    service::Service svc(service_options(reg));
    service::TenantOptions topt;
    topt.name = "calibrate";
    topt.rate_jobs_per_s = 0; // no refill...
    topt.burst = jobs;        // ...burst covers the whole probe
    topt.queue_capacity = jobs;
    auto client = svc.client(svc.register_tenant(topt));

    const auto start = std::chrono::steady_clock::now();
    std::vector<service::JobId> ids;
    ids.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        ids.push_back(client.submit(corpus[i % corpus.size()]));
    for (auto id : ids) {
        auto out = client.wait(id, 60.0);
        if (out && out->state == service::JobState::Done)
            svc.recycle(std::move(*out));
    }
    const double secs = elapsed_s(start);
    svc.drain();
    return secs > 0 ? jobs / secs : 0;
}

struct ScenarioResult {
    std::uint64_t submitted = 0;
    std::uint64_t done = 0;      ///< all tenants
    std::uint64_t good_done = 0; ///< well-behaved tenants only
    std::uint64_t shed = 0;      ///< rejections, all reasons
    std::uint64_t cancelled = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t expired = 0;
    std::uint64_t breaker_trips = 0;
    double goodput_jps = 0; ///< good_done / window
    std::uint64_t p50_us = 0, p99_us = 0, p999_us = 0;
};

/// One open-loop scenario: `n_good` well-behaved tenants at
/// `arrival_rate` each plus one hostile tenant, token buckets pinned
/// at `token_rate`, for `window` seconds.
ScenarioResult
run_scenario(const std::vector<runtime::JobPlan> &corpus,
             runtime::MetricRegistry &reg, unsigned n_good,
             double arrival_rate, double token_rate, double window,
             std::uint64_t seed)
{
    service::ServiceOptions so = service_options(reg);
    so.sched.retry.max_attempts = 2;
    service::Service svc(so);

    std::vector<service::ServiceClient> clients;
    for (unsigned i = 0; i <= n_good; ++i) {
        const bool is_hostile = i == n_good;
        service::TenantOptions topt;
        topt.name = is_hostile ? "hostile" : "tenant" + std::to_string(i);
        topt.rate_jobs_per_s = token_rate;
        topt.burst = 16;
        topt.queue_capacity = 256;
        topt.overflow = service::OverflowPolicy::Shed;
        clients.push_back(svc.client(svc.register_tenant(topt)));
    }

    runtime::Histogram good_e2e_us;
    std::mutex hist_mu; // Histogram::record is lock-free; merge isn't needed

    std::vector<std::thread> workers;
    for (unsigned i = 0; i <= n_good; ++i) {
        const bool is_hostile = i == n_good;
        workers.emplace_back([&, i, is_hostile] {
            auto client = clients[i];
            std::uint64_t rng = seed ^ (std::uint64_t(i + 1) << 32);
            runtime::FaultInjector inj(rng ^ 0xF01Dull);
            std::vector<service::JobId> ids;
            unsigned n = 0;
            const auto start = std::chrono::steady_clock::now();
            double next_arrival = 0;
            while (elapsed_s(start) < window) {
                const double now = elapsed_s(start);
                if (now < next_arrival) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(
                            std::min(next_arrival - now, 0.005)));
                    continue;
                }
                next_arrival = now + exp_draw(rng, arrival_rate);
                runtime::JobPlan plan = corpus[n % corpus.size()];
                if (is_hostile) {
                    if (n % 2 == 0)
                        inj.poison_program(plan);
                    else
                        inj.force_trap(plan, 500 + inj.next_below(2000), 1);
                }
                const auto id = client.submit(std::move(plan));
                // Exercise cancellation under load: a slice of the
                // well-behaved stream is cancelled right after submit.
                if (!is_hostile && n % 16 == 7)
                    client.cancel(id);
                ids.push_back(id);
                ++n;
            }
            for (auto id : ids) {
                auto out = client.wait(id, 60.0);
                if (!out)
                    continue;
                if (!is_hostile && out->state == service::JobState::Done) {
                    good_e2e_us.record(
                        std::uint64_t(out->e2e_seconds * 1e6));
                    svc.recycle(std::move(*out));
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    svc.drain();

    ScenarioResult r;
    const auto stats = svc.stats();
    for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
        const auto &t = stats.tenants[i];
        const bool is_hostile = i == n_good;
        r.submitted += t.submitted;
        r.done += t.completed;
        if (!is_hostile)
            r.good_done += t.completed;
        r.shed += t.rejected_total();
        r.cancelled += t.cancelled;
        r.quarantined += t.quarantined;
        r.expired += t.expired;
        r.breaker_trips += t.breaker_trips;
    }
    r.goodput_jps = r.good_done / window;
    const auto h = good_e2e_us.snapshot();
    r.p50_us = h.percentile(0.50);
    r.p99_us = h.percentile(0.99);
    r.p999_us = h.percentile(0.999);
    return r;
}

const char *
arg_after(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

/// The number after `flag` (`def` when the flag is absent).  A value
/// that does not parse in full, or lies outside [lo, hi], ends the
/// process with exit status 2 and a message naming the flag.
double
number_after(int argc, char **argv, const char *flag, double def,
             double lo, double hi, bool integral)
{
    const char *s = arg_after(argc, argv, flag);
    if (!s)
        return def;
    char *end = nullptr;
    errno = 0;
    const double v = integral ? double(std::strtoll(s, &end, 10))
                              : std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE || !(v >= lo) ||
        !(v <= hi)) {
        std::fprintf(stderr,
                     "bench_service: %s wants %s in %g..%g, got '%s'\n",
                     flag, integral ? "an integer" : "a number", lo, hi, s);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    // The gates need at least one well-behaved tenant's goodput.
    const unsigned n_good =
        unsigned(number_after(argc, argv, "--tenants", 3, 1, 64, true));
    const double window =
        number_after(argc, argv, "--window", 1.0, 0.1, 600, false);
    MetricsRecorder rec("bench_service", argc, argv);

    const Bytes packed = workloads::waveform(200'000, 13);
    const Bytes samples = kernels::samples_from_bits(packed);
    const auto spec = kernels::trigger_kernel_spec(6);
    const auto corpus = runtime::chunk_jobs(
        spec, runtime::ArenaSlice::borrow(samples),
        std::max<std::size_t>(1, ceil_div(samples.size(), kNumLanes)));

    const double capacity =
        calibrate_capacity(corpus, rec.registry(), 512);
    std::printf("calibrated capacity: %.0f jobs/s (closed loop)\n\n",
                capacity);
    rec.add_metric("capacity_jps", capacity);

    // Token buckets always cap each tenant at its fair share of
    // capacity; only the arrival rate scales with the load factor.
    const double token_rate = capacity / (n_good + 1);

    print_header("udp_service under open-loop load (" +
                     std::to_string(n_good) + " tenants + 1 hostile)",
                 {"load", "goodput j/s", "shed", "cancelled", "quarant.",
                  "trips", "p50 us", "p99 us", "p999 us"});

    const struct {
        double factor;
        const char *tag;
    } scenarios[] = {{0.5, "x0_5"}, {1.0, "x1"}, {2.0, "x2"}};
    double goodput_1x = 0;
    ScenarioResult last;
    for (const auto &sc : scenarios) {
        const double arrival = sc.factor * capacity / (n_good + 1);
        const auto r = run_scenario(corpus, rec.registry(), n_good,
                                    arrival, token_rate, window,
                                    0xBADCAB1Eull * (sc.factor * 2));
        if (sc.factor == 1.0)
            goodput_1x = r.goodput_jps;
        print_row({fmt(sc.factor, 1) + "x", fmt(r.goodput_jps, 0),
                   std::to_string(r.shed), std::to_string(r.cancelled),
                   std::to_string(r.quarantined),
                   std::to_string(r.breaker_trips),
                   std::to_string(r.p50_us), std::to_string(r.p99_us),
                   std::to_string(r.p999_us)});
        const std::string tag = sc.tag;
        rec.add_metric(tag + "_goodput_jps", r.goodput_jps);
        rec.add_metric(tag + "_submitted", double(r.submitted));
        rec.add_metric(tag + "_done", double(r.done));
        rec.add_metric(tag + "_shed", double(r.shed));
        rec.add_metric(tag + "_cancelled", double(r.cancelled));
        rec.add_metric(tag + "_quarantined", double(r.quarantined));
        rec.add_metric(tag + "_expired", double(r.expired));
        rec.add_metric(tag + "_breaker_trips", double(r.breaker_trips));
        rec.add_metric(tag + "_p50_us", double(r.p50_us));
        rec.add_metric(tag + "_p99_us", double(r.p99_us));
        rec.add_metric(tag + "_p999_us", double(r.p999_us));
        last = r;
    }

    // The degradation contract (also asserted by CI on the JSON dump):
    // overload sheds instead of collapsing, and well-behaved goodput
    // holds within ~10% of the at-capacity run.
    const bool sheds = last.shed > 0 && last.quarantined > 0;
    const bool holds =
        goodput_1x > 0 && last.goodput_jps >= 0.9 * goodput_1x;
    std::printf("\noverload sheds + quarantines: %s\n"
                "goodput at 2x >= 90%% of 1x:   %s (%.0f vs %.0f j/s)\n",
                sheds ? "OK" : "FAILED", holds ? "OK" : "FAILED",
                last.goodput_jps, goodput_1x);
    rec.add_metric("overload_sheds", sheds ? 1 : 0);
    rec.add_metric("goodput_holds", holds ? 1 : 0);

    const int rc = rec.finish();
    return sheds && holds ? rc : 1;
}
