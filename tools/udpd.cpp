/**
 * @file
 * udpd — the always-on UDP job service front-end (docs/SERVICE.md).
 *
 * Runs a `udp::service::Service` with N synthetic in-process tenants
 * submitting trigger-kernel jobs at a configured per-tenant rate for a
 * fixed duration, then drains gracefully and reports per-tenant
 * dispositions.  One tenant can be made *hostile* — submitting jobs
 * from the FaultInjector corpus (poisoned programs and forced traps) —
 * to demonstrate quarantine containment and the per-tenant circuit
 * breaker in a live service.
 *
 * Flags:
 *   --tenants N      well-behaved tenants, 0..64 (default 3); each
 *                    tenant is one client thread
 *   --seconds S      submission window, 0..3600 (default 2.0)
 *   --rate R         per-tenant token rate, jobs/s, 0.01..1e6 (default 200)
 *   --burst B        token-bucket burst, 1..1e6 (default 64)
 *   --policy P       overflow policy: shed | block | degrade (default shed)
 *   --hostile        add one hostile tenant running the fault corpus
 *   --retries N      scheduler attempts per job, 1..16 (default 2)
 *   --batch N        max jobs per scheduler batch, 1..4096 (default 64)
 *   --threads N      host simulation threads, 1..256 (default: the
 *                    machine's, UDP_SIM_THREADS or 1)
 *   --metrics PATH   write the Prometheus-style exposition on exit
 *   --json PATH      write the metrics + service JSON dump on exit
 *   --seed X         arrival/corpus seed (default 42)
 *
 * Exits 0 once the service drained, 1 if it did not, and 2 with a
 * message naming the flag when a value does not parse in full, leaves
 * its range above, or names an unknown policy (e.g. `--retries 0`), or
 * when the service refuses its options.
 */
#include "service/service.hpp"

#include "kernels/trigger.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "workloads/generators.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace udp;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Exponential inter-arrival draw (open-loop Poisson arrivals).
double
exp_draw(std::uint64_t &state, double rate_per_s)
{
    state = mix64(state);
    const double u =
        (double(state >> 11) + 0.5) * (1.0 / 9007199254740992.0);
    return -std::log(u) / rate_per_s;
}

struct TenantTally {
    std::uint64_t submitted = 0;
    std::uint64_t done = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t rejected = 0;
    std::uint64_t other = 0;
};

/// One tenant's submission loop: open-loop arrivals at `rate` for
/// `seconds`, opportunistically consuming (and recycling) finished
/// jobs, then waiting out the stragglers.
void
tenant_loop(service::ServiceClient client,
            const std::vector<runtime::JobPlan> &corpus, double rate,
            double seconds, bool hostile, std::uint64_t seed,
            TenantTally &tally)
{
    std::uint64_t rng = seed;
    runtime::FaultInjector inj(seed ^ 0xF01Dull);
    std::deque<service::JobId> outstanding;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    const auto consume = [&](service::JobId id, double timeout) {
        auto out = timeout < 0 ? client.poll(id) : client.wait(id, timeout);
        if (!out)
            return true; // consumed elsewhere (shouldn't happen here)
        switch (out->state) {
        case service::JobState::Queued:
        case service::JobState::Running:
            return false;
        case service::JobState::Done:
            ++tally.done;
            break;
        case service::JobState::Quarantined:
            ++tally.quarantined;
            break;
        case service::JobState::Rejected:
            ++tally.rejected;
            break;
        default:
            ++tally.other;
        }
        return true;
    };

    double next_arrival = 0;
    while (elapsed() < seconds) {
        const double now = elapsed();
        if (now < next_arrival) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::min(next_arrival - now, 0.01)));
        } else {
            next_arrival = now + exp_draw(rng, rate);
            runtime::JobPlan plan = corpus[tally.submitted % corpus.size()];
            if (hostile) {
                // The fault corpus: poisoned programs (permanent
                // quarantine) alternating with first-attempt traps.
                if (tally.submitted % 2 == 0)
                    inj.poison_program(plan);
                else
                    inj.force_trap(plan, 500 + inj.next_below(2000), 1);
            }
            outstanding.push_back(client.submit(std::move(plan)));
            ++tally.submitted;
        }
        while (!outstanding.empty() &&
               consume(outstanding.front(), -1.0))
            outstanding.pop_front();
    }
    while (!outstanding.empty()) {
        if (consume(outstanding.front(), 5.0))
            outstanding.pop_front();
        else
            break; // service wedged: leave the rest unconsumed
    }
}

const char *
arg_after(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

bool
has_flag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
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
        std::fprintf(stderr, "udpd: %s wants %s in %g..%g, got '%s'\n",
                     flag, integral ? "an integer" : "a number", lo, hi,
                     s);
        std::exit(2);
    }
    return v;
}

/// The unsigned 64-bit value after `flag` (`def` when the flag is
/// absent), in any base strtoull's base 0 reads (`0x2a`, `052`, `42`).
/// A value that does not parse in full ends the process with exit
/// status 2 and a message naming the flag.
std::uint64_t
u64_after(int argc, char **argv, const char *flag, std::uint64_t def)
{
    const char *s = arg_after(argc, argv, flag);
    if (!s)
        return def;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(s, &end, 0);
    if (end == s || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr,
                     "udpd: %s wants an unsigned integer, got '%s'\n",
                     flag, s);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto count = [&](const char *flag, unsigned def, unsigned lo,
                           unsigned hi) {
        return unsigned(number_after(argc, argv, flag, def, lo, hi, true));
    };
    const unsigned tenants = count("--tenants", 3, 0, 64);
    const double seconds =
        number_after(argc, argv, "--seconds", 2.0, 0, 3600, false);
    const double rate =
        number_after(argc, argv, "--rate", 200.0, 0.01, 1e6, false);
    const double burst =
        number_after(argc, argv, "--burst", 64.0, 1, 1e6, false);
    const bool hostile = has_flag(argc, argv, "--hostile");
    const unsigned retries = count("--retries", 2, 1, 16);
    const unsigned batch = count("--batch", kNumLanes, 1, 4096);
    // Absent: 0, the machine's own default (UDP_SIM_THREADS, else 1).
    const unsigned threads = count("--threads", 0, 1, 256);
    const std::uint64_t seed = u64_after(argc, argv, "--seed", 42);
    service::OverflowPolicy policy = service::OverflowPolicy::Shed;
    if (const char *p = arg_after(argc, argv, "--policy")) {
        if (std::strcmp(p, "block") == 0) {
            policy = service::OverflowPolicy::Block;
        } else if (std::strcmp(p, "degrade") == 0) {
            policy = service::OverflowPolicy::Degrade;
        } else if (std::strcmp(p, "shed") != 0) {
            std::fprintf(stderr,
                         "udpd: --policy wants shed, block or degrade, "
                         "got '%s'\n",
                         p);
            return 2;
        }
    }

    // The shared corpus: trigger-kernel chunks over one pinned arena.
    const Bytes packed = workloads::waveform(200'000, 13);
    const Bytes samples = kernels::samples_from_bits(packed);
    const auto spec = kernels::trigger_kernel_spec(6);
    const auto corpus = runtime::chunk_jobs(
        spec, runtime::ArenaSlice::borrow(samples),
        std::max<std::size_t>(1, ceil_div(samples.size(), kNumLanes)));

    service::ServiceOptions sopts;
    sopts.sched.threads = threads;
    sopts.sched.retry.max_attempts = retries;
    sopts.max_batch_jobs = batch;
    std::optional<service::Service> svc;
    try {
        svc.emplace(sopts);
    } catch (const UdpError &e) {
        std::fprintf(stderr, "udpd: %s\n", e.what());
        return 2;
    }

    const unsigned total_tenants = tenants + (hostile ? 1 : 0);
    std::vector<service::ServiceClient> clients;
    for (unsigned i = 0; i < total_tenants; ++i) {
        service::TenantOptions topt;
        const bool is_hostile = hostile && i == total_tenants - 1;
        topt.name = is_hostile ? "hostile" : "tenant" + std::to_string(i);
        topt.rate_jobs_per_s = rate;
        topt.burst = burst;
        topt.overflow = policy;
        clients.push_back(svc->client(svc->register_tenant(topt)));
    }

    std::printf("udpd: %u tenant(s)%s, %.1f jobs/s each, %s overflow, "
                "%.1fs window\n",
                total_tenants, hostile ? " (1 hostile)" : "", rate,
                policy == service::OverflowPolicy::Block     ? "block"
                : policy == service::OverflowPolicy::Degrade ? "degrade"
                                                             : "shed",
                seconds);

    std::vector<TenantTally> tallies(total_tenants);
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < total_tenants; ++i) {
        const bool is_hostile = hostile && i == total_tenants - 1;
        workers.emplace_back(tenant_loop, clients[i], std::cref(corpus),
                             rate, seconds, is_hostile,
                             seed ^ (std::uint64_t(i) << 32),
                             std::ref(tallies[i]));
    }
    for (auto &w : workers)
        w.join();
    svc->drain();

    const auto stats = svc->stats();
    std::printf("\n%-10s %9s %9s %9s %9s %9s %9s %6s\n", "tenant",
                "submitted", "done", "quarant.", "rejected", "expired",
                "cancelled", "trips");
    for (const auto &t : stats.tenants)
        std::printf("%-10s %9llu %9llu %9llu %9llu %9llu %9llu %6llu\n",
                    t.name.c_str(),
                    (unsigned long long)t.submitted,
                    (unsigned long long)t.completed,
                    (unsigned long long)t.quarantined,
                    (unsigned long long)t.rejected_total(),
                    (unsigned long long)t.expired,
                    (unsigned long long)t.cancelled,
                    (unsigned long long)t.breaker_trips);
    std::printf("\nbatches %llu, waves %llu, jobs run %llu, drained %s\n",
                (unsigned long long)stats.batches,
                (unsigned long long)stats.waves,
                (unsigned long long)stats.jobs_run,
                stats.drained ? "yes" : "no");

    if (const char *path = arg_after(argc, argv, "--metrics")) {
        std::ofstream os(path);
        os << svc->prometheus_text();
        std::printf("metrics exposition written to %s\n", path);
    }
    if (const char *path = arg_after(argc, argv, "--json")) {
        std::ofstream os(path);
        os << svc->metrics_json() << "\n";
        std::printf("json dump written to %s\n", path);
    }
    return stats.drained ? 0 : 1;
}
