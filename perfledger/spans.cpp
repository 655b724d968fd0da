/**
 * @file
 * Ledger support: statistics, host measures, the metric catalog, the
 * span recorder and its Chrome trace writer, and scheduler accounting.
 */
#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace ledger {

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double
cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// ---------------------------------------------------------------------------
// Metric catalog and reports.
// ---------------------------------------------------------------------------

const std::vector<LayerMetricInfo> &
layer_catalog()
{
    static const std::vector<LayerMetricInfo> cat = [] {
        std::vector<LayerMetricInfo> c = {
            {"automata.parse_ms", "ms", "host"},
            {"automata.nfa_ms", "ms", "host"},
            {"automata.dfa_ms", "ms", "host"},
            {"automata.adfa_ms", "ms", "host"},
            {"automata.dfa_states", "count", "count"},
            {"automata.adfa_arcs", "count", "count"},
            {"assembler.build_ms", "ms", "host"},
            {"assembler.code_bytes", "bytes", "count"},
            {"assembler.kernel_build_ms", "ms", "host"},
            {"core.image.save_ms", "ms", "host"},
            {"core.image.load_ms", "ms", "host"},
            {"core.image.lower_ms", "ms", "host"},
            {"core.image.bytes", "bytes", "count"},
            {"core.interp.simulate_s", "s", "host"},
            {"core.interp.ns_per_lane_cycle.snappy", "ns", "host"},
            {"core.interp.ns_per_lane_cycle.csv", "ns", "host"},
            {"core.interp.ns_per_lane_cycle.adfa", "ns", "host"},
            {"core.interp.ns_per_lane_cycle.nfa", "ns", "host"},
            {"core.interp.ns_per_lane_cycle.trigger", "ns", "host"},
            {"sim.cycles", "cycles", "sim"},
            {"sim.dispatches", "count", "sim"},
            {"sim.actions", "count", "sim"},
            {"sim.sig_misses", "count", "sim"},
            {"sim.dispatch_reads", "count", "sim"},
            {"runtime.make_job_us", "us", "host"},
            {"runtime.setup_us_per_job", "us", "host"},
            {"runtime.harvest_us_per_job", "us", "host"},
            {"runtime.waves", "count", "count"},
            {"runtime.lane_occupancy", "frac", "count"},
            {"runtime.retries", "1/kjob", "count"},
            {"runtime.quarantined", "1/kjob", "count"},
            {"runtime.cancelled", "1/kjob", "count"},
            {"runtime.pool_reuse", "frac", "count"},
            {"runtime.fault_inject_us", "us", "host"},
            {"host.cpu_per_wall", "frac", "host"},
            {"service.submit_us_p50", "us", "host"},
            {"service.submit_us_p99", "us", "host"},
            {"service.client_blocked_s", "s", "host"},
            {"service.batch_fill", "frac", "count"},
            {"service.overhead_us_per_job", "us", "host"},
            {"etl.deserialize_s", "s", "host"},
            {"etl.rows_per_s", "1/s", "host"},
            {"etl.sim_decompress_s", "s", "sim"},
            {"etl.sim_parse_s", "s", "sim"},
            {"trace.overhead_frac", "frac", "host"},
            {"trace.spans", "count", "count"},
        };
        // Per-class service accounting (well-behaved vs hostile).
        static const char *const classes[] = {"good", "hostile"};
        static const char *const fields[] = {
            "submitted",        "done",      "rejected_rate",
            "rejected_queue",   "rejected_breaker", "cancelled",
            "expired",          "quarantined",      "breaker_trips"};
        static std::vector<std::string> names; // stable storage
        names.reserve(std::size(classes) * std::size(fields));
        for (const char *cls : classes)
            for (const char *f : fields)
                names.push_back(std::string("service.") + cls + "." + f);
        for (const std::string &n : names)
            c.push_back({n.c_str(), "count", "count"});
        // Self time per layer, from the spans.
        static const char *const self_names[] = {
            "request.self_ms",    "automata.self_ms", "assembler.self_ms",
            "core.image.self_ms", "core.interp.self_ms",
            "runtime.self_ms",    "kernels.self_ms",  "etl.self_ms",
            "service.self_ms"};
        for (const char *n : self_names)
            c.push_back({n, "ms", "host"});
        return c;
    }();
    return cat;
}

void
Report::set_e2e(const std::string &name, double v, const char *unit,
                const char *clock)
{
    e2e[name] = Metric{v, unit, clock};
}

void
Report::set_named(const std::string &name, double v, const char *unit,
                  const char *clock)
{
    named[name] = Metric{v, unit, clock};
}

void
Report::set_layer(const std::string &name, double v)
{
    const auto &cat = layer_catalog();
    const bool known = std::any_of(cat.begin(), cat.end(), [&](const auto &m) {
        return name == m.name;
    });
    if (!known)
        throw std::logic_error("per-layer metric not in catalog: " + name);
    layer[name] = v;
}

void
Report::fail(const std::string &why)
{
    ++failed;
    if (errors.size() < 8)
        errors.push_back(why);
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

Spans::Spans() : epoch_(Clock::now()) {}

std::int64_t
Spans::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::int32_t
Spans::open(const char *layer, const char *name, std::uint64_t req)
{
    const auto ix = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{layer, name, now_ns(), 0, parent, req});
    stack_.push_back(ix);
    return ix;
}

void
Spans::close(std::int32_t ix)
{
    spans_[static_cast<std::size_t>(ix)].end_ns = now_ns();
    stack_.pop_back();
}

Spans::Scope::Scope(Spans *s, const char *layer, const char *name,
                    std::uint64_t req)
    : s_(s)
{
    if (s_)
        ix_ = s_->open(layer, name, req);
}

Spans::Scope::~Scope()
{
    if (s_)
        s_->close(ix_);
}

void
Spans::wave_phases(const udp::runtime::ScheduleReport &rep,
                   std::uint64_t req)
{
    if (stack_.empty())
        return;
    const std::int32_t parent = stack_.back();
    const Span &p = spans_[static_cast<std::size_t>(parent)];
    const std::int64_t limit = now_ns();
    std::int64_t t = p.start_ns;
    auto add = [&](const char *layer, const char *name, double secs) {
        const std::int64_t end =
            std::min(limit, t + static_cast<std::int64_t>(secs * 1e9));
        spans_.push_back(Span{layer, name, t, end, parent, req});
        t = end;
    };
    for (const auto &w : rep.waves) {
        add("runtime", "runtime.wave_setup", w.host_setup_seconds);
        add("core.interp", "core.interp.simulate", w.host_simulate_seconds);
        add("runtime", "runtime.wave_harvest", w.host_harvest_seconds);
    }
}

double
Spans::total_s(const std::string &name) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (name == s.name)
            ns += s.end_ns - s.start_ns;
    return double(ns) * 1e-9;
}

std::size_t
Spans::calls(const std::string &name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return name == s.name; }));
}

std::map<std::string, double>
Spans::self_s_by_layer() const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.end_ns - s.start_ns;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::int64_t own = s.end_ns - s.start_ns - child_ns[i];
        self[s.layer] += double(std::max<std::int64_t>(own, 0)) * 1e-9;
    }
    return self;
}

bool
Spans::write_chrome(const std::string &path, std::size_t max_spans) const
{
    // Spans are appended at open time (synthetic wave phases right after
    // their parent's earlier children), so sort by start; at equal start
    // the enclosing span goes first.
    std::vector<std::size_t> order(spans_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::vector<int> depth(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            depth[i] = depth[static_cast<std::size_t>(spans_[i].parent)] + 1;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         const Span &x = spans_[a], &y = spans_[b];
                         if (x.start_ns != y.start_ns)
                             return x.start_ns < y.start_ns;
                         return depth[a] < depth[b];
                     });
    if (order.size() > max_spans)
        order.resize(max_spans); // a prefix by start keeps every parent

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n"
                    "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":"
                    "\"process_name\",\"args\":{\"name\":\"perfledger\"}},\n"
                    "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":"
                    "\"thread_name\",\"args\":{\"name\":\"client\"}}");
    for (const std::size_t i : order) {
        const Span &s = spans_[i];
        // Floor both ends to whole microseconds: monotone, so children
        // stay inside parents and siblings stay disjoint, exactly.
        const std::int64_t ts = s.start_ns / 1000;
        const std::int64_t te = s.end_ns / 1000;
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"%s\","
                     "\"name\":\"%s\",\"ts\":%lld,\"dur\":%lld,\"args\":{"
                     "\"req\":%llu,\"id\":%zu,\"parent\":%d}}",
                     s.layer, s.name, static_cast<long long>(ts),
                     static_cast<long long>(te - ts),
                     static_cast<unsigned long long>(s.req), i,
                     static_cast<int>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Scheduler accounting.
// ---------------------------------------------------------------------------

void
SchedTotals::add(const udp::runtime::ScheduleReport &rep)
{
    sim.add(rep.total);
    wall_cycles += rep.wall_cycles;
    jobs += rep.jobs.size();
    waves += rep.waves.size();
    for (const auto &w : rep.waves)
        active_lanes += w.active_lanes;
    retries += rep.retries;
    quarantined += rep.quarantined;
    cancelled += rep.cancelled;
    host_setup_s += rep.host_setup_seconds;
    host_simulate_s += rep.host_simulate_seconds;
    host_harvest_s += rep.host_harvest_seconds;
}

void
SchedTotals::add(const SchedTotals &o)
{
    sim.add(o.sim);
    wall_cycles += o.wall_cycles;
    jobs += o.jobs;
    waves += o.waves;
    active_lanes += o.active_lanes;
    retries += o.retries;
    quarantined += o.quarantined;
    cancelled += o.cancelled;
    host_setup_s += o.host_setup_s;
    host_simulate_s += o.host_simulate_s;
    host_harvest_s += o.host_harvest_s;
}

double
SchedTotals::sim_mbps() const
{
    return udp::bytes_per_second(sim.input_bytes(), wall_cycles) / 1e6;
}

void
set_sim_layer(Report &r, const SchedTotals &t)
{
    r.set_layer("sim.cycles", double(t.sim.cycles));
    r.set_layer("sim.dispatches", double(t.sim.dispatches));
    r.set_layer("sim.actions", double(t.sim.actions));
    r.set_layer("sim.sig_misses", double(t.sim.sig_misses));
    r.set_layer("sim.dispatch_reads", double(t.sim.dispatch_reads));
}

void
set_runtime_layer(Report &r, const SchedTotals &t, double requests,
                  unsigned lane_cap)
{
    const double jobs = std::max<double>(1.0, double(t.jobs));
    r.set_layer("runtime.setup_us_per_job", t.host_setup_s * 1e6 / jobs);
    r.set_layer("runtime.harvest_us_per_job", t.host_harvest_s * 1e6 / jobs);
    r.set_layer("runtime.waves",
                requests > 0 ? double(t.waves) / requests : 0.0);
    r.set_layer("runtime.lane_occupancy",
                t.waves ? double(t.active_lanes) /
                              (double(t.waves) * lane_cap)
                        : 0.0);
    r.set_layer("runtime.retries", 1000.0 * double(t.retries) / jobs);
    r.set_layer("runtime.quarantined", 1000.0 * double(t.quarantined) / jobs);
    r.set_layer("runtime.cancelled", 1000.0 * double(t.cancelled) / jobs);
}

void
set_span_layer(Report &r, const Spans &sp, double requests)
{
    const double per = requests > 0 ? 1e3 / requests : 0.0;
    for (const auto &[layer, secs] : sp.self_s_by_layer())
        r.set_layer(layer + ".self_ms", secs * per);
    r.set_layer("trace.spans", double(sp.spans().size()));
}

} // namespace ledger
