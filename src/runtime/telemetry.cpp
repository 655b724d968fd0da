/**
 * @file
 * Telemetry implementation: histogram bucket math, registry
 * snapshots, JSON and Prometheus-style expositions, and the
 * registry-backed lifecycle sink.
 */
#include "telemetry.hpp"

#include "core/metrics_json.hpp"
#include "runtime/scheduler.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

namespace udp::runtime {

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

unsigned
Histogram::bucket_index(std::uint64_t v)
{
    if (v < kSubBuckets)
        return static_cast<unsigned>(v);
    // Power-of-two group of the MSB, split into 8 linear sub-buckets.
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned group = msb - kSubBits + 1; // >= 1
    const unsigned sub =
        static_cast<unsigned>((v >> (msb - kSubBits)) & (kSubBuckets - 1));
    return (group << kSubBits) | sub;
}

std::uint64_t
Histogram::bucket_upper(unsigned index)
{
    if (index < kSubBuckets)
        return index;
    const unsigned group = index >> kSubBits;
    const unsigned sub = index & (kSubBuckets - 1);
    const unsigned shift = group - 1;
    // Upper bound is one below the next sub-bucket's lower bound.
    const std::uint64_t next =
        (std::uint64_t{kSubBuckets} + sub + 1) << shift;
    return next - 1;
}

void
Histogram::record(std::uint64_t v)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    if (s.count) {
        s.min = min_.load(std::memory_order_relaxed);
        s.max = max_.load(std::memory_order_relaxed);
    }
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
        const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
        if (n)
            s.buckets.emplace_back(bucket_upper(i), n);
    }
    return s;
}

double
HistogramSnapshot::mean() const
{
    if (count == 0)
        return std::nan("");
    return double(sum) / double(count);
}

std::uint64_t
HistogramSnapshot::percentile(double q) const
{
    if (count == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the q-quantile sample, 1-based, exact-count.
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * double(count)));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;
    std::uint64_t seen = 0;
    for (const auto &[upper, n] : buckets) {
        seen += n;
        if (seen >= rank) {
            // Clamp the bucket bound into the observed range so a
            // single sample reports itself and p999 never exceeds max.
            std::uint64_t v = upper;
            if (v < min)
                v = min;
            if (v > max)
                v = max;
            return v;
        }
    }
    return max; // unreachable when buckets are consistent with count
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[name];
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return gauges_[name];
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricRegistry::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        out.emplace_back(name, c.value());
    return out;
}

std::vector<std::pair<std::string, double>>
MetricRegistry::gauges() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(gauges_.size());
    for (const auto &[name, g] : gauges_)
        out.emplace_back(name, g.value());
    return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricRegistry::histograms() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(histograms_.size());
    for (const auto &[name, h] : histograms_)
        out.emplace_back(name, h->snapshot());
    return out;
}

void
write_histogram_json(JsonWriter &w, const HistogramSnapshot &h)
{
    w.begin_object();
    w.field("count", h.count);
    w.field("sum", h.sum);
    w.field("min", h.count ? h.min : 0);
    w.field("max", h.max);
    w.field("mean", h.mean()); // NaN (empty) serializes as null
    w.field("p50", h.percentile(0.50));
    w.field("p90", h.percentile(0.90));
    w.field("p99", h.percentile(0.99));
    w.field("p999", h.percentile(0.999));
    w.end_object();
}

void
MetricRegistry::write_json(JsonWriter &w) const
{
    w.begin_object();
    w.key("counters");
    w.begin_object();
    for (const auto &[name, v] : counters())
        w.field(name, v);
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto &[name, v] : gauges())
        w.field(name, v);
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const auto &[name, snap] : histograms()) {
        w.key(name);
        write_histogram_json(w, snap);
    }
    w.end_object();
    w.end_object();
}

std::string
prometheus_name(std::string_view name)
{
    std::string out = "udp_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

namespace {

/// Shortest-round-trip double for exposition lines.
std::string
fmt_double(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// A registry name split at its optional label block: `base{k="v"}` →
/// family `base` (sanitized for the exposition) + labels `k="v"`
/// (emitted verbatim).  Labeled series of one family share one # TYPE
/// line (tools/check_exposition.py verifies label-set consistency).
struct SplitName {
    std::string family; ///< prometheus_name() of the part before '{'
    std::string labels; ///< inner label list, "" when unlabeled
};

SplitName
split_name(const std::string &name)
{
    const std::size_t brace = name.find('{');
    if (brace == std::string::npos || name.back() != '}')
        return {prometheus_name(name), ""};
    return {prometheus_name(std::string_view(name).substr(0, brace)),
            name.substr(brace + 1, name.size() - brace - 2)};
}

/// `{a="b"}` / `{a="b",quantile="0.5"}` / `{quantile="0.5"}` / ``.
std::string
label_block(const std::string &labels, const char *quantile = nullptr)
{
    if (labels.empty() && !quantile)
        return "";
    std::string out = "{" + labels;
    if (quantile) {
        if (!labels.empty())
            out += ',';
        out += "quantile=\"";
        out += quantile;
        out += '"';
    }
    return out + "}";
}

/// Families in first-seen order with their samples grouped, so every
/// family gets exactly one # TYPE line ahead of all its series.
class FamilyWriter
{
  public:
    explicit FamilyWriter(std::ostringstream &os) : os_(os) {}

    void type_line(const std::string &family, const char *kind) {
        if (seen_.insert(family).second)
            os_ << "# TYPE " << family << ' ' << kind << '\n';
    }

  private:
    std::ostringstream &os_;
    std::set<std::string> seen_;
};

} // namespace

std::string
MetricRegistry::prometheus_text() const
{
    // Group each kind's samples by family so labeled series (one
    // registry entry per label set) emit contiguously under one # TYPE.
    std::ostringstream os;
    FamilyWriter fams(os);

    std::map<std::string, std::vector<std::string>> counter_rows;
    for (const auto &[name, v] : counters()) {
        const SplitName sn = split_name(name);
        counter_rows[sn.family].push_back(sn.family +
                                          label_block(sn.labels) + ' ' +
                                          std::to_string(v));
    }
    for (const auto &[family, rows] : counter_rows) {
        fams.type_line(family, "counter");
        for (const std::string &r : rows)
            os << r << '\n';
    }

    std::map<std::string, std::vector<std::string>> gauge_rows;
    for (const auto &[name, v] : gauges()) {
        const SplitName sn = split_name(name);
        gauge_rows[sn.family].push_back(sn.family + label_block(sn.labels) +
                                        ' ' + fmt_double(v));
    }
    for (const auto &[family, rows] : gauge_rows) {
        fams.type_line(family, "gauge");
        for (const std::string &r : rows)
            os << r << '\n';
    }

    std::map<std::string, std::vector<std::string>> summary_rows;
    for (const auto &[name, h] : histograms()) {
        const SplitName sn = split_name(name);
        auto &rows = summary_rows[sn.family];
        const std::string &n = sn.family;
        if (h.count) {
            static constexpr std::pair<const char *, double> kQuantiles[] = {
                {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}};
            for (const auto &[label, q] : kQuantiles)
                rows.push_back(n + label_block(sn.labels, label) + ' ' +
                               std::to_string(h.percentile(q)));
            rows.push_back(n + "_min" + label_block(sn.labels) + ' ' +
                           std::to_string(h.min));
            rows.push_back(n + "_max" + label_block(sn.labels) + ' ' +
                           std::to_string(h.max));
            rows.push_back(n + "_mean" + label_block(sn.labels) + ' ' +
                           fmt_double(h.mean()));
        }
        rows.push_back(n + "_sum" + label_block(sn.labels) + ' ' +
                       std::to_string(h.sum));
        rows.push_back(n + "_count" + label_block(sn.labels) + ' ' +
                       std::to_string(h.count));
    }
    for (const auto &[family, rows] : summary_rows) {
        fams.type_line(family, "summary");
        for (const std::string &r : rows)
            os << r << '\n';
    }
    return os.str();
}

// ---------------------------------------------------------------------------
// Registry-backed lifecycle sink.
// ---------------------------------------------------------------------------

RegistryTelemetry::RegistryTelemetry(MetricRegistry &reg)
    : reg_(reg),
      runs_(reg.counter("scheduler.runs")),
      runs_faulted_(reg.counter("scheduler.runs.faulted")),
      jobs_completed_(reg.counter("scheduler.jobs.completed")),
      jobs_quarantined_(reg.counter("scheduler.jobs.quarantined")),
      jobs_cancelled_(reg.counter("scheduler.jobs.cancelled")),
      retries_(reg.counter("scheduler.retries")),
      waves_(reg.counter("scheduler.waves")),
      occupancy_(reg.gauge("wave.occupancy")),
      queue_wait_(reg.histogram("job.queue_wait_cycles")),
      service_(reg.histogram("job.service_cycles")),
      e2e_(reg.histogram("job.e2e_cycles")),
      wave_occupancy_(reg.histogram("wave.occupancy_lanes")),
      wave_banks_(reg.histogram("wave.banks_used")),
      wave_wall_(reg.histogram("wave.wall_cycles"))
{
    for (unsigned c = 1; c < kNumFaultCodes; ++c)
        fault_counters_[c] = &reg.counter(
            "scheduler.fault." +
            std::string(fault_code_name(static_cast<FaultCode>(c))));
}

RegistryTelemetry::KernelCounters &
RegistryTelemetry::kernel(std::string_view name)
{
    std::lock_guard<std::mutex> lock(kernels_mu_);
    const auto it = kernels_.find(name);
    if (it != kernels_.end())
        return it->second;
    KernelCounters kc;
    const std::string key(name);
    kc.runs = &reg_.counter("kernel." + key + ".runs");
    kc.input_bytes = &reg_.counter("kernel." + key + ".input_bytes");
    return kernels_.emplace(key, kc).first->second;
}

void
RegistryTelemetry::on_job_run(const JobRunEvent &e)
{
    const JobResult &r = e.result;
    if (e.ran) {
        runs_.add();
        queue_wait_.record(r.queue_wait_cycles);
        service_.record(r.service_cycles);
        KernelCounters &kc = kernel(e.plan.name);
        kc.runs->add();
        kc.input_bytes->add(
            static_cast<std::uint64_t>(r.stats.input_bytes()));
    }
    // Faulted means Faulted/TimedOut, as ScheduleReport::faulted_runs
    // counts it; a Reject completes, as in WaveReport::completed.
    if (r.cancelled)
        jobs_cancelled_.add();
    else if (r.status == LaneStatus::Faulted ||
             r.status == LaneStatus::TimedOut)
        runs_faulted_.add();
    else
        jobs_completed_.add();
    if (e.requeued)
        retries_.add();
    else
        e2e_.record(r.e2e_cycles);
    if (r.quarantined)
        jobs_quarantined_.add();
    const unsigned code = static_cast<unsigned>(r.fault.code);
    if (code != 0 && code < kNumFaultCodes)
        fault_counters_[code]->add();
}

void
RegistryTelemetry::on_wave(const WaveEvent &e)
{
    const WaveReport &w = e.report;
    waves_.add();
    wave_occupancy_.record(w.jobs);
    wave_banks_.record(w.banks_used);
    wave_wall_.record(w.wall_cycles);
    occupancy_.set(double(w.jobs) / double(kNumLanes));
}

} // namespace udp::runtime
