/**
 * @file
 * The `ledger` program: runs one workload of the perf ledger and reports
 * every metric by name with its unit and clock (see perfledger/README.md;
 * perfledger/run.py is the one-command front end).
 *
 *   ledger --workload etl_offload|rule_update|service_mix --seed N
 *          [--seconds S] [--trace 0|1] [--setup-only]
 *          [--out result.json] [--spans spans.trace.json] [--commit ID]
 *   ledger --determinism [--seed N]
 *
 * Exit status: 0 when every output matched its reference, 1 on any
 * mismatch (the result file is still written), 2 on bad usage or an
 * unwritable output file, 3 when a run throws.
 */
#include "ledger.hpp"

#include "core/decoded_program.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

namespace {

using namespace ledger;

/// The end-to-end metrics every untraced run reports (BENCHMARK.json).
const char *const kEndToEnd[] = {"setup_s",       "latency_ms_p50",
                                 "latency_ms_p90", "goodput_per_s",
                                 "sim_mbps",      "peak_rss_mb"};

struct Workload {
    const char *name;
    void (*run)(const RunConfig &, Report &, Spans *);
};
const Workload kWorkloads[] = {{"etl_offload", run_etl_offload},
                               {"rule_update", run_rule_update},
                               {"service_mix", run_service_mix}};

/// Spans written to the trace file (all of them feed the metrics).
constexpr std::size_t kMaxFileSpans = 50000;

struct Args {
    std::string workload;
    std::string out;
    std::string spans;
    std::string commit = "unknown";
    bool determinism = false;
    RunConfig cfg;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ledger: %s\n"
                 "usage: ledger --workload etl_offload|rule_update|"
                 "service_mix --seed N [--seconds S] [--trace 0|1]\n"
                 "              [--setup-only] [--out FILE] [--spans FILE] "
                 "[--commit ID]\n"
                 "       ledger --determinism [--seed N]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.cfg.seconds = std::atof(value().c_str());
        else if (k == "--trace")
            a.cfg.trace = value() != "0";
        else if (k == "--setup-only")
            a.cfg.setup_only = true;
        else if (k == "--out")
            a.out = value();
        else if (k == "--spans")
            a.spans = value();
        else if (k == "--commit")
            a.commit = value();
        else if (k == "--determinism")
            a.determinism = true;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (!a.determinism && a.workload.empty())
        usage("--workload is required");
    if (!(a.cfg.seconds > 0) || a.cfg.seconds > 3600)
        usage("--seconds must be in (0, 3600]");
    return a;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

void
write_metrics(std::FILE *f, const std::map<std::string, Metric> &m)
{
    const char *sep = "";
    std::fprintf(f, "{");
    for (const auto &[name, x] : m) {
        std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s, "
                        "\"clock\": %s}",
                     sep, quoted(name).c_str(), num(x.value).c_str(),
                     quoted(x.unit).c_str(), quoted(x.clock).c_str());
        sep = ",";
    }
    std::fprintf(f, "}");
}

bool
write_result(const std::string &path, const std::string &workload,
             const Report &r, const std::map<std::string, Metric> &layer)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n  \"workload\": %s,\n  \"env\": {",
                 quoted(workload).c_str());
    const char *sep = "";
    for (const auto &[k, v] : r.env) {
        std::fprintf(f, "%s\n    %s: %s", sep, quoted(k).c_str(),
                     quoted(v).c_str());
        sep = ",";
    }
    std::fprintf(f, "},\n  \"attempted\": %llu,\n  \"failed\": %llu,\n"
                    "  \"errors\": [",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    sep = "";
    for (const std::string &e : r.errors) {
        std::fprintf(f, "%s%s", sep, quoted(e).c_str());
        sep = ", ";
    }
    std::fprintf(f, "],\n  \"e2e\": ");
    write_metrics(f, r.e2e);
    std::fprintf(f, ",\n  \"named\": ");
    write_metrics(f, r.named);
    std::fprintf(f, ",\n  \"per_layer\": ");
    write_metrics(f, layer);
    std::fprintf(f, "\n}\n");
    return std::fclose(f) == 0;
}

void
print_metrics(const char *title, const std::map<std::string, Metric> &m)
{
    if (m.empty())
        return;
    std::printf("%s\n", title);
    for (const auto &[name, x] : m)
        std::printf("  %-40s %16.6g %-7s %s\n", name.c_str(), x.value,
                    x.unit.c_str(), x.clock.c_str());
}

int
determinism(std::uint64_t seed)
{
    int bad = 0;
    bad += determinism_etl_offload(seed);
    bad += determinism_rule_update(seed);
    bad += determinism_service_mix(seed);
    std::printf("determinism: %s (%d mismatches)\n", bad ? "FAILED" : "OK",
                bad);
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Pin the interpreter tier: no environment alias may silently change
    // what is measured (the default tier is threaded; pools are sized by
    // each workload, never by UDP_SIM_THREADS).
    for (const char *v :
         {"UDP_SIM_BACKEND", "UDP_SIM_NO_PREDECODE", "UDP_SIM_THREADS"})
        unsetenv(v);
    udp::set_sim_backend(udp::SimBackend::Threaded);

    const Args a = parse(argc, argv);
    try {
        if (a.determinism)
            return determinism(a.cfg.seed);

        Report r;
        r.env["workload"] = a.workload;
        r.env["seed"] = std::to_string(a.cfg.seed);
        r.env["seconds"] = num(a.cfg.seconds);
        r.env["trace"] = a.cfg.trace ? "1" : "0";
        r.env["compiler"] = LEDGER_CXX_ID;
        r.env["build_type"] = LEDGER_BUILD_TYPE;
        r.env["cxx_flags"] = LEDGER_CXX_FLAGS;
        r.env["sim_backend"] =
            std::string(udp::sim_backend_name(udp::sim_backend()));
        r.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
        r.env["commit"] = a.commit;

        Spans spans;
        Spans *sp = a.cfg.trace && !a.cfg.setup_only ? &spans : nullptr;
        const auto w = std::find_if(
            std::begin(kWorkloads), std::end(kWorkloads),
            [&](const Workload &x) { return a.workload == x.name; });
        if (w == std::end(kWorkloads))
            usage(("unknown workload " + a.workload).c_str());
        w->run(a.cfg, r, sp);
        if (sp) {
            // Per-layer metrics of layers this workload does not run come
            // from short traced probes of the workloads that do, so every
            // per-layer metric is a measurement on every workload.
            RunConfig pc;
            pc.seed = a.cfg.seed;
            pc.seconds = 0.2;
            pc.trace = true;
            pc.probe = true;
            for (const Workload &other : kWorkloads) {
                if (&other == w)
                    continue;
                Report pr;
                Spans ps;
                other.run(pc, pr, &ps);
                r.attempted += pr.attempted;
                r.failed += pr.failed;
                r.errors.insert(r.errors.end(), pr.errors.begin(),
                                pr.errors.end());
                r.layer.insert(pr.layer.begin(), pr.layer.end());
            }
        }

        if (r.attempted)
            r.set_named("fail_frac", double(r.failed) / double(r.attempted),
                        "frac", "count");
        if (!a.cfg.setup_only && !a.cfg.trace)
            for (const char *name : kEndToEnd)
                if (!r.e2e.count(name))
                    throw std::logic_error(std::string("missing e2e metric ") +
                                           name);
        // Every per-layer metric with its unit and clock (an event count
        // no run produced, such as retries on etl_offload, reads 0).
        std::map<std::string, Metric> layer;
        if (sp)
            for (const LayerMetricInfo &m : layer_catalog()) {
                const auto it = r.layer.find(m.name);
                layer[m.name] = Metric{it == r.layer.end() ? 0.0 : it->second,
                                       m.unit, m.clock};
            }

        std::printf("perfledger %s seed=%llu seconds=%s trace=%d\n",
                    a.workload.c_str(),
                    static_cast<unsigned long long>(a.cfg.seed),
                    num(a.cfg.seconds).c_str(), a.cfg.trace ? 1 : 0);
        for (const auto &[k, v] : r.env)
            std::printf("  env %-12s %s\n", k.c_str(), v.c_str());
        print_metrics("end-to-end (untraced):", r.e2e);
        print_metrics("workload-named:", r.named);
        print_metrics("per-layer (traced):", layer);
        std::printf("outputs: %llu attempted, %llu failed\n",
                    static_cast<unsigned long long>(r.attempted),
                    static_cast<unsigned long long>(r.failed));
        for (const std::string &e : r.errors)
            std::printf("  mismatch: %s\n", e.c_str());

        if (sp && !a.spans.empty() && !spans.write_chrome(a.spans,
                                                          kMaxFileSpans)) {
            std::fprintf(stderr, "ledger: cannot write %s\n",
                         a.spans.c_str());
            return 2;
        }
        if (!a.out.empty() && !write_result(a.out, a.workload, r, layer)) {
            std::fprintf(stderr, "ledger: cannot write %s\n", a.out.c_str());
            return 2;
        }
        return r.failed ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ledger: %s\n", e.what());
        return 3;
    }
}
