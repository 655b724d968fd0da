/**
 * @file
 * Benchmark support implementation.
 */
#include "support.hpp"

#include "core/decoded_program.hpp"
#include "core/metrics_json.hpp"

#include "baselines/csv.hpp"
#include "baselines/dictionary.hpp"
#include "baselines/histogram.hpp"
#include "baselines/huffman.hpp"
#include "baselines/snappy.hpp"
#include "baselines/trigger.hpp"
#include "kernels/csv.hpp"
#include "kernels/dictionary.hpp"
#include "kernels/histogram.hpp"
#include "kernels/huffman.hpp"
#include "kernels/pattern.hpp"
#include "kernels/snappy.hpp"
#include "kernels/trigger.hpp"
#include "runtime/executor.hpp"
#include "runtime/kernel_spec.hpp"
#include "workloads/generators.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace udp::bench {

using Clock = std::chrono::steady_clock;
using namespace kernels;

double
time_cpu_mbps(const std::function<void()> &fn, std::size_t bytes,
              int min_reps, double min_seconds)
{
    // Warm-up.
    fn();
    int reps = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
        fn();
        ++reps;
        elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (reps < min_reps || elapsed < min_seconds);
    return double(bytes) * reps / elapsed / 1e6;
}

double
geomean(const std::vector<double> &xs)
{
    double acc = 0;
    std::size_t n = 0;
    for (const double x : xs) {
        if (x > 0) {
            acc += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(acc / double(n)) : 0.0;
}

void
print_header(const std::string &title, const std::vector<std::string> &cols)
{
    std::printf("\n== %s ==\n", title.c_str());
    for (const auto &c : cols)
        std::printf("%-18s", c.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < cols.size(); ++i)
        std::printf("%-18s", "----------------");
    std::printf("\n");
}

void
print_row(const std::vector<std::string> &cells)
{
    for (const auto &c : cells)
        std::printf("%-18s", c.c_str());
    std::printf("\n");
}

std::string
fmt(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

// ---------------------------------------------------------------------------
// Machine-readable metrics (--json).
// ---------------------------------------------------------------------------

namespace {

unsigned g_sim_threads = 0;
std::vector<runtime::TelemetrySink *> g_sinks;
Tracer *g_lane_tracer = nullptr;

/// Lane micro-event ring per lane for --trace.  Modest on purpose: the
/// Scheduler absorbs (and the SpanTracer caps) per wave, so a deep ring
/// only buys memory.
constexpr std::size_t kBenchTraceRing = 4096;

} // namespace

void
set_sim_threads(unsigned n)
{
    g_sim_threads = n;
}

unsigned
sim_threads_option()
{
    return g_sim_threads;
}

Tracer *
bench_lane_tracer()
{
    return g_lane_tracer;
}

runtime::SchedulerOptions
sched_options()
{
    runtime::SchedulerOptions opts;
    opts.threads = g_sim_threads;
    opts.sinks = g_sinks;
    opts.lane_tracer = g_lane_tracer;
    return opts;
}

void
attach_schedule(WorkloadPerf &p, const runtime::ScheduleReport &rep,
                std::uint64_t bytes)
{
    p.udp64_real_mbps =
        bytes_per_second(bytes, rep.wall_cycles) / 1e6;
    p.waves = static_cast<unsigned>(rep.waves.size());
    p.sim_threads = rep.sim_threads;
    p.sim_host_seconds = rep.host_seconds;
    p.sim_host_mbps = rep.host_seconds > 0
                          ? double(bytes) / rep.host_seconds / 1e6
                          : 0;
    p.faulted_runs = rep.faulted_runs;
    p.retries = rep.retries;
    p.quarantined = rep.quarantined;
    p.latency = runtime::summarize_job_latencies(rep.jobs);
}

void
attach_sim(WorkloadPerf &p, const LaneStats &stats, AddressingMode mode)
{
    attach_sim(p, stats, stats.cycles, 1, mode);
}

void
attach_sim(WorkloadPerf &p, const LaneStats &total, Cycles wall,
           unsigned active_lanes, AddressingMode mode)
{
    p.lane_stats = total;
    p.energy_j =
        run_energy_joules(UdpCostModel{}, total, wall, active_lanes, mode);
}

MetricsRecorder::MetricsRecorder(std::string bench, int argc, char **argv)
    : bench_(std::move(bench)), sink_(registry_)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --json requires a path\n",
                             bench_.c_str());
                std::exit(2);
            }
            path_ = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --metrics requires a path\n",
                             bench_.c_str());
                std::exit(2);
            }
            metrics_path_ = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --threads requires a count\n",
                             bench_.c_str());
                std::exit(2);
            }
            const char *arg = argv[++i];
            char *end = nullptr;
            const long n = std::strtol(arg, &end, 10);
            if (end == arg || *end != '\0' || n < 1 || n > 256) {
                std::fprintf(stderr,
                             "%s: --threads wants an integer in 1..256, "
                             "got '%s'\n",
                             bench_.c_str(), arg);
                std::exit(2);
            }
            set_sim_threads(static_cast<unsigned>(n));
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --trace requires a path\n",
                             bench_.c_str());
                std::exit(2);
            }
            trace_path_ = argv[++i];
        } else if (std::strcmp(argv[i], "--postmortem") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --postmortem requires a dir\n",
                             bench_.c_str());
                std::exit(2);
            }
            postmortems_ = std::make_unique<runtime::PostmortemSink>(
                argv[++i], /*keep_last=*/16);
        }
    }
    // Attach sinks to every sched_options() Scheduler only when asked
    // for — the default run stays observer-free.
    if (!metrics_path_.empty())
        g_sinks.push_back(&sink_);
    if (!trace_path_.empty()) {
        lane_tracer_ = std::make_unique<Tracer>(kBenchTraceRing);
        spans_ = std::make_unique<runtime::SpanTracer>();
        g_lane_tracer = lane_tracer_.get();
        g_sinks.push_back(spans_.get());
    }
    if (postmortems_)
        g_sinks.push_back(postmortems_.get());
}

MetricsRecorder::~MetricsRecorder()
{
    g_sinks.clear();
    if (g_lane_tracer == lane_tracer_.get())
        g_lane_tracer = nullptr;
}

int
MetricsRecorder::finish() const
{
    if (!trace_path_.empty() && spans_) {
        // A bench may have driven a Machine directly with the shared
        // lane tracer (outside any Scheduler); lay those leftover
        // events out after everything already on the timeline before
        // exporting.
        if (lane_tracer_) {
            spans_->on_schedule(0);
            spans_->absorb_lane_events(*lane_tracer_, 0);
            lane_tracer_->clear();
        }
        if (!spans_->write_file(trace_path_)) {
            std::fprintf(stderr, "%s: cannot write trace %s\n",
                         bench_.c_str(), trace_path_.c_str());
            return 1;
        }
        std::printf("\ntrace: wrote %s\n", trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
        std::ofstream os(metrics_path_);
        if (!os) {
            std::fprintf(stderr, "%s: cannot open %s for writing\n",
                         bench_.c_str(), metrics_path_.c_str());
            return 1;
        }
        os << registry_.prometheus_text();
        if (!os) {
            std::fprintf(stderr, "%s: write to %s failed\n",
                         bench_.c_str(), metrics_path_.c_str());
            return 1;
        }
        std::printf("\nmetrics: wrote %s\n", metrics_path_.c_str());
    }
    if (path_.empty())
        return 0;

    std::ofstream os(path_);
    if (!os) {
        std::fprintf(stderr, "%s: cannot open %s for writing\n",
                     bench_.c_str(), path_.c_str());
        return 1;
    }

    JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.field("bench", bench_);
    w.field("clock_hz", kClockHz);
    {
        // Resolve exactly as the simulation backend does (--threads has
        // already been folded into the bench option; else env/serial).
        Machine probe(AddressingMode::Restricted);
        probe.set_sim_threads(sim_threads_option());
        w.field("sim_threads", probe.resolved_sim_threads());
    }
    // Which interpreter produced these host-time numbers
    // (docs/PERFORMANCE.md; simulated counters are interpreter-
    // independent).
    w.field("backend", std::string(sim_backend_name(sim_backend())));

    LaneStats total;
    double energy_total = 0;
    unsigned faulted_total = 0, retries_total = 0, quarantined_total = 0;
    w.key("workloads");
    w.begin_array();
    for (const auto &p : workloads_) {
        w.begin_object();
        w.field("name", p.name);
        w.field("cpu_mbps", p.cpu_mbps);
        w.field("udp_lane_mbps", p.udp_lane_mbps);
        w.field("parallelism", p.parallelism);
        w.field("udp64_mbps", p.udp64_mbps());
        w.field("udp64_real_mbps", p.udp64_real_mbps);
        w.field("waves", p.waves);
        w.field("sim_threads", p.sim_threads);
        w.field("sim_host_seconds", p.sim_host_seconds);
        w.field("sim_host_mbps", p.sim_host_mbps);
        w.field("faulted_runs", p.faulted_runs);
        w.field("retries", p.retries);
        w.field("quarantined", p.quarantined);
        w.field("speedup_vs_8t", p.speedup_vs_8t());
        w.field("speedup_real_vs_8t", p.speedup_real_vs_8t());
        w.field("tput_per_watt_ratio", p.perf_watt_ratio(UdpCostModel{}));
        w.field("energy_j", p.energy_j);
        // Per-job latency distribution of the scheduled run, simulated
        // cycles (absent when the bench never ran the wave scheduler).
        if (p.latency.service.count > 0) {
            w.key("latency");
            w.begin_object();
            w.key("queue_wait_cycles");
            runtime::write_histogram_json(w, p.latency.queue_wait);
            w.key("service_cycles");
            runtime::write_histogram_json(w, p.latency.service);
            w.key("e2e_cycles");
            runtime::write_histogram_json(w, p.latency.e2e);
            w.end_object();
        }
        w.key("lane_stats");
        write_lane_stats(w, p.lane_stats);
        w.end_object();
        total.add(p.lane_stats);
        energy_total += p.energy_j;
        faulted_total += p.faulted_runs;
        retries_total += p.retries;
        quarantined_total += p.quarantined;
    }
    w.end_array();

    w.key("lane_stats_total");
    write_lane_stats(w, total);
    w.field("energy_j_total", energy_total);
    w.field("faulted_runs_total", faulted_total);
    w.field("retries_total", retries_total);
    w.field("quarantined_total", quarantined_total);

    w.key("metrics");
    w.begin_object();
    for (const auto &[k, v] : metrics_)
        w.field(k, v);
    w.end_object();

    w.end_object();
    w.done();
    os << "\n";
    if (!os) {
        std::fprintf(stderr, "%s: write to %s failed\n", bench_.c_str(),
                     path_.c_str());
        return 1;
    }
    std::printf("\nmetrics: wrote %s\n", path_.c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// Workload measurements.
// ---------------------------------------------------------------------------

namespace {

/// Simulated single-lane rate of a generic run (bytes over cycles).
double
lane_rate_mbps(const LaneStats &stats)
{
    return stats.rate_mbps();
}

} // namespace

WorkloadPerf
measure_csv_parsing()
{
    WorkloadPerf p;
    p.name = "CSV Parsing";
    const Bytes data = [] {
        const std::string text = workloads::crimes_csv(80);
        return Bytes(text.begin(), text.end());
    }();

    p.cpu_mbps = time_cpu_mbps(
        [&] {
            const auto c = baselines::parse_csv(data);
            if (c.rows == 0)
                throw UdpError("csv bench: empty");
        },
        data.size());

    Machine m(AddressingMode::Restricted);
    const auto res = run_csv_kernel(m, 0, data, 0);
    p.udp_lane_mbps = lane_rate_mbps(res.stats);
    p.parallelism = 32; // two-bank windows (input + field output)
    attach_sim(p, res.stats);

    // Full machine: the same text row-chunked over all 32 two-bank
    // windows and run through the wave scheduler.  `data` outlives the
    // run, so the chunks borrow it — no per-chunk copies.
    const auto jobs = runtime::chunk_jobs(
        csv_kernel_spec(), runtime::ArenaSlice::borrow(data),
        std::max<std::size_t>(1, ceil_div(data.size(), 32)),
        runtime::align_after_delim('\n'));
    runtime::Scheduler sched(sched_options());
    attach_schedule(p, sched.run(jobs), data.size());
    return p;
}

WorkloadPerf
measure_huffman_encode()
{
    WorkloadPerf p;
    p.name = "Huffman Encoding";
    const Bytes data = workloads::text_corpus(192 * 1024, 0.5, 14);
    const auto code = baselines::build_huffman(data);

    p.cpu_mbps = time_cpu_mbps(
        [&] { baselines::huffman_encode(data, code); }, data.size());

    const auto spec = huffman_encoder_spec(code);
    Machine m(AddressingMode::Restricted);
    const auto res = runtime::run_job_on(m, 0, 0, spec.make_job(data));
    p.udp_lane_mbps = lane_rate_mbps(res.stats);
    attach_sim(p, res.stats);

    // Full machine: byte-chunk the corpus over all 64 lanes (borrowed:
    // `data` outlives the run).
    const auto jobs = runtime::chunk_jobs(
        spec, runtime::ArenaSlice::borrow(data),
        std::max<std::size_t>(1, ceil_div(data.size(), 64)));
    runtime::Scheduler sched(sched_options());
    attach_schedule(p, sched.run(jobs), data.size());
    return p;
}

WorkloadPerf
measure_huffman_decode()
{
    WorkloadPerf p;
    p.name = "Huffman Decoding";
    const Bytes data = workloads::text_corpus(192 * 1024, 0.5, 15);
    const auto code = baselines::build_huffman(data);
    Bytes enc = baselines::huffman_encode(data, code);

    p.cpu_mbps = time_cpu_mbps(
        [&] { baselines::huffman_decode(enc, data.size(), code); },
        enc.size());

    enc.push_back(0);
    enc.push_back(0);
    const auto spec = huffman_decoder_spec(code, VarSymDesign::SsRef);
    Machine m(AddressingMode::Restricted);
    const auto res =
        runtime::run_job_on(m, 0, 0, spec.make_job(std::move(enc)));
    p.udp_lane_mbps = lane_rate_mbps(res.stats);
    const auto window_banks =
        static_cast<unsigned>(ceil_div(spec.window_bytes, kBankBytes));
    p.parallelism = std::min(64u, kNumBanks / window_banks);
    attach_sim(p, res.stats);

    // Full machine: codes are bit-packed, so chunk the *plaintext* into
    // one piece per achievable window and encode each independently.
    std::vector<runtime::JobPlan> jobs;
    std::uint64_t sched_bytes = 0;
    const std::size_t piece =
        std::max<std::size_t>(1, ceil_div(data.size(), p.parallelism));
    for (std::size_t off = 0; off < data.size(); off += piece) {
        const std::size_t n = std::min(piece, data.size() - off);
        Bytes e = baselines::huffman_encode(
            BytesView(data).subspan(off, n), code);
        sched_bytes += e.size();
        e.push_back(0);
        e.push_back(0);
        jobs.push_back(spec.make_job(std::move(e)));
    }
    runtime::Scheduler sched(sched_options());
    attach_schedule(p, sched.run(jobs), sched_bytes);
    return p;
}

namespace {

unsigned
jobs_not_done(const runtime::ScheduleReport &rep)
{
    return static_cast<unsigned>(
        std::count_if(rep.jobs.begin(), rep.jobs.end(),
                      [](const runtime::JobResult &j) {
                          return j.status != LaneStatus::Done;
                      }));
}

} // namespace

WorkloadPerf
measure_pattern_matching(bool complex_set)
{
    WorkloadPerf p;
    p.name = complex_set ? "Pattern Match (complex)"
                         : "Pattern Match (simple)";
    const auto pats = workloads::nids_patterns(48, complex_set);
    const Bytes payload = workloads::packet_payloads(256 * 1024, pats);

    // CPU: combined-pattern DFA table walk (the paper used Boost with a
    // single merged pattern; a table DFA is the stronger baseline).
    std::vector<std::unique_ptr<RegexNode>> storage;
    std::vector<const RegexNode *> asts;
    for (const auto &pat : pats) {
        storage.push_back(parse_regex(pat));
        asts.push_back(storage.back().get());
    }
    const Dfa dfa = minimize(determinize(build_multi_nfa(asts)));
    p.cpu_mbps = time_cpu_mbps([&] { dfa.count_matches(payload); },
                               payload.size());

    // UDP: patterns partitioned over 8 groups, aDFA model (Section 5.3).
    // One job per group over the full stream; the wave wall is the
    // slowest group, i.e. the partitioned set's effective lane rate.
    const auto specs = pattern_group_specs(
        pats, complex_set ? FaModel::Nfa : FaModel::Adfa,
        complex_set ? 16 : 8);
    // Every group scans the same payload: one borrowed arena, N pins —
    // the payload used to be copied once per group here.
    const auto payload_arena = runtime::ArenaSlice::borrow(payload);
    std::vector<runtime::JobPlan> set_jobs;
    for (const auto &s : specs)
        set_jobs.push_back(s.make_job(payload_arena));
    runtime::Scheduler sched(sched_options());
    const auto set_rep = sched.run(set_jobs);
    p.udp_lane_mbps =
        bytes_per_second(payload.size(), set_rep.wall_cycles) / 1e6;
    attach_sim(p, set_rep.total, set_rep.wall_cycles,
               static_cast<unsigned>(specs.size()));

    // Full machine: replicate the group set across the 64 lanes, each
    // replica scanning its own slice of the stream.
    const std::size_t sets =
        std::max<std::size_t>(1, kNumLanes / specs.size());
    const std::size_t piece =
        std::max<std::size_t>(1, ceil_div(payload.size(), sets));
    std::vector<runtime::JobPlan> jobs;
    for (std::size_t off = 0; off < payload.size(); off += piece) {
        const std::size_t n = std::min(piece, payload.size() - off);
        for (const auto &s : specs)
            jobs.push_back(s.make_job(payload_arena.subslice(off, n)));
    }
    const auto rep = sched.run(jobs);
    attach_schedule(p, rep, payload.size());
    p.jobs_not_done = jobs_not_done(set_rep) + jobs_not_done(rep);
    return p;
}

WorkloadPerf
measure_dictionary(bool rle)
{
    WorkloadPerf p;
    p.name = rle ? "Dictionary-RLE" : "Dictionary";
    const auto rows = rle ? workloads::runny_attribute(60000, 48, 6.0)
                          : workloads::zipf_attribute(60000, 48);
    const Bytes input = dict_input(rows);

    if (rle) {
        p.cpu_mbps = time_cpu_mbps(
            [&] { baselines::dictionary_rle_encode(rows); }, input.size());
    } else {
        p.cpu_mbps = time_cpu_mbps(
            [&] { baselines::dictionary_encode(rows); }, input.size());
    }

    const auto base = baselines::dictionary_encode(rows);
    const auto spec = dictionary_kernel_spec(base.dict, rle);
    Machine m(AddressingMode::Restricted);
    const auto res = runtime::run_job_on(m, 0, 0, spec.make_job(input));
    p.udp_lane_mbps = lane_rate_mbps(res.stats);
    attach_sim(p, res.stats);

    // Full machine: split the column row-wise into one slice per lane
    // (every slice gets its own end-of-stream sentinel).
    const std::size_t group =
        std::max<std::size_t>(1, ceil_div(rows.size(), 64));
    std::vector<runtime::JobPlan> jobs;
    std::uint64_t sched_bytes = 0;
    for (std::size_t r = 0; r < rows.size(); r += group) {
        const std::vector<std::string> slice(
            rows.begin() + r,
            rows.begin() + r + std::min(group, rows.size() - r));
        Bytes in = dict_input(slice);
        sched_bytes += in.size();
        jobs.push_back(spec.make_job(std::move(in)));
    }
    runtime::Scheduler sched(sched_options());
    attach_schedule(p, sched.run(jobs), sched_bytes);
    return p;
}

WorkloadPerf
measure_histogram()
{
    WorkloadPerf p;
    p.name = "Histogram";
    const auto xs = workloads::fp_values(100'000, 0);
    auto h = baselines::Histogram::uniform(10, 41.2, 42.5);

    p.cpu_mbps = time_cpu_mbps(
        [&] {
            auto hh = h;
            hh.add_all(xs);
        },
        xs.size() * 8);

    const auto spec = histogram_kernel_spec(h.edges());
    const Bytes packed = pack_fp_stream(xs);
    Machine m(AddressingMode::Restricted);
    const auto res = runtime::run_job_on(m, 0, 0, spec.make_job(packed));
    p.udp_lane_mbps = lane_rate_mbps(res.stats);
    attach_sim(p, res.stats);

    // Full machine: shard the packed stream (8 bytes per value) over
    // all 64 lanes; each lane fills its own bin table.
    const std::size_t values = packed.size() / 8;
    const std::size_t shard =
        std::max<std::size_t>(1, ceil_div(values, 64)) * 8;
    const auto jobs = runtime::chunk_jobs(
        spec, runtime::ArenaSlice::borrow(packed), shard);
    runtime::Scheduler sched(sched_options());
    attach_schedule(p, sched.run(jobs), packed.size());
    return p;
}

WorkloadPerf
measure_snappy_compress()
{
    WorkloadPerf p;
    p.name = "Compression (Snappy)";
    const Bytes big = workloads::text_corpus(512 * 1024, 0.5, 16);
    p.cpu_mbps = time_cpu_mbps([&] { baselines::snappy_compress(big); },
                               big.size());

    const auto spec = snappy_compress_spec();
    const Bytes block = workloads::text_corpus(kSnapMaxInput, 0.5, 16);
    Machine m(AddressingMode::Restricted);
    const auto res = runtime::run_job_on(m, 0, 0, spec.make_job(block));
    p.udp_lane_mbps = lane_rate_mbps(res.stats);
    p.parallelism = 32; // two-bank windows (input + hash table)
    attach_sim(p, res.stats);

    // Full machine: block-chunk the 512 KiB corpus; 33 max-size blocks
    // over 32 two-bank windows makes this a two-wave run.
    const auto jobs = runtime::chunk_jobs(
        spec, runtime::ArenaSlice::borrow(big), kSnapMaxInput);
    runtime::Scheduler sched(sched_options());
    attach_schedule(p, sched.run(jobs), big.size());
    return p;
}

WorkloadPerf
measure_snappy_decompress()
{
    WorkloadPerf p;
    p.name = "Decompression (Snappy)";
    const Bytes big = workloads::text_corpus(512 * 1024, 0.5, 17);
    const Bytes comp_big = baselines::snappy_compress(big);
    p.cpu_mbps = time_cpu_mbps(
        [&] { baselines::snappy_decompress(comp_big); }, comp_big.size());

    const auto spec = snappy_decompress_spec();
    const auto strip_varint = [](const Bytes &comp) {
        std::size_t pos = 0;
        while (comp[pos] & 0x80)
            ++pos;
        ++pos;
        return Bytes(comp.begin() + pos, comp.end());
    };
    const Bytes block = workloads::text_corpus(12 * 1024, 0.5, 17);
    Machine m(AddressingMode::Restricted);
    const auto res = runtime::run_job_on(
        m, 0, 0, spec.make_job(strip_varint(
                     baselines::snappy_compress(block))));
    p.udp_lane_mbps = lane_rate_mbps(res.stats);
    p.parallelism = 32; // two-bank windows (input + output)
    attach_sim(p, res.stats);

    // Full machine: compress the 512 KiB corpus in 12 KiB frames (one
    // decompression job per frame; ~43 jobs over 32 windows -> 2 waves).
    std::vector<runtime::JobPlan> jobs;
    std::uint64_t sched_bytes = 0;
    for (std::size_t off = 0; off < big.size(); off += 12 * 1024) {
        const std::size_t n = std::min<std::size_t>(12 * 1024,
                                                    big.size() - off);
        Bytes in = strip_varint(baselines::snappy_compress(
            BytesView(big).subspan(off, n)));
        sched_bytes += in.size();
        jobs.push_back(spec.make_job(std::move(in)));
    }
    runtime::Scheduler sched(sched_options());
    attach_schedule(p, sched.run(jobs), sched_bytes);
    return p;
}

WorkloadPerf
measure_trigger()
{
    WorkloadPerf p;
    p.name = "Signal Triggering";
    const Bytes packed = workloads::waveform(400'000, 13);
    const Bytes samples = samples_from_bits(packed);

    const baselines::PulseTrigger trig(6);
    p.cpu_mbps = time_cpu_mbps(
        [&] { trig.count_triggers_lut4(packed); }, samples.size());

    const auto spec = trigger_kernel_spec(6);
    Machine m(AddressingMode::Restricted);
    const auto res = runtime::run_job_on(m, 0, 0, spec.make_job(samples));
    p.udp_lane_mbps = lane_rate_mbps(res.stats);
    attach_sim(p, res.stats);

    // Full machine: sample-chunk the waveform over all 64 lanes.
    const auto jobs = runtime::chunk_jobs(
        spec, runtime::ArenaSlice::borrow(samples),
        std::max<std::size_t>(1, ceil_div(samples.size(), 64)));
    runtime::Scheduler sched(sched_options());
    attach_schedule(p, sched.run(jobs), samples.size());
    return p;
}

std::vector<WorkloadPerf>
measure_all()
{
    return {
        measure_csv_parsing(),      measure_huffman_encode(),
        measure_huffman_decode(),   measure_pattern_matching(false),
        measure_dictionary(false),  measure_dictionary(true),
        measure_histogram(),        measure_snappy_compress(),
        measure_snappy_decompress(), measure_trigger(),
    };
}

} // namespace udp::bench
