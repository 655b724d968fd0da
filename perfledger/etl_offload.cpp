/**
 * @file
 * Workload `etl_offload`: repeated Figure 1 loads of lineitem through
 * etl::load_udp_offload on a 32-lane deployment, with the Machine's
 * simulation pool fixed at 2 host threads.  The paper's motivating end
 * to end: Snappy decompression and CSV parsing run on simulated lanes
 * (threaded-tier DFA interpreter, multi-wave schedules), deserialization
 * stays on the CPU.  Kernel programs and images are built during set-up,
 * so the measured loads are compile cache hits; there is no service.
 */
#include "ledger.hpp"

#include "etl/loader.hpp"
#include "kernels/csv.hpp"
#include "kernels/snappy.hpp"
#include "runtime/kernel_spec.hpp"

#include <cstdio>
#include <memory>

namespace ledger {

namespace {

using namespace udp;

constexpr double kScale = 8.0;       ///< SF 8, about 6.6 MB of CSV
constexpr unsigned kLanes = 32;      ///< deployed lanes
constexpr unsigned kSimThreads = 2;  ///< fixed host simulation pool

struct Inputs {
    Bytes compressed;
    std::size_t csv_bytes = 0;
    std::unique_ptr<etl::Table> reference; ///< load_cpu's table
};

Inputs
make_inputs(std::uint64_t seed, double scale)
{
    Inputs in;
    const std::string csv =
        etl::lineitem_csv(scale, static_cast<unsigned>(seed));
    in.csv_bytes = csv.size();
    in.compressed = etl::compress_for_load(csv);
    in.reference =
        std::make_unique<etl::Table>("lineitem", etl::lineitem_schema());
    etl::load_cpu(in.compressed, *in.reference);
    return in;
}

/// Column-by-column equality (name, type, values, dictionaries).
bool
same_table(const etl::Table &a, const etl::Table &b, std::string &why)
{
    if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols()) {
        why = "shape " + std::to_string(a.num_rows()) + "x" +
              std::to_string(a.num_cols()) + " vs " +
              std::to_string(b.num_rows()) + "x" +
              std::to_string(b.num_cols());
        return false;
    }
    for (std::size_t i = 0; i < a.num_cols(); ++i) {
        const etl::Column &x = a.col(i), &y = b.col(i);
        if (x.name != y.name || x.type != y.type || x.ints != y.ints ||
            x.doubles != y.doubles || x.codes != y.codes ||
            x.dict.values != y.dict.values) {
            why = "column " + x.name + " differs";
            return false;
        }
    }
    return true;
}

std::uint32_t
get_u32(BytesView in, std::size_t at)
{
    return Word{in[at]} | (Word{in[at + 1]} << 8) |
           (Word{in[at + 2]} << 16) | (Word{in[at + 3]} << 24);
}

/**
 * The steps of etl::load_udp_offload, driven one layer call at a time so
 * each gets a span: job building (runtime), the two scheduled stages
 * (runtime + core interpreter), result decoding (kernels) and
 * deserialization (etl).  Frame format: u32 compressed length, u32 raw
 * length, then a Snappy block whose varint preamble the lane skips.
 */
etl::LoadBreakdown
traced_load(Machine &m, const Bytes &compressed, etl::Table &table,
            Spans &sp, std::uint64_t req, SchedTotals &snappy,
            SchedTotals &csv, double &make_job_s, std::uint64_t &jobs_made,
            runtime::BufferPool::Stats &pool)
{
    LEDGER_SPAN(root, &sp, "request", "etl.load", req);
    etl::LoadBreakdown bd;
    bd.compressed_bytes = compressed.size();

    runtime::SchedulerOptions opts;
    opts.max_jobs_per_wave = kLanes;
    runtime::Scheduler sched(m, opts);

    std::vector<runtime::JobPlan> dec_jobs;
    {
        LEDGER_SPAN(s, &sp, "runtime", "runtime.make_job", req);
        const auto t0 = Clock::now();
        const runtime::KernelSpec spec = kernels::snappy_decompress_spec();
        const auto arena = runtime::ArenaSlice::borrow(compressed);
        std::size_t pos = 0;
        while (pos < compressed.size()) {
            const std::uint32_t clen = get_u32(compressed, pos);
            pos += 8;
            std::size_t p = pos;
            while (compressed[p] & 0x80)
                ++p;
            ++p;
            dec_jobs.push_back(
                spec.make_job(arena.subslice(p, clen - (p - pos))));
            pos += clen;
        }
        make_job_s += seconds_since(t0);
        jobs_made += dec_jobs.size();
    }
    runtime::ScheduleReport dec_rep;
    {
        LEDGER_SPAN(s, &sp, "runtime", "runtime.schedule", req);
        dec_rep = sched.run(dec_jobs);
        sp.wave_phases(dec_rep, req);
    }
    snappy.add(dec_rep);
    std::string text;
    {
        LEDGER_SPAN(s, &sp, "kernels", "kernels.decode", req);
        for (const runtime::JobResult &r : dec_rep.jobs) {
            const auto res = kernels::decode_snappy_decompress_result(r);
            text.append(reinterpret_cast<const char *>(res.data.data()),
                        res.data.size());
        }
    }
    bd.decompress = double(dec_rep.wall_cycles) / kClockHz;
    bd.csv_bytes = text.size();

    std::vector<runtime::JobPlan> csv_jobs;
    {
        LEDGER_SPAN(s, &sp, "runtime", "runtime.make_job", req);
        const auto t0 = Clock::now();
        csv_jobs = runtime::chunk_jobs(
            kernels::csv_kernel_spec(),
            runtime::ArenaSlice::borrow(BytesView(
                reinterpret_cast<const std::uint8_t *>(text.data()),
                text.size())),
            12 * 1024, runtime::align_after_delim('\n'));
        make_job_s += seconds_since(t0);
        jobs_made += csv_jobs.size();
    }
    runtime::ScheduleReport csv_rep;
    {
        LEDGER_SPAN(s, &sp, "runtime", "runtime.schedule", req);
        csv_rep = sched.run(csv_jobs);
        sp.wave_phases(csv_rep, req);
    }
    csv.add(csv_rep);
    std::string fields;
    {
        LEDGER_SPAN(s, &sp, "kernels", "kernels.decode", req);
        for (const runtime::JobResult &r : csv_rep.jobs) {
            const auto res = kernels::decode_csv_result(r);
            fields.append(res.field_stream.begin(), res.field_stream.end());
        }
    }
    bd.parse = double(csv_rep.wall_cycles) / kClockHz;

    {
        LEDGER_SPAN(s, &sp, "etl", "etl.deserialize", req);
        const auto t0 = Clock::now();
        std::vector<std::string> cur;
        std::string field;
        for (const char c : fields) {
            if (c == '\n') {
                cur.push_back(std::move(field));
                field.clear();
            } else if (c == 0x1E) {
                table.append_raw(cur);
                cur.clear();
            } else {
                field.push_back(c);
            }
        }
        bd.deserialize = seconds_since(t0);
    }
    bd.rows = table.num_rows();
    const auto ps = sched.pool().stats();
    pool.acquired += ps.acquired;
    pool.reused += ps.reused;
    return bd;
}

/// Load once untraced (the public entry point), checking the table.
double
untraced_load(Machine &m, const Inputs &in, Report &r,
              etl::LoadBreakdown &bd)
{
    etl::Table table("lineitem", etl::lineitem_schema());
    const auto t0 = Clock::now();
    bd = etl::load_udp_offload(m, in.compressed, table, kLanes);
    const double dt = seconds_since(t0);
    ++r.attempted;
    std::string why;
    if (bd.csv_bytes != in.csv_bytes || !same_table(table, *in.reference, why))
        r.fail("etl_offload: table differs from load_cpu: " + why);
    return dt;
}

} // namespace

void
run_etl_offload(const RunConfig &cfg, Report &r, Spans *sp)
{
    const Inputs in = make_inputs(cfg.seed, cfg.probe ? 0.25 : kScale);
    const std::size_t min_loads = cfg.probe ? 1 : 3;
    const double mb = double(in.csv_bytes) / 1e6;
    r.env["sim_threads"] = std::to_string(kSimThreads);
    r.env["lanes"] = std::to_string(kLanes);
    r.env["csv_mb"] = std::to_string(mb);

    // Set-up: cold start to the first completed load.  The kernel
    // programs and their lowered images are built inside this first
    // load (the specs cache their programs; make_job lowers them).
    etl::LoadBreakdown bd;
    const auto t0 = Clock::now();
    Machine m(AddressingMode::Restricted);
    m.set_sim_threads(kSimThreads);
    double dt = 0;
    {
        etl::Table table("lineitem", etl::lineitem_schema());
        bd = etl::load_udp_offload(m, in.compressed, table, kLanes);
        const double setup = seconds_since(t0);
        ++r.attempted;
        std::string why;
        if (!same_table(table, *in.reference, why))
            r.fail("etl_offload: first table differs: " + why);
        r.set_e2e("setup_s", setup, "s", "host");
    }
    if (cfg.setup_only)
        return;

    // Untraced window.
    const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    std::vector<double> lat;
    double busy = 0;
    const auto w0 = Clock::now();
    while (seconds_since(w0) < window || lat.size() < min_loads) {
        dt = untraced_load(m, in, r, bd);
        lat.push_back(dt);
        busy += dt;
    }
    const double p50 = quantile(lat, 0.5);
    const double sim_s = bd.decompress + bd.parse; // identical every load
    r.set_e2e("latency_ms_p50", p50 * 1e3, "ms", "host");
    r.set_e2e("latency_ms_p90", quantile(lat, 0.9) * 1e3, "ms", "host");
    r.set_e2e("goodput_per_s", double(lat.size()) / busy, "1/s", "host");
    r.set_e2e("sim_mbps", mb / sim_s, "MB/s", "sim");
    r.set_e2e("peak_rss_mb", peak_rss_mb(), "MB", "host");
    std::vector<double> mbps;
    for (const double x : lat)
        mbps.push_back(mb / x);
    r.set_named("load_mbps", quantile(mbps, 0.5), "MB/s", "host");
    r.set_named("loads", double(lat.size()), "count", "count");
    r.set_named("deserialize_share", bd.deserialize / dt, "frac", "host");
    if (!sp)
        return;

    // Traced window: the same loads, one layer call at a time.
    {
        LEDGER_SPAN(s, sp, "assembler", "assembler.kernel_build", 0);
        kernels::snappy_decompress_program();
        kernels::csv_parser_program();
    }
    r.set_layer("assembler.kernel_build_ms",
                sp->total_s("assembler.kernel_build") * 1e3);
    SchedTotals snappy, csv;
    double make_job_s = 0;
    std::uint64_t jobs_made = 0;
    runtime::BufferPool::Stats pool;
    std::vector<double> tlat;
    double deser_s = 0, rows = 0, sim_dec = 0, sim_parse = 0;
    const double cpu0 = cpu_seconds();
    const auto t1 = Clock::now();
    while (seconds_since(t1) < window || tlat.size() < min_loads) {
        etl::Table table("lineitem", etl::lineitem_schema());
        const auto l0 = Clock::now();
        const auto tb = traced_load(m, in.compressed, table, *sp,
                                    tlat.size() + 1, snappy, csv,
                                    make_job_s, jobs_made, pool);
        tlat.push_back(seconds_since(l0));
        ++r.attempted;
        std::string why;
        if (!same_table(table, *in.reference, why))
            r.fail("etl_offload (traced): table differs: " + why);
        deser_s += tb.deserialize;
        rows += double(tb.rows);
        sim_dec = tb.decompress;
        sim_parse = tb.parse;
    }
    const double wall = seconds_since(t1);
    const double n = double(tlat.size());

    SchedTotals both = snappy;
    both.add(csv);
    // Per load: every load runs identical schedules, so the exact
    // counters of one load are the totals divided by the load count.
    SchedTotals one;
    one.sim = both.sim;
    for (std::uint64_t *c :
         {&one.sim.cycles, &one.sim.dispatches, &one.sim.actions,
          &one.sim.sig_misses, &one.sim.dispatch_reads})
        *c /= static_cast<std::uint64_t>(n);
    set_sim_layer(r, one);
    set_runtime_layer(r, both, n, kLanes);
    r.set_layer("runtime.make_job_us",
                jobs_made ? make_job_s * 1e6 / double(jobs_made) : 0.0);
    r.set_layer("runtime.pool_reuse",
                pool.acquired ? double(pool.reused) / double(pool.acquired)
                              : 0.0);
    r.set_layer("host.cpu_per_wall", (cpu_seconds() - cpu0) / wall);
    r.set_layer("core.interp.simulate_s", both.host_simulate_s / n);
    r.set_layer("core.interp.ns_per_lane_cycle.snappy",
                snappy.host_simulate_s * 1e9 / double(snappy.sim.cycles));
    r.set_layer("core.interp.ns_per_lane_cycle.csv",
                csv.host_simulate_s * 1e9 / double(csv.sim.cycles));
    r.set_layer("etl.deserialize_s", deser_s / n);
    r.set_layer("etl.rows_per_s", rows / deser_s);
    r.set_layer("etl.sim_decompress_s", sim_dec);
    r.set_layer("etl.sim_parse_s", sim_parse);
    const double tp50 = quantile(tlat, 0.5);
    r.set_layer("trace.overhead_frac", tp50 / p50 - 1.0);
    set_span_layer(r, *sp, n);
}

int
determinism_etl_offload(std::uint64_t seed)
{
    // A small table keeps the check quick; the schedules are still
    // multi-wave at 32 lanes.
    const Inputs in = make_inputs(seed, 1.0);
    int bad = 0;
    std::vector<etl::LoadBreakdown> seen;
    std::vector<SchedTotals> traced;
    for (const unsigned threads : {1u, 2u, 1u, 2u}) {
        Machine m(AddressingMode::Restricted);
        m.set_sim_threads(threads);
        Report r;
        etl::LoadBreakdown bd;
        untraced_load(m, in, r, bd);
        bad += static_cast<int>(r.failed);
        seen.push_back(bd);

        Spans sp;
        etl::Table table("lineitem", etl::lineitem_schema());
        SchedTotals snappy, csv;
        double mj = 0;
        std::uint64_t jobs = 0;
        runtime::BufferPool::Stats pool;
        traced_load(m, in.compressed, table, sp, 1, snappy, csv, mj, jobs,
                    pool);
        std::string why;
        if (!same_table(table, *in.reference, why)) {
            std::fprintf(stderr, "etl_offload: traced table: %s\n",
                         why.c_str());
            ++bad;
        }
        snappy.add(csv);
        traced.push_back(snappy);
    }
    for (std::size_t i = 1; i < seen.size(); ++i) {
        if (seen[i].decompress != seen[0].decompress ||
            seen[i].parse != seen[0].parse ||
            traced[i].sim != traced[0].sim ||
            traced[i].wall_cycles != traced[0].wall_cycles) {
            std::fprintf(stderr,
                         "etl_offload: simulated results differ between "
                         "runs %zu and 0 (host threads %s)\n",
                         i, i % 2 ? "2 vs 1" : "1 vs 1");
            ++bad;
        }
    }
    if (traced[0].wall_cycles !=
        static_cast<Cycles>((seen[0].decompress + seen[0].parse) * kClockHz +
                            0.5)) {
        std::fprintf(stderr, "etl_offload: traced replica's machine time "
                             "differs from load_udp_offload's\n");
        ++bad;
    }
    return bad;
}

} // namespace ledger
