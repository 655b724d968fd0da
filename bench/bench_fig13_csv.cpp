/**
 * @file
 * Figure 13: CSV file parsing - per-dataset CPU-thread rate vs UDP lane
 * rate, full-UDP throughput, and throughput/watt ratio.
 *
 * Observability flags (docs/OBSERVABILITY.md):
 *   --json <path>    machine-readable metrics
 *   --trace <path>   merged Chrome trace (shared bench flag; this bench
 *                    additionally instruments the first dataset's probe
 *                    run with the shared lane tracer)
 *   --profile        hot-state / hot-action report for the same run (from
 *                    the shared lane tracer, or a local one without
 *                    --trace)
 */
#include "support.hpp"

#include "assembler/disasm.hpp"
#include "baselines/csv.hpp"
#include "core/trace.hpp"
#include "kernels/csv.hpp"
#include "workloads/generators.hpp"

#include <cstring>

int
main(int argc, char **argv)
{
    using namespace udp;
    using namespace udp::bench;

    MetricsRecorder rec("bench_fig13_csv", argc, argv);
    bool want_profile = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--profile") == 0)
            want_profile = true;

    const UdpCostModel cost;
    struct Ds {
        const char *name;
        std::string text;
    };
    const Ds sets[] = {
        {"Crimes-like", workloads::crimes_csv(80)},
        {"Taxi-like", workloads::taxi_csv(70)},
        {"FoodInsp-like", workloads::food_inspection_csv(18)},
    };

    print_header("Figure 13: CSV Parsing",
                 {"dataset", "CPU MB/s", "UDP lane MB/s", "lane/thread",
                  "UDP32 MB/s", "TPut/W ratio"});

    Tracer local_tracer;
    Tracer *const probe_tracer =
        bench_lane_tracer() ? bench_lane_tracer()
                            : want_profile ? &local_tracer : nullptr;
    bool first = true;
    for (const auto &ds : sets) {
        const Bytes data(ds.text.begin(), ds.text.end());
        WorkloadPerf p;
        p.name = std::string("CSV ") + ds.name;
        p.cpu_mbps = time_cpu_mbps(
            [&] { baselines::parse_csv(data); }, data.size());
        // Instrument only the first dataset, on a separate machine, so
        // the flags never perturb the reported rates.  Under --trace the
        // lane tracer is the shared one: its events land in the merged
        // trace MetricsRecorder::finish() writes.
        if (first && probe_tracer) {
            Machine probe(AddressingMode::Restricted);
            probe.set_tracer(probe_tracer);
            kernels::run_csv_kernel(probe, 0, data, 0);
        }
        Machine m(AddressingMode::Restricted);
        const auto res = kernels::run_csv_kernel(m, 0, data, 0);
        p.udp_lane_mbps = res.stats.rate_mbps();
        p.parallelism = 32; // two-bank windows
        attach_sim(p, res.stats);

        print_row({ds.name, fmt(p.cpu_mbps), fmt(p.udp_lane_mbps),
                   fmt(p.udp_lane_mbps / p.cpu_mbps, 2),
                   fmt(p.udp64_mbps()),
                   fmt(p.perf_watt_ratio(cost), 0)});
        rec.add_workload(p);
        first = false;
    }
    std::printf("\npaper shape: one lane 195-222 MB/s, >4x one thread; "
                ">1000x TPut/W vs CPU\n");

    if (want_profile) {
        const Program prog = kernels::csv_parser_program();
        std::printf("\n%s",
                    probe_tracer->profile()
                        .report(10, make_state_symbolizer(prog))
                        .c_str());
    }
    return rec.finish();
}
