/**
 * @file
 * Figure 16: pattern matching on NIDS-like sets - "simple" (string
 * matching, aDFA) and "complex" (regexes, NFA) - plus an FA-model
 * ablation (program size and rate for DFA / aDFA / NFA).
 *
 * Exits 1 unless every scheduled job ended Done and each ablation lane
 * ended Done with the software matcher's accept count.
 */
#include "support.hpp"

#include "kernels/pattern.hpp"
#include "workloads/generators.hpp"

#include <cstdio>

int
main(int argc, char **argv)
{
    using namespace udp;
    using namespace udp::bench;
    using namespace udp::kernels;

    MetricsRecorder rec("bench_fig16_pattern", argc, argv);
    const UdpCostModel cost;
    print_header("Figure 16: Pattern Matching",
                 {"set", "CPU MB/s", "UDP lane MB/s", "lane/thread",
                  "UDP64 MB/s", "TPut/W ratio"});

    bool ok = true;
    for (const bool complex_set : {false, true}) {
        const WorkloadPerf p = measure_pattern_matching(complex_set);
        if (p.jobs_not_done != 0) {
            std::fprintf(stderr, "bench_fig16_pattern: %u %s jobs did not "
                                 "end Done\n",
                         p.jobs_not_done, p.name.c_str());
            ok = false;
        }
        rec.add_workload(p);
        print_row({complex_set ? "complex (NFA)" : "simple (aDFA)",
                   fmt(p.cpu_mbps), fmt(p.udp_lane_mbps),
                   fmt(p.udp_lane_mbps / p.cpu_mbps, 2),
                   fmt(p.udp64_mbps()),
                   fmt(p.perf_watt_ratio(cost), 0)});
    }

    // FA-model ablation: size/rate of one 16-pattern group per model.
    const auto pats = workloads::nids_patterns(8, false);
    const Bytes payload = workloads::packet_payloads(128 * 1024, pats);
    const std::uint64_t want = software_matches(pats, payload);
    print_header("FA model ablation (8 patterns, one lane)",
                 {"model", "code bytes", "UDP lane MB/s", "matches"});
    for (const auto model : {FaModel::Dfa, FaModel::Adfa, FaModel::Nfa}) {
        const auto groups = pattern_groups(pats, model, 1);
        Machine m(AddressingMode::Restricted);
        Lane &lane = m.lane(0);
        lane.load(groups[0].program);
        lane.set_input(payload);
        const LaneStatus st =
            groups[0].nfa_mode ? lane.run_nfa() : lane.run();
        if (st != LaneStatus::Done || lane.accept_count() != want) {
            std::fprintf(stderr,
                         "bench_fig16_pattern: %s lane ended %s with %llu "
                         "matches, want done with %llu\n",
                         std::string(fa_model_name(model)).c_str(),
                         std::string(lane_status_name(st)).c_str(),
                         static_cast<unsigned long long>(
                             lane.accept_count()),
                         static_cast<unsigned long long>(want));
            ok = false;
        }
        print_row({std::string(fa_model_name(model)),
                   std::to_string(groups[0].program.layout.code_bytes()),
                   fmt(lane.stats().rate_mbps()),
                   std::to_string(lane.accept_count())});
        rec.add_metric(std::string(fa_model_name(model)) +
                           "_lane_mbps",
                       lane.stats().rate_mbps());
        rec.add_metric(std::string(fa_model_name(model)) +
                           "_code_bytes",
                       double(groups[0].program.layout.code_bytes()));
    }
    std::printf("\npaper shape: 1 lane ~7x one thread, 800-350 MB/s; "
                "~1780x TPut/W; aDFA small+fast, NFA smallest, DFA "
                "largest\n");
    const int rc = rec.finish();
    return ok ? rc : 1;
}
