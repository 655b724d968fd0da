/**
 * @file
 * Host simulation speed: the two interpreters — the threaded-code
 * engine and the legacy decode-per-step reference
 * (docs/PERFORMANCE.md, "Two interpreters, one ISA").
 *
 * This bench tracks the *simulator's* performance trajectory, not the
 * modeled hardware's: it runs the Figure 13 CSV workload (scaled up so
 * the interpreter loop dominates host time) through the wave scheduler
 * serially, once per backend, and reports host MB/s for each.
 * Simulated counters are asserted bit-identical between the two — the
 * same invariant tests/test_threaded.cpp pins per kernel.
 *
 * The threaded tier pays a one-time compile (Program -> flat micro-op
 * stream + arc tables): `compile_seconds` measures a cold build,
 * and the amortization study converts it into the input bytes a lane
 * must stream before the faster loop has paid for the compile — with
 * the shared image cache, the whole multi-wave run pays it once.
 *
 * It also tracks the *host data path* (docs/PERFORMANCE.md, "Host
 * data path & ownership"): the scheduler's per-wave phase breakdown
 * (setup / simulate / harvest host seconds) and a job-construction
 * study that rebuilds the same chunked workload twice — once slicing a
 * shared input arena (the current zero-copy model) and once deep-
 * copying every chunk into a private arena (the pre-arena owned-Bytes
 * model) — to show chunking cost is O(jobs), not O(bytes).
 *
 * Flags: --json <path> (BENCH_simspeed.json schema: the standard bench
 * envelope plus metrics.sim_host_mbps_threaded / _legacy,
 * .threaded_speedup (threaded vs legacy), .compile_seconds /
 * .compile_amortize_kib, the
 * phase breakdown metrics.host_{setup,simulate,harvest}_seconds /
 * .host_setup_share, and the setup study
 * metrics.host_setup_{arena,copy}_seconds / .setup_speedup),
 * --metrics <path> (Prometheus-style text exposition of the full
 * telemetry registry; docs/OBSERVABILITY.md), --dump-compiled (print
 * the threaded-code image of the CSV kernel — the flat micro-op stream
 * and resolved arc tables next to the disassembler's per-state listing
 * — then exit).
 */
#include "support.hpp"

#include "assembler/disasm.hpp"
#include "core/decoded_program.hpp"
#include "core/threaded_program.hpp"
#include "kernels/csv.hpp"
#include "runtime/kernel_spec.hpp"
#include "workloads/generators.hpp"

#include <chrono>
#include <cstring>

int
main(int argc, char **argv)
{
    using namespace udp;
    using namespace udp::bench;
    using Clock = std::chrono::steady_clock;

    const auto spec = kernels::csv_kernel_spec();

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dump-compiled") == 0) {
            // Debug view: the compiled image, eyeballable next to the
            // source-level state listing when backends diverge.
            const auto cp = shared_compiled(*spec.program);
            std::printf("== threaded-code image: %s ==\n%s\n",
                        spec.name.c_str(),
                        disassemble_compiled(*cp).c_str());
            std::printf("== source state @entry (disassemble_state) ==\n%s",
                        disassemble_state(*spec.program,
                                          spec.program->entry)
                            .c_str());
            return 0;
        }
    }

    MetricsRecorder rec("bench_simspeed", argc, argv);
    set_sim_threads(1); // serial: measure the interpreter, not the pool

    // ~3.8 MB of CSV so one measured run simulates a few million cycles.
    const std::string text = workloads::crimes_csv(20'000);
    const Bytes data(text.begin(), text.end());

    // 8 KiB rows-aligned chunks: half the per-job input cap, so the
    // extracted field region cannot overflow the output half-window.
    // ~240 jobs over 32 windows -> a multi-wave serial run.
    const std::size_t chunk = 8 * 1024;

    struct PathResult {
        double host_seconds = 0; ///< best-of-reps simulation time
        double host_mbps = 0;
        double setup_seconds = 0;   ///< best run: stage+assign phase
        double simulate_seconds = 0; ///< best run: lane interpreter phase
        double harvest_seconds = 0; ///< best run: unstage+bookkeeping
        LaneStats total;
        Cycles wall = 0;
    };
    const auto measure = [&](SimBackend backend) {
        set_sim_backend(backend);
        PathResult r;
        const int reps = 5; // best-of-5 absorbs host scheduling noise
        for (int i = 0; i < reps; ++i) {
            // Rebuild the jobs inside the toggle so the plans' resolved
            // image (JobPlan::compiled) reflects the tier under test.
            const auto jobs = runtime::chunk_jobs(
                spec, runtime::ArenaSlice::borrow(data), chunk,
                runtime::align_after_delim('\n'));
            runtime::Scheduler sched(sched_options());
            const auto rep = sched.run(jobs);
            if (i == 0 || rep.host_seconds < r.host_seconds) {
                r.host_seconds = rep.host_seconds;
                r.setup_seconds = rep.host_setup_seconds;
                r.simulate_seconds = rep.host_simulate_seconds;
                r.harvest_seconds = rep.host_harvest_seconds;
            }
            r.total = rep.total;
            r.wall = rep.wall_cycles;
        }
        r.host_mbps = r.host_seconds > 0
                          ? double(data.size()) / r.host_seconds / 1e6
                          : 0;
        return r;
    };

    // Warm both tiers (image caches, page faults) before timing.
    measure(SimBackend::Threaded);
    measure(SimBackend::Legacy);
    const auto thr = measure(SimBackend::Threaded);
    const auto leg = measure(SimBackend::Legacy);
    set_sim_backend(SimBackend::Threaded); // restore default for finish()

    if (thr.total != leg.total || thr.wall != leg.wall)
        throw UdpError("bench_simspeed: simulated counters diverge "
                       "between interpreters");

    const double thr_speedup =
        leg.host_mbps > 0 ? thr.host_mbps / leg.host_mbps : 0;

    print_header("Host simulation speed (serial, CSV x20000 rows)",
                 {"backend", "host MB/s", "host s/run", "sim cycles"});
    print_row({"threaded", fmt(thr.host_mbps), fmt(thr.host_seconds, 4),
               fmt(double(thr.wall), 0)});
    print_row({"legacy", fmt(leg.host_mbps), fmt(leg.host_seconds, 4),
               fmt(double(leg.wall), 0)});
    std::printf("\nthreaded speedup: %.2fx over legacy (host time; "
                "simulated counters bit-identical)\n",
                thr_speedup);

    // --- Compile cost and its amortization -------------------------------
    // A cold threaded-code build: Program -> flat micro-op stream +
    // resolved arc tables (no caches involved).  The shared_compiled()
    // cache pays this once per program content; every lane, wave and
    // rep above reused one image.
    double compile_s = 0;
    for (int i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        const CompiledProgram cold(*spec.program);
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (i == 0 || s < compile_s)
            compile_s = s;
    }
    // Input bytes at which the faster loop has repaid the compile:
    // compile_s == bytes * (1/thr_rate - 1/leg_rate).
    const double rate_gain =
        thr.host_seconds > 0 && leg.host_seconds > 0
            ? (leg.host_seconds - thr.host_seconds) / double(data.size())
            : 0;
    const double amortize_kib =
        rate_gain > 0 ? compile_s / rate_gain / 1024.0 : 0;
    print_header("Threaded-code compile cost (cold, best of 5)",
                 {"metric", "value"});
    print_row({"compile ms", fmt(compile_s * 1e3, 3)});
    print_row({"amortized after KiB", fmt(amortize_kib, 1)});
    print_row({"this run's input KiB", fmt(data.size() / 1024.0, 1)});
    std::printf("\none compile serves all lanes and waves via the "
                "shared image cache\n");

    // --- Host phase breakdown (best threaded run) ------------------------
    // Setup = pack + validate + stage + assign; simulate = the lane
    // interpreter; harvest = unstage + result bookkeeping.  With the
    // arena data path, setup must stay a small share of the wave loop.
    const double phase_total =
        thr.setup_seconds + thr.simulate_seconds + thr.harvest_seconds;
    const double setup_share =
        phase_total > 0 ? thr.setup_seconds / phase_total : 0;
    print_header("Host wave-loop phase breakdown (threaded backend)",
                 {"phase", "host ms", "share"});
    const auto phase_row = [&](const char *name, double s) {
        print_row({name, fmt(s * 1e3, 3),
                   fmt(phase_total > 0 ? 100 * s / phase_total : 0, 1) +
                       "%"});
    };
    phase_row("setup (stage+assign)", thr.setup_seconds);
    phase_row("simulate", thr.simulate_seconds);
    phase_row("harvest", thr.harvest_seconds);

    // --- Setup study: arena slicing vs per-chunk deep copies -------------
    // Same chunked workload, built two ways.  The arena path pins one
    // shared InputArena and hands out sub-slices; the copy path
    // materializes a private arena per chunk — exactly what the old
    // owned-Bytes JobPlan model paid.  A bigger corpus so the copied
    // bytes dominate fixed per-plan overhead.
    {
        const std::string big_text = workloads::crimes_csv(80'000);
        const Bytes big(big_text.begin(), big_text.end());
        const auto build_arena = [&] {
            return runtime::chunk_jobs(
                spec, runtime::ArenaSlice::borrow(big), chunk,
                runtime::align_after_delim('\n'));
        };
        const auto build_copy = [&] {
            auto jobs = build_arena();
            for (auto &pl : jobs) {
                // The owned-Bytes model deep-copied every chunk into
                // its plan *and* again into the CSV prepare hook's
                // staged region ({0, p.input} was a Bytes copy).
                pl.input = runtime::ArenaSlice::take(
                    Bytes(pl.input.begin(), pl.input.end()));
                for (auto &st : pl.stages)
                    st.data = runtime::ArenaSlice::take(
                        Bytes(st.data.begin(), st.data.end()));
            }
            return jobs;
        };
        const auto time_build = [&](const auto &build) {
            double best = 0;
            std::size_t jobs = 0;
            for (int i = 0; i < 7; ++i) { // best-of-7: pure host timing
                const auto t0 = Clock::now();
                const auto js = build();
                const double s =
                    std::chrono::duration<double>(Clock::now() - t0)
                        .count();
                jobs = js.size();
                if (i == 0 || s < best)
                    best = s;
            }
            return std::make_pair(best, jobs);
        };
        const auto [arena_s, njobs] = time_build(build_arena);
        const auto [copy_s, njobs2] = time_build(build_copy);
        (void)njobs2;
        const double setup_speedup = arena_s > 0 ? copy_s / arena_s : 0;

        print_header("Job construction: arena slices vs chunk copies",
                     {"data path", "host ms", "jobs", "MB chunked"});
        print_row({"arena slices", fmt(arena_s * 1e3, 3),
                   std::to_string(njobs), fmt(big.size() / 1e6, 1)});
        print_row({"per-chunk copies", fmt(copy_s * 1e3, 3),
                   std::to_string(njobs), fmt(big.size() / 1e6, 1)});
        std::printf("\nsetup speedup: %.2fx (chunking %zu jobs without "
                    "copying payload bytes)\n",
                    setup_speedup, njobs);
        rec.add_metric("host_setup_arena_seconds", arena_s);
        rec.add_metric("host_setup_copy_seconds", copy_s);
        rec.add_metric("setup_jobs", double(njobs));
        rec.add_metric("setup_speedup", setup_speedup);
    }

    rec.add_metric("input_bytes", double(data.size()));
    rec.add_metric("sim_cycles", double(thr.wall));
    rec.add_metric("sim_host_mbps_threaded", thr.host_mbps);
    rec.add_metric("sim_host_mbps_legacy", leg.host_mbps);
    rec.add_metric("threaded_speedup", thr_speedup);
    rec.add_metric("compile_seconds", compile_s);
    rec.add_metric("compile_amortize_kib", amortize_kib);
    rec.add_metric("host_setup_seconds", thr.setup_seconds);
    rec.add_metric("host_simulate_seconds", thr.simulate_seconds);
    rec.add_metric("host_harvest_seconds", thr.harvest_seconds);
    rec.add_metric("host_setup_share", setup_share);
    return rec.finish();
}
