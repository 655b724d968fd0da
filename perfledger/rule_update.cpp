/**
 * @file
 * Workload `rule_update`: NIDS rule churn.  A stream of distinct seeded
 * rulesets, each 24 literal signatures compiled to aDFA groups plus 24
 * complex regexes compiled to NFA groups.  Per ruleset: regex -> NFA ->
 * DFA/aDFA -> UDP program (EffCLiP layout), a `.udpbin` round trip of
 * every group, and a scan of one fixed packet trace through a serial
 * Scheduler.  Every ruleset is new, so the automata, assembler and image
 * layers all work cold (the 128-entry image caches miss), and NFA mode
 * runs the predecode-tier NFA interpreter, which etl_offload never does.
 */
#include "ledger.hpp"

#include "core/image.hpp"
#include "core/threaded_program.hpp"
#include "kernels/pattern.hpp"
#include "runtime/kernel_spec.hpp"
#include "workloads/generators.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace ledger {

namespace {

using namespace udp;
using kernels::FaModel;

constexpr std::size_t kTraceBytes = 32 * 1024; ///< the fixed packet trace
constexpr std::size_t kPoolPatterns = 256;     ///< per kind
constexpr std::size_t kSetPatterns = 24;       ///< per kind per ruleset
/// Lane groups per kind: six literals per aDFA group, three regexes per
/// NFA group, so every group's layout fits one lane's dispatch window.
constexpr unsigned kLiteralGroups = 4;
constexpr unsigned kComplexGroups = 8;
/// Every window holds at least this many rulesets, so p90 has >= 10
/// samples beyond it; the exact sim.* counters and sim_mbps are summed
/// over the first this-many rulesets of the window's index range.
constexpr std::size_t kMinRulesets = 100;
/// Disjoint index ranges of the ruleset stream, so no phase replays a
/// ruleset (and hits an image cache) another phase already compiled.
constexpr std::uint64_t kSetupIndex = 1ull << 40;
constexpr std::uint64_t kTracedBase = 1ull << 20;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

struct Ruleset {
    std::vector<std::string> literal; ///< aDFA groups
    std::vector<std::string> complex; ///< NFA groups
};

struct Inputs {
    std::vector<std::string> literal_pool, complex_pool;
    Bytes trace;
    std::uint64_t seed = 0;
    /// software_matches of each pool pattern alone over the trace.
    std::map<std::string, std::uint64_t> matches;

    /// Ruleset `index` of the stream: a seeded sample of each pool.
    Ruleset ruleset(std::uint64_t index) const {
        Ruleset rs;
        std::uint64_t s = mix64(seed ^ mix64(index));
        auto sample = [&](const std::vector<std::string> &pool,
                          std::vector<std::string> &out) {
            std::vector<std::size_t> ix(pool.size());
            for (std::size_t i = 0; i < ix.size(); ++i)
                ix[i] = i;
            for (std::size_t i = 0; i < kSetPatterns; ++i) {
                s = mix64(s);
                std::swap(ix[i], ix[i + s % (ix.size() - i)]);
                out.push_back(pool[ix[i]]);
            }
        };
        sample(literal_pool, rs.literal);
        sample(complex_pool, rs.complex);
        return rs;
    }
};

Inputs
make_inputs(std::uint64_t seed)
{
    Inputs in;
    in.seed = seed;
    const auto s = static_cast<unsigned>(seed);
    // Distinct strings only: two copies of one literal in a group would
    // merge into one DFA accept but count twice in the NFA oracle.
    auto pool = [&](bool complex, unsigned salt) {
        std::vector<std::string> out;
        for (auto &p : workloads::nids_patterns(kPoolPatterns, complex,
                                                s + salt))
            if (std::find(out.begin(), out.end(), p) == out.end())
                out.push_back(std::move(p));
        return out;
    };
    in.literal_pool = pool(false, 0);
    in.complex_pool = pool(true, 1);
    std::vector<std::string> plants = in.literal_pool;
    plants.insert(plants.end(), in.complex_pool.begin(),
                  in.complex_pool.end());
    // Plant literal prefixes often enough that a ruleset of 48 patterns
    // sees matches on the 32 KiB trace.
    in.trace = workloads::packet_payloads(kTraceBytes, plants, 0.25, s + 2);
    for (const std::string &p : plants)
        in.matches[p] = kernels::software_matches({p}, in.trace);
    return in;
}

/// pattern_groups' round-robin partition of one ruleset, aDFA groups
/// first.
std::vector<std::vector<std::string>>
partition(const Ruleset &rs)
{
    std::vector<std::vector<std::string>> out;
    for (const auto *set : {&rs.literal, &rs.complex}) {
        const std::size_t g = std::min<std::size_t>(
            set == &rs.literal ? kLiteralGroups : kComplexGroups,
            set->size());
        std::vector<std::vector<std::string>> groups(g);
        for (std::size_t i = 0; i < set->size(); ++i)
            groups[i % g].push_back((*set)[i]);
        out.insert(out.end(), groups.begin(), groups.end());
    }
    return out;
}

/**
 * The CPU oracle, kernels::software_matches, per group.  Its count is
 * the number of (position, accepting pattern) pairs of the group's union
 * NFA, and a union keeps one accept state per pattern, so a group's
 * count is the sum of its patterns' counts alone; those are computed
 * once per pool with the inputs.  `direct` runs software_matches on the
 * whole group instead (the set-up ruleset checks the two agree).
 */
std::vector<std::uint64_t>
oracle(const Inputs &in, const Ruleset &rs, bool direct = false)
{
    std::vector<std::uint64_t> out;
    for (const auto &grp : partition(rs)) {
        std::uint64_t n = 0;
        if (direct)
            n = kernels::software_matches(grp, in.trace);
        else
            for (const std::string &p : grp)
                n += in.matches.at(p);
        out.push_back(n);
    }
    return out;
}

runtime::SchedulerOptions
serial_options()
{
    runtime::SchedulerOptions o;
    o.threads = 1;
    return o;
}

/**
 * The serial Scheduler every ruleset scans through, plus the programs
 * its lanes ran last.  Machine::assign hard-resets every lane, and
 * Lane::reset reads the program that lane ran before, so a program freed
 * before a later run replaces it in its lane is read after free.  Each
 * ruleset's programs are therefore held until the next ruleset is done.
 */
struct Scanner {
    runtime::Scheduler sched;
    std::vector<std::shared_ptr<const Program>> held, prev;

    Scanner() : sched(serial_options()) {}

    void next_ruleset() {
        prev = std::move(held);
        held.clear();
    }

    /// Scan the trace with one job per group; one accept count per group
    /// (a job that did not complete reports ~0, never an oracle count).
    /// With `sp`, the waves' host phases become spans under the open one.
    void scan(const std::vector<runtime::JobPlan> &jobs,
              std::vector<std::uint64_t> &counts, SchedTotals &acc,
              Spans *sp = nullptr, std::uint64_t req = 0) {
        for (const runtime::JobPlan &j : jobs)
            held.push_back(j.program);
        runtime::ScheduleReport rep = sched.run(jobs);
        if (sp)
            sp->wave_phases(rep, req);
        acc.add(rep);
        for (const runtime::JobResult &r : rep.jobs)
            counts.push_back(r.status == LaneStatus::Done
                                 ? r.stats.accepts
                                 : ~std::uint64_t{0});
        sched.recycle(std::move(rep));
    }
};

/// One ruleset through the public entry points.
std::vector<std::uint64_t>
run_ruleset(const Ruleset &rs, Scanner &sc, const runtime::ArenaSlice &trace,
            SchedTotals &adfa, SchedTotals &nfa)
{
    sc.next_ruleset();
    std::vector<std::uint64_t> counts;
    for (const FaModel model : {FaModel::Adfa, FaModel::Nfa}) {
        auto specs = kernels::pattern_group_specs(
            model == FaModel::Adfa ? rs.literal : rs.complex, model,
            model == FaModel::Adfa ? kLiteralGroups : kComplexGroups);
        std::vector<runtime::JobPlan> jobs;
        for (auto &spec : specs) {
            const Bytes image = save_program(*spec.program);
            spec.program = std::make_shared<const Program>(load_program(image));
            jobs.push_back(spec.make_job(trace));
        }
        sc.scan(jobs, counts, model == FaModel::Adfa ? adfa : nfa);
    }
    return counts;
}

/// Per-ruleset work counts of the traced path (exact).
struct RulesetCounts {
    double dfa_states = 0, adfa_arcs = 0, code_bytes = 0, image_bytes = 0;
};

/// The same ruleset, one layer call at a time (the steps of
/// kernels::pattern_groups, then the image round trip, lowering, job
/// building and the two scans).
std::vector<std::uint64_t>
traced_ruleset(const Ruleset &rs, Scanner &sc,
               const runtime::ArenaSlice &trace, SchedTotals &adfa,
               SchedTotals &nfa, Spans &sp, std::uint64_t req,
               RulesetCounts &wc, double &make_job_s, std::uint64_t &jobs)
{
    LEDGER_SPAN(root, &sp, "request", "rule.ruleset", req);
    sc.next_ruleset();
    std::vector<std::uint64_t> counts;
    const auto all_groups = partition(rs);
    for (const FaModel model : {FaModel::Adfa, FaModel::Nfa}) {
        const std::size_t first = model == FaModel::Adfa ? 0 : kLiteralGroups;
        const std::size_t ng =
            model == FaModel::Adfa ? kLiteralGroups : kComplexGroups;
        const std::vector<std::vector<std::string>> groups(
            all_groups.begin() + first, all_groups.begin() + first + ng);

        std::vector<runtime::KernelSpec> specs;
        for (std::size_t g = 0; g < ng; ++g) {
            std::vector<std::unique_ptr<RegexNode>> storage;
            std::vector<const RegexNode *> asts;
            {
                LEDGER_SPAN(s, &sp, "automata", "automata.parse", req);
                for (const auto &p : groups[g]) {
                    storage.push_back(parse_regex(p));
                    asts.push_back(storage.back().get());
                }
            }
            Nfa nfa_g;
            {
                LEDGER_SPAN(s, &sp, "automata", "automata.nfa", req);
                nfa_g = build_multi_nfa(asts);
                if (model == FaModel::Nfa)
                    nfa_g = eliminate_epsilon(nfa_g);
            }
            Program prog;
            if (model == FaModel::Adfa) {
                Dfa dfa;
                {
                    LEDGER_SPAN(s, &sp, "automata", "automata.dfa", req);
                    dfa = minimize(determinize(nfa_g));
                }
                Adfa a;
                {
                    LEDGER_SPAN(s, &sp, "automata", "automata.adfa", req);
                    a = build_adfa(dfa);
                }
                wc.dfa_states += double(dfa.size());
                wc.adfa_arcs += double(a.arc_count());
                LEDGER_SPAN(s, &sp, "assembler", "assembler.build", req);
                prog = compile_adfa(a);
            } else {
                LEDGER_SPAN(s, &sp, "assembler", "assembler.build", req);
                prog = compile_nfa(nfa_g);
            }
            wc.code_bytes += double(prog.layout.code_bytes());

            Bytes image;
            {
                LEDGER_SPAN(s, &sp, "core.image", "core.image.save", req);
                image = save_program(prog);
            }
            wc.image_bytes += double(image.size());
            runtime::KernelSpec spec;
            spec.name = "pattern/g" + std::to_string(g);
            spec.nfa_mode = model == FaModel::Nfa;
            {
                LEDGER_SPAN(s, &sp, "core.image", "core.image.load", req);
                spec.program =
                    std::make_shared<const Program>(load_program(image));
            }
            {
                LEDGER_SPAN(s, &sp, "core.image", "core.image.lower", req);
                shared_compiled(*spec.program);
            }
            specs.push_back(std::move(spec));
        }

        std::vector<runtime::JobPlan> plans;
        {
            LEDGER_SPAN(s, &sp, "runtime", "runtime.make_job", req);
            const auto t0 = Clock::now();
            for (const auto &spec : specs)
                plans.push_back(spec.make_job(trace));
            make_job_s += seconds_since(t0);
            jobs += plans.size();
        }
        {
            LEDGER_SPAN(s, &sp, "runtime", "runtime.schedule", req);
            sc.scan(plans, counts, model == FaModel::Adfa ? adfa : nfa, &sp,
                    req);
        }
    }
    return counts;
}

/// Check each window's counts against the oracle (outside every timed
/// region).
void
verify(const Inputs &in, std::uint64_t base,
       const std::vector<std::vector<std::uint64_t>> &got, Report &r,
       const char *phase)
{
    for (std::size_t i = 0; i < got.size(); ++i) {
        ++r.attempted;
        if (got[i] != oracle(in, in.ruleset(base + i)))
            r.fail(std::string("rule_update (") + phase + "): ruleset " +
                   std::to_string(base + i) +
                   " match counts differ from software_matches");
    }
}

} // namespace

void
run_rule_update(const RunConfig &cfg, Report &r, Spans *sp)
{
    const Inputs in = make_inputs(cfg.seed);
    const auto trace = runtime::ArenaSlice::borrow(in.trace);
    r.env["sim_threads"] = "1";
    r.env["groups"] = std::to_string(kLiteralGroups) + " aDFA + " +
                      std::to_string(kComplexGroups) + " NFA";

    // Set-up: cold start (Scheduler + Machine) to the first ruleset's
    // match counts.
    const Ruleset first = in.ruleset(kSetupIndex);
    const auto t0 = Clock::now();
    Scanner sc;
    SchedTotals scratch_a, scratch_n;
    const auto c0 = run_ruleset(first, sc, trace, scratch_a, scratch_n);
    r.set_e2e("setup_s", seconds_since(t0), "s", "host");
    ++r.attempted;
    const auto want = oracle(in, first);
    if (c0 != want || oracle(in, first, true) != want)
        r.fail("rule_update: first ruleset's match counts differ");
    if (cfg.setup_only)
        return;

    const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    const std::size_t min_rulesets = cfg.probe ? 2 : kMinRulesets;
    std::vector<std::vector<std::uint64_t>> got;
    std::vector<double> lat;
    SchedTotals sim, rest; // the exact prefix, and everything after it
    const auto w0 = Clock::now();
    while (seconds_since(w0) < window || got.size() < min_rulesets) {
        const Ruleset rs = in.ruleset(got.size());
        SchedTotals &acc = got.size() < min_rulesets ? sim : rest;
        const auto l0 = Clock::now();
        got.push_back(run_ruleset(rs, sc, trace, acc, acc));
        lat.push_back(seconds_since(l0));
    }
    double busy = 0;
    for (const double x : lat)
        busy += x;
    r.set_e2e("latency_ms_p50", quantile(lat, 0.5) * 1e3, "ms", "host");
    r.set_e2e("latency_ms_p90", quantile(lat, 0.9) * 1e3, "ms", "host");
    r.set_e2e("goodput_per_s", double(lat.size()) / busy, "1/s", "host");
    r.set_e2e("sim_mbps", sim.sim_mbps(), "MB/s", "sim");
    r.set_e2e("peak_rss_mb", peak_rss_mb(), "MB", "host");
    r.set_named("ruleset_ms_p50", quantile(lat, 0.5) * 1e3, "ms", "host");
    r.set_named("ruleset_ms_p90", quantile(lat, 0.9) * 1e3, "ms", "host");
    r.set_named("rulesets", double(lat.size()), "count", "count");
    verify(in, 0, got, r, "untraced");
    if (!sp)
        return;

    // Traced window over a disjoint stretch of the ruleset stream.
    got.clear();
    std::vector<double> tlat;
    SchedTotals tadfa, tnfa, tsim;
    RulesetCounts wc, scratch_wc;
    double make_job_s = 0;
    std::uint64_t jobs = 0;
    const double cpu0 = cpu_seconds();
    const auto t1 = Clock::now();
    while (seconds_since(t1) < window || got.size() < min_rulesets) {
        const std::uint64_t idx = kTracedBase + got.size();
        const Ruleset rs = in.ruleset(idx);
        const bool prefix = got.size() < min_rulesets;
        SchedTotals a, n;
        const auto l0 = Clock::now();
        got.push_back(traced_ruleset(rs, sc, trace, a, n, *sp, idx,
                                     prefix ? wc : scratch_wc, make_job_s,
                                     jobs));
        tlat.push_back(seconds_since(l0));
        tadfa.add(a);
        tnfa.add(n);
        if (prefix) {
            tsim.add(a);
            tsim.add(n);
        }
    }
    const double wall = seconds_since(t1);
    const double n = double(tlat.size());
    SchedTotals all = tadfa;
    all.add(tnfa);

    for (const char *layer : {"parse", "nfa", "dfa", "adfa"})
        r.set_layer(std::string("automata.") + layer + "_ms",
                    sp->total_s(std::string("automata.") + layer) * 1e3 / n);
    const double k = double(min_rulesets);
    r.set_layer("automata.dfa_states", wc.dfa_states / k);
    r.set_layer("automata.adfa_arcs", wc.adfa_arcs / k);
    r.set_layer("assembler.build_ms",
                sp->total_s("assembler.build") * 1e3 / n);
    r.set_layer("assembler.code_bytes", wc.code_bytes / k);
    r.set_layer("core.image.save_ms",
                sp->total_s("core.image.save") * 1e3 / n);
    r.set_layer("core.image.load_ms",
                sp->total_s("core.image.load") * 1e3 / n);
    r.set_layer("core.image.lower_ms",
                sp->total_s("core.image.lower") * 1e3 / n);
    r.set_layer("core.image.bytes", wc.image_bytes / k);
    r.set_layer("core.interp.simulate_s", all.host_simulate_s / n);
    r.set_layer("core.interp.ns_per_lane_cycle.adfa",
                tadfa.host_simulate_s * 1e9 / double(tadfa.sim.cycles));
    r.set_layer("core.interp.ns_per_lane_cycle.nfa",
                tnfa.host_simulate_s * 1e9 / double(tnfa.sim.cycles));
    set_sim_layer(r, tsim);
    set_runtime_layer(r, all, n, kNumLanes);
    r.set_layer("runtime.make_job_us",
                jobs ? make_job_s * 1e6 / double(jobs) : 0.0);
    const auto ps = sc.sched.pool().stats();
    r.set_layer("runtime.pool_reuse",
                ps.acquired ? double(ps.reused) / double(ps.acquired) : 0.0);
    r.set_layer("host.cpu_per_wall", (cpu_seconds() - cpu0) / wall);
    r.set_layer("trace.overhead_frac",
                quantile(tlat, 0.5) / quantile(lat, 0.5) - 1.0);
    set_span_layer(r, *sp, n);
    verify(in, kTracedBase, got, r, "traced");
}

int
determinism_rule_update(std::uint64_t seed)
{
    const Inputs in = make_inputs(seed);
    const auto trace = runtime::ArenaSlice::borrow(in.trace);
    int bad = 0;
    std::vector<SchedTotals> runs;
    for (int rep = 0; rep < 2; ++rep) {
        Scanner sc;
        SchedTotals a, n;
        for (std::uint64_t i = 0; i < 4; ++i) {
            const Ruleset rs = in.ruleset(i);
            const auto want = oracle(in, rs);
            if (oracle(in, rs, true) != want)
                ++bad; // the per-pattern decomposition must be exact
            if (run_ruleset(rs, sc, trace, a, n) != want)
                ++bad;
            Spans sp;
            RulesetCounts wc;
            double mj = 0;
            std::uint64_t jobs = 0;
            SchedTotals ta, tn;
            if (traced_ruleset(rs, sc, trace, ta, tn, sp, i, wc, mj, jobs) !=
                want)
                ++bad;
            ta.add(tn);
            SchedTotals ua, un;
            run_ruleset(rs, sc, trace, ua, un);
            ua.add(un);
            if (ta.sim != ua.sim || ta.wall_cycles != ua.wall_cycles)
                ++bad; // the traced path must simulate the same work
        }
        a.add(n);
        runs.push_back(a);
    }
    if (runs[0].sim != runs[1].sim ||
        runs[0].wall_cycles != runs[1].wall_cycles) {
        std::fprintf(stderr, "rule_update: simulated results differ "
                             "between runs\n");
        ++bad;
    }
    if (bad)
        std::fprintf(stderr, "rule_update: %d determinism mismatches\n", bad);
    return bad;
}

} // namespace ledger
