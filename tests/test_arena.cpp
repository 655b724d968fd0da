/**
 * @file
 * Host data-path ownership tests (runtime/arena.hpp; docs/PERFORMANCE.md
 * "Host data path & ownership").
 *
 * Pins the zero-copy job data path end to end: chunking slices a shared
 * InputArena instead of copying, a retried job re-pins the same arena,
 * the FaultInjector's input mutations are copy-on-write (sibling chunks
 * stay byte-identical views of the original), the scheduler's
 * BufferPool hands back cleared buffers with their capacity intact, the
 * pooled harvest path is bit-identical between serial and threaded
 * backends, and — via a global operator-new counter — the steady-state
 * wave loop's allocation count is O(jobs), not O(bytes), the CPU ETL
 * load's is O(frames), not O(fields), and the offload's live heap above
 * its table is a few waves, not the text.
 *
 * This file runs under the CI AddressSanitizer, ThreadSanitizer and
 * UndefinedBehaviorSanitizer jobs (`-R "Arena\."`).
 */
#include "etl/loader.hpp"
#include "kernels/csv.hpp"
#include "kernels/trigger.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/kernel_spec.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <malloc.h>
#include <new>

// --- Global allocation counter (Arena.SteadyStateAllocationBound) ----------
//
// Replaces the replaceable global allocation functions for this test
// binary so a test can snapshot the process-wide allocation count
// around a scheduler run.  Counting happens on the non-array unaligned
// form and its siblings alike; deallocation is not counted.  Every form
// also keeps the bytes live through it (malloc_usable_size, so an
// allocation and its free count the same bytes) and their peak
// (Arena.OffloadHoldsAWindowNotTheText).

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

void *
counted_alloc_nothrow(std::size_t n) noexcept
{
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (p) {
        const auto size = std::int64_t(malloc_usable_size(p));
        const std::int64_t live =
            g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
        std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
        while (live > peak &&
               !g_peak_live_bytes.compare_exchange_weak(
                   peak, live, std::memory_order_relaxed))
            ;
    }
    return p;
}

void *
counted_alloc(std::size_t n)
{
    if (void *p = counted_alloc_nothrow(n))
        return p;
    throw std::bad_alloc();
}

void
counted_free(void *p) noexcept
{
    if (p)
        g_live_bytes.fetch_sub(std::int64_t(malloc_usable_size(p)),
                               std::memory_order_relaxed);
    std::free(p);
}
} // namespace

void *operator new(std::size_t n) { return counted_alloc(n); }
void *operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void *p) noexcept { counted_free(p); }
void operator delete[](void *p) noexcept { counted_free(p); }
void operator delete(void *p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void *p, std::size_t) noexcept { counted_free(p); }

// The nothrow forms must route through the same malloc/free pairing:
// libstdc++'s temporary buffers allocate nothrow but free through plain
// operator delete, and a half-replaced set trips ASan's
// alloc-dealloc-mismatch checker.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return counted_alloc_nothrow(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return counted_alloc_nothrow(n);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    counted_free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    counted_free(p);
}

namespace udp {
namespace {

using runtime::ArenaSlice;
using runtime::BufferPool;
using runtime::InputArena;

/// True when `view` lies inside the storage of `buf` (the zero-copy
/// proof: a borrowed slice's bytes are the caller's bytes).
bool
points_into(BytesView view, const Bytes &buf)
{
    return view.data() >= buf.data() &&
           view.data() + view.size() <= buf.data() + buf.size();
}

/// Byte-level equality of everything a job architecturally produced.
bool
same_result(const runtime::JobResult &a, const runtime::JobResult &b)
{
    if (a.status != b.status || !(a.stats == b.stats) ||
        a.regs != b.regs || a.output != b.output ||
        a.extracts != b.extracts || a.accepts.size() != b.accepts.size())
        return false;
    for (std::size_t i = 0; i < a.accepts.size(); ++i)
        if (a.accepts[i].stream_bit_pos != b.accepts[i].stream_bit_pos ||
            a.accepts[i].id != b.accepts[i].id)
            return false;
    return true;
}

/// The chunked trigger workload the scheduler tests share.
struct TriggerWorkload {
    Bytes samples;
    runtime::KernelSpec spec;

    explicit TriggerWorkload(std::size_t n = 100'000)
        : samples(kernels::samples_from_bits(workloads::waveform(n, 13))),
          spec(kernels::trigger_kernel_spec(6))
    {
    }

    std::vector<runtime::JobPlan> jobs() const {
        const std::size_t chunk = std::max<std::size_t>(
            1, (samples.size() + kNumLanes - 1) / kNumLanes);
        return runtime::chunk_jobs(spec, ArenaSlice::borrow(samples),
                                   chunk);
    }
};

runtime::SchedulerOptions
serial_opts()
{
    runtime::SchedulerOptions o;
    o.threads = 1;
    return o;
}

// --- Slicing ---------------------------------------------------------------

TEST(Arena, SlicingExactness)
{
    const std::string text = workloads::crimes_csv(400);
    const Bytes data(text.begin(), text.end());
    const std::size_t before = InputArena::live_count();

    const ArenaSlice whole = ArenaSlice::borrow(data);
    const auto jobs =
        runtime::chunk_jobs(kernels::csv_kernel_spec(), whole, 4 * 1024,
                            runtime::align_after_delim('\n'));
    ASSERT_GE(jobs.size(), 3u) << "workload too small to chunk";

    // One arena, many views: chunking allocated no payload bytes.
    EXPECT_EQ(InputArena::live_count(), before + 1);
    Bytes reassembled;
    for (const auto &pl : jobs) {
        EXPECT_EQ(pl.input.arena().get(), whole.arena().get());
        EXPECT_TRUE(points_into(pl.input.view(), data));
        EXPECT_EQ(pl.input[pl.input.size() - 1], std::uint8_t('\n'))
            << "chunk not row-aligned";
        reassembled.insert(reassembled.end(), pl.input.begin(),
                           pl.input.end());
    }
    EXPECT_EQ(reassembled, data) << "chunks must tile the input exactly";
}

TEST(Arena, BytesCompatibilityMaterializesPrivateArena)
{
    // The implicit Bytes -> ArenaSlice path (old-style call sites):
    // one move, a private arena, content intact.
    const std::size_t before = InputArena::live_count();
    Bytes payload(1024);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7);
    const Bytes pristine = payload;
    const std::uint8_t *storage = payload.data();

    const ArenaSlice s = ArenaSlice::take(std::move(payload));
    EXPECT_EQ(InputArena::live_count(), before + 1);
    EXPECT_EQ(s.data(), storage) << "take() must adopt, not copy";
    EXPECT_TRUE(s == ArenaSlice::borrow(pristine));

    // copy_of really is a private copy.
    const ArenaSlice c = ArenaSlice::copy_of(pristine);
    EXPECT_NE(c.data(), pristine.data());
    EXPECT_TRUE(c == s);
}

TEST(Arena, SubsliceSharesPinAndChecksBounds)
{
    Bytes data(256);
    const ArenaSlice whole = ArenaSlice::borrow(data);
    const ArenaSlice mid = whole.subslice(64, 128);
    EXPECT_EQ(mid.arena().get(), whole.arena().get());
    EXPECT_EQ(mid.data(), whole.data() + 64);
    EXPECT_EQ(mid.subslice(10, 20).data(), whole.data() + 74);

    EXPECT_THROW(whole.subslice(0, 257), UdpError);
    EXPECT_THROW(mid.subslice(100, 64), UdpError);
    EXPECT_THROW(ArenaSlice(whole.arena(), 128, 200), UdpError);
    EXPECT_TRUE(whole.subslice(256, 0).empty());
}

// --- Enforced lifetime -----------------------------------------------------

TEST(Arena, CheckPinnedEnforcesPlanLifetime)
{
    const TriggerWorkload w(4'096);
    auto jobs = w.jobs();
    ASSERT_FALSE(jobs.empty());
    EXPECT_NO_THROW(
        jobs[0].input.check_pinned("test", jobs[0].name, "input"));

    // Moving a plan's input away leaves the view behind without its
    // pin — exactly the use-after-move bug class the canary check is
    // for.  stage_job must refuse to stream it.
    const ArenaSlice stolen = std::move(jobs[0].input);
    EXPECT_FALSE(jobs[0].input.pinned());
    EXPECT_THROW(jobs[0].input.check_pinned("test", jobs[0].name, "input"),
                 UdpError);
    Machine m(AddressingMode::Restricted);
    EXPECT_THROW(runtime::run_job_on(m, 0, 0, jobs[0]), UdpError);

    // The slice that *kept* the pin still works.
    jobs[0].input = stolen;
    EXPECT_NO_THROW(runtime::run_job_on(m, 0, 0, jobs[0]));
}

TEST(Arena, SchedulerChecksPinsBeforeAnyLaneRuns)
{
    // The Scheduler stages through the executor's pin checks: a plan
    // whose input or stage slice lost its pin is refused before its
    // wave simulates a cycle, and the error names the slice.
    const std::string text = workloads::crimes_csv(20);
    const Bytes data(text.begin(), text.end());

    for (const std::string slice : {"input", "stage"}) {
        SCOPED_TRACE(slice);
        std::vector<runtime::JobPlan> jobs{
            kernels::csv_kernel_spec().make_job(data)};
        ASSERT_EQ(jobs[0].stages.size(), 1u);
        ArenaSlice &victim =
            slice == "input" ? jobs[0].input : jobs[0].stages[0].data;
        // Input and stage share one arena: the other slice keeps it
        // alive, so only the victim's pin is gone.
        const ArenaSlice stolen = std::move(victim);
        EXPECT_FALSE(victim.pinned());

        Machine m(AddressingMode::Restricted);
        EXPECT_THROW(runtime::run_job_on(m, 0, 0, jobs[0]), UdpError);

        runtime::Scheduler sched(serial_opts());
        std::string error;
        try {
            sched.run(jobs);
        } catch (const UdpError &e) {
            error = e.what();
        }
        EXPECT_NE(error.find("'" + jobs[0].name + "' " + slice),
                  std::string::npos)
            << error;
        EXPECT_EQ(sched.machine().lane(0).stats().cycles, 0u);
    }
}

// --- BufferPool ------------------------------------------------------------

TEST(Arena, PoolReuseReturnsClearedBuffers)
{
    BufferPool pool(/*max_buffers=*/2);

    Bytes b = pool.acquire();
    EXPECT_TRUE(b.empty());
    b.assign(4096, 0xAB);
    const std::size_t cap = b.capacity();
    pool.release(std::move(b));
    EXPECT_EQ(pool.free_buffers(), 1u);

    // Reused: cleared, capacity intact — refilling it allocates nothing.
    Bytes r = pool.acquire();
    EXPECT_TRUE(r.empty());
    EXPECT_GE(r.capacity(), cap);
    const auto s1 = pool.stats();
    EXPECT_EQ(s1.acquired, 2u);
    EXPECT_EQ(s1.reused, 1u);

    // The cap bounds pool memory: the third release drops its buffer.
    pool.release(Bytes(16));
    pool.release(Bytes(16));
    pool.release(Bytes(16));
    EXPECT_EQ(pool.free_buffers(), 2u);
    EXPECT_EQ(pool.stats().dropped, 1u);
    EXPECT_EQ(pool.stats().released, 4u);
}

// --- Scheduler integration -------------------------------------------------

TEST(Arena, RetryRepinsSameArenaNoCopies)
{
    const TriggerWorkload w;
    const auto clean_jobs = w.jobs();
    runtime::Scheduler clean_sched(serial_opts());
    const auto clean = clean_sched.run(clean_jobs);

    auto jobs = w.jobs();
    const std::size_t victim = jobs.size() / 2;
    const InputArena *arena_before = jobs[victim].input.arena().get();
    runtime::FaultInjector inj(0xBEEFull);
    inj.force_trap(jobs[victim], 2'000, /*attempts=*/1);

    auto opts = serial_opts();
    opts.retry.max_attempts = 3;
    runtime::Scheduler sched(opts);
    const std::size_t live_before = InputArena::live_count();
    const auto rep = sched.run(jobs);

    // Retrying staged the victim's bytes twice from the *same* arena:
    // no arena (hence no payload copy) materialized anywhere in the run.
    EXPECT_EQ(InputArena::live_count(), live_before);
    EXPECT_EQ(jobs[victim].input.arena().get(), arena_before);
    EXPECT_EQ(rep.retries, 1u);
    EXPECT_EQ(rep.jobs[victim].attempts, 2u);

    // The recovered run is byte-identical to the clean one, job by job.
    ASSERT_EQ(rep.jobs.size(), clean.jobs.size());
    for (std::size_t i = 0; i < rep.jobs.size(); ++i)
        EXPECT_TRUE(same_result(rep.jobs[i], clean.jobs[i])) << "job " << i;
}

TEST(Arena, FaultInjectorCopyOnWrite)
{
    const TriggerWorkload w;
    const Bytes pristine = w.samples;
    auto jobs = w.jobs();
    ASSERT_GE(jobs.size(), 3u);
    const std::size_t victim = 1;
    const InputArena *shared_arena = jobs[0].input.arena().get();

    const Bytes orig(jobs[victim].input.begin(), jobs[victim].input.end());
    runtime::FaultInjector inj(0xF00Dull);
    // count=1: a single non-zero-mask XOR guarantees a byte changed.
    inj.corrupt_input(jobs[victim], /*count=*/1);

    // The poisoned job re-pinned a private mutated arena...
    EXPECT_NE(jobs[victim].input.arena().get(), shared_arena);
    EXPECT_FALSE(points_into(jobs[victim].input.view(), w.samples));
    EXPECT_FALSE(jobs[victim].input == ArenaSlice::borrow(orig));
    EXPECT_EQ(jobs[victim].input.size(), orig.size());

    // ...while every sibling still views the original, byte-identical
    // storage, and the source buffer itself is untouched.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == victim)
            continue;
        EXPECT_EQ(jobs[i].input.arena().get(), shared_arena);
        EXPECT_TRUE(points_into(jobs[i].input.view(), w.samples));
    }
    EXPECT_EQ(w.samples, pristine);

    // Truncation narrows the view in place: same arena, same storage,
    // zero bytes copied.
    const std::size_t keep = jobs[2].input.size() / 2;
    const std::uint8_t *data_before = jobs[2].input.data();
    inj.truncate_input(jobs[2], keep);
    EXPECT_EQ(jobs[2].input.arena().get(), shared_arena);
    EXPECT_EQ(jobs[2].input.data(), data_before);
    EXPECT_EQ(jobs[2].input.size(), keep);
}

TEST(Arena, ThreadedVsSerialBitIdenticalWithPooling)
{
    const TriggerWorkload w;
    const auto jobs = w.jobs();

    const auto run_twice = [&](unsigned threads) {
        runtime::SchedulerOptions o;
        o.threads = threads;
        runtime::Scheduler sched(o);
        // Warm the pool, recycle, and re-run so the compared report is
        // the pooled steady-state one.
        sched.recycle(sched.run(jobs));
        return sched.run(jobs);
    };
    const auto serial = run_twice(1);
    const auto pooled = run_twice(4);

    EXPECT_EQ(serial.wall_cycles, pooled.wall_cycles);
    ASSERT_EQ(serial.jobs.size(), pooled.jobs.size());
    for (std::size_t i = 0; i < serial.jobs.size(); ++i)
        EXPECT_TRUE(same_result(serial.jobs[i], pooled.jobs[i]))
            << "job " << i;
}

TEST(Arena, SchedulerPoolRecyclesAcrossRuns)
{
    // CSV jobs emit real output bytes (the extracted fields), so their
    // harvested buffers carry capacity worth recycling — a trigger
    // job's empty output would be dropped by recycle().
    const std::string text = workloads::crimes_csv(2'000);
    const Bytes data(text.begin(), text.end());
    const auto jobs = runtime::chunk_jobs(
        kernels::csv_kernel_spec(), ArenaSlice::borrow(data), 8 * 1024,
        runtime::align_after_delim('\n'));
    ASSERT_GE(jobs.size(), 2u);
    runtime::Scheduler sched(serial_opts());

    auto first = sched.run(jobs);
    EXPECT_EQ(sched.pool().stats().reused, 0u);
    sched.recycle(std::move(first));
    EXPECT_GT(sched.pool().free_buffers(), 0u);

    const auto second = sched.run(jobs);
    const auto st = sched.pool().stats();
    EXPECT_GE(st.reused, jobs.size())
        << "second run should harvest through recycled buffers";
    ASSERT_FALSE(second.jobs.empty());
    EXPECT_EQ(second.jobs[0].status, LaneStatus::Done);
}

TEST(Arena, SteadyStateAllocationBound)
{
    const TriggerWorkload w;
    const auto jobs = w.jobs();
    runtime::Scheduler sched(serial_opts());

    // Cold run: lanes grow their output buffers, the pool fills, the
    // decode cache warms.
    sched.recycle(sched.run(jobs));

    const auto count_run = [&] {
        const std::uint64_t before =
            g_alloc_calls.load(std::memory_order_relaxed);
        auto rep = sched.run(jobs);
        const std::uint64_t after =
            g_alloc_calls.load(std::memory_order_relaxed);
        sched.recycle(std::move(rep));
        return after - before;
    };
    const std::uint64_t run1 = count_run();
    const std::uint64_t run2 = count_run();

    // The steady-state wave loop allocates O(jobs), never O(bytes):
    // with ~1.3 MB of staged input, a per-byte (or even per-KB) copy
    // regime would blow through this bound by orders of magnitude.
    const std::uint64_t bound = 48 * jobs.size() + 512;
    EXPECT_LE(run1, bound) << jobs.size() << " jobs";
    EXPECT_LE(run2, bound) << jobs.size() << " jobs";
    // And recycling keeps it flat run over run (no slow leak of the
    // pool's benefit).
    EXPECT_LE(run2, run1 + run1 / 4);
}

TEST(Arena, CpuLoadAllocatesPerFrame)
{
    // SF 1: 6,000 rows, 96,000 fields, 67 compressed frames.
    const std::string csv = etl::lineitem_csv(1.0);
    const Bytes comp = etl::compress_for_load(csv);
    const std::size_t frames = ceil_div(csv.size(), 12 * 1024);
    etl::Table table("lineitem", etl::lineitem_schema());

    const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
    etl::load_cpu(comp, table);
    const std::uint64_t allocs =
        g_alloc_calls.load(std::memory_order_relaxed) - before;

    // The load streams frame by frame through one reused field-stream
    // buffer: a copy or a string per field would exceed this by far.
    ASSERT_EQ(table.num_rows(), 6000u);
    EXPECT_LE(allocs, 4 * frames + 1000) << frames << " frames";
}

TEST(Arena, OffloadHoldsAWindowNotTheText)
{
    // The offload streams one wave at a time: above the finished table
    // it holds a few waves of text and buffers, not the input's text.
    // Measured as the peak of live heap bytes during the load minus the
    // bytes still live after it (the table, the machine's own buffers).
    Machine m(AddressingMode::Restricted);
    const auto held_above_table = [&](double scale, std::size_t &text) {
        const std::string csv = etl::lineitem_csv(scale);
        text = csv.size();
        const Bytes comp = etl::compress_for_load(csv);
        etl::Table table("lineitem", etl::lineitem_schema());
        g_peak_live_bytes.store(g_live_bytes.load());
        etl::load_udp_offload(m, comp, table, 8);
        EXPECT_EQ(table.num_rows(), std::size_t(scale * etl::kRowsPerScale));
        return double(g_peak_live_bytes.load() - g_live_bytes.load());
    };
    std::size_t text1 = 0, text4 = 0;
    const double sf1 = held_above_table(1.0, text1);
    const double sf4 = held_above_table(4.0, text4);
    // The whole text alone would be 1.0x; before streaming it was 2.14x.
    EXPECT_LT(sf4, 0.5 * double(text4))
        << sf4 / 1e6 << " MB over " << text4 / 1e6 << " MB of text";

    // A wave's worth does not grow with the input.  One term depends on
    // the deserialize helper's timing: the pool's buffers keep their
    // capacity, a job's result takes two of them (its output and its
    // extract), and the slice the helper still holds when the next wave
    // harvests decides which capacities go where and how many the pool
    // allocates.  So either load may pin up to two extract-sized buffers
    // per lane more than the other: twice the bytes one 8-chunk CSV
    // wave's results hold, measured here, on top of the fixed 0.25 MB.
    const double wave = [&] {
        const std::string csv = etl::lineitem_csv(1.0);
        auto jobs = runtime::chunk_jobs(
            kernels::csv_kernel_spec(),
            ArenaSlice::borrow(BytesView(
                reinterpret_cast<const std::uint8_t *>(csv.data()),
                csv.size())),
            12 * 1024, runtime::align_after_delim('\n'));
        jobs.resize(8);
        runtime::SchedulerOptions opts;
        opts.max_jobs_per_wave = 8;
        runtime::Scheduler sched(m, opts);
        const std::int64_t before = g_live_bytes.load();
        const runtime::ScheduleReport rep = sched.run(jobs);
        return double(g_live_bytes.load() - before);
    }();
    EXPECT_LT(wave, 0.25e6);
    EXPECT_LT(std::abs(sf4 - sf1), 0.25e6 + 2 * wave)
        << "SF 1 " << sf1 / 1e6 << " MB, SF 4 " << sf4 / 1e6
        << " MB, one wave " << wave / 1e6 << " MB";
}

} // namespace
} // namespace udp
