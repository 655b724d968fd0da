/**
 * @file
 * Host data-path ownership model: input arenas, pinned slices, and the
 * reusable output buffer pool (docs/PERFORMANCE.md, "Host data path &
 * ownership").
 *
 * Before this layer, every JobPlan owned its input bytes: chunking a
 * stream copied each chunk out of the source buffer, a retried job
 * re-carried its owned payload, and every harvested JobResult
 * heap-allocated fresh output/extract buffers.  At wave rates those
 * host-side copies — not the simulation — start to dominate.  The model
 * here makes the steady-state wave loop's allocation count O(jobs)
 * instead of O(bytes):
 *
 *  - `InputArena` — an immutable, ref-counted byte region.  Created
 *    once per source stream (`take` moves a buffer in, `copy` copies a
 *    view once, `borrow` wraps caller-guaranteed storage), then sliced
 *    arbitrarily many times without touching the bytes.
 *  - `ArenaSlice` — a non-owning `BytesView` plus the `shared_ptr`
 *    lifetime pin that keeps its arena alive.  This is what a JobPlan
 *    carries: chunking is slicing, retrying re-pins the same arena, and
 *    copying a plan copies a pointer, never the payload.
 *  - `BufferPool` — recycles output/extract `Bytes` across waves: a
 *    harvested buffer returned via `release` is handed out again by
 *    `acquire` (cleared, capacity intact), so a steady-state serving
 *    loop stops allocating per attempt.
 *
 * Lifetime enforcement: each arena carries a generation-keyed canary
 * word.  `ArenaSlice::check_pinned` verifies — whenever a plan is
 * staged (`stage_regions`, shared by `stage_job` and the Scheduler) and
 * on every `harvest_job` — that a non-empty view is still pinned by a
 * live arena that contains it, turning "plan must outlive the run" from
 * a comment into a checked invariant (tests/test_arena.cpp).
 */
#pragma once

#include "core/types.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

namespace udp::runtime {

/// Immutable ref-counted input bytes; create via take/copy/borrow.
class InputArena
{
    struct Private {};

  public:
    InputArena(Private, Bytes owned, BytesView borrowed);
    ~InputArena();
    InputArena(const InputArena &) = delete;
    InputArena &operator=(const InputArena &) = delete;

    /// Adopt `bytes` (no copy; the arena owns them from here on).
    static std::shared_ptr<const InputArena> take(Bytes &&bytes);

    /// Copy `bytes` once into a new arena.
    static std::shared_ptr<const InputArena> copy(BytesView bytes);

    /**
     * Wrap caller-owned storage without copying.  The caller guarantees
     * the storage outlives every slice of this arena — the same
     * contract (and idiom) as `borrow_program`.  Use for single-call
     * harnesses where the input demonstrably outlives the run.
     */
    static std::shared_ptr<const InputArena> borrow(BytesView bytes);

    BytesView view() const { return view_; }
    std::size_t size() const { return view_.size(); }

    /// Monotone creation stamp (process-global); canary key.
    std::uint64_t generation() const { return generation_; }

    /// True while the canary matches — i.e. the arena has not been
    /// destroyed (best-effort use-after-free tripwire).
    bool alive() const { return canary_ == expected_canary(generation_); }

    /// Arenas currently alive in the process (tests).
    static std::size_t live_count();

  private:
    static std::uint64_t expected_canary(std::uint64_t gen);

    Bytes owned_;            ///< empty for borrowed arenas
    BytesView view_;         ///< the arena's full extent
    std::uint64_t generation_;
    std::uint64_t canary_;
};

/// A non-owning view of job input bytes pinned by its arena.
class ArenaSlice
{
  public:
    ArenaSlice() = default;

    /// Materialize a private single-use arena from owned bytes.  This
    /// is the compatibility path for call sites that hand over a
    /// `Bytes` they built for one job: one move (or one copy from an
    /// lvalue), exactly what the old owned-input JobPlan cost.
    ArenaSlice(Bytes owned);

    /// The whole arena.
    explicit ArenaSlice(std::shared_ptr<const InputArena> arena);

    /// A sub-range of `arena` ([offset, offset+len) must be in range).
    ArenaSlice(std::shared_ptr<const InputArena> arena, std::size_t offset,
               std::size_t len);

    /// One-copy wrap of a view whose ownership stays with the caller.
    static ArenaSlice copy_of(BytesView bytes);

    /// Adopt owned bytes (no copy).
    static ArenaSlice take(Bytes &&bytes);

    /// Zero-copy wrap of caller-guaranteed storage (InputArena::borrow).
    static ArenaSlice borrow(BytesView bytes);

    BytesView view() const { return view_; }
    operator BytesView() const { return view_; }

    const std::uint8_t *data() const { return view_.data(); }
    std::size_t size() const { return view_.size(); }
    bool empty() const { return view_.empty(); }
    auto begin() const { return view_.begin(); }
    auto end() const { return view_.end(); }
    std::uint8_t operator[](std::size_t i) const { return view_[i]; }

    /// A narrower view of the same arena — same pin, no bytes touched.
    ArenaSlice subslice(std::size_t offset, std::size_t len) const;

    /// The lifetime token (null only for a default-constructed slice).
    const std::shared_ptr<const InputArena> &arena() const { return arena_; }

    /// True when the view is empty or backed by a live arena that
    /// contains it.
    bool pinned() const;

    /// Throw UdpError naming `who`, `job` and which of the job's slices
    /// this is (`slice`: "input", "stage") unless pinned() — the
    /// enforced form of the old "plan must outlive the run" comment.
    /// Cost: a couple of compares per job, never per byte.
    void check_pinned(const char *who, const std::string &job,
                      const char *slice) const;

    /// Byte-wise content equality (slices of different arenas compare
    /// equal when their bytes match).
    friend bool operator==(const ArenaSlice &a, const ArenaSlice &b) {
        return a.view_.size() == b.view_.size() &&
               std::equal(a.view_.begin(), a.view_.end(), b.view_.begin());
    }

  private:
    std::shared_ptr<const InputArena> arena_;
    BytesView view_;
};

/// Recycles output/extract buffers across waves (thread-safe).
class BufferPool
{
  public:
    /// `max_buffers` caps the free list so a burst can't hold memory
    /// forever; excess releases drop their buffer.
    explicit BufferPool(std::size_t max_buffers = 1024)
        : max_buffers_(max_buffers) {}

    /// A cleared buffer — recycled (capacity intact) when the free list
    /// has one, freshly constructed otherwise.
    Bytes acquire();

    /// Return a buffer to the pool for reuse.
    void release(Bytes &&b);

    struct Stats {
        std::uint64_t acquired = 0; ///< total acquire() calls
        std::uint64_t reused = 0;   ///< acquires served from the free list
        std::uint64_t released = 0; ///< buffers returned
        std::uint64_t dropped = 0;  ///< releases past the cap
    };
    Stats stats() const;

    std::size_t free_buffers() const;

  private:
    mutable std::mutex mu_;
    std::vector<Bytes> free_;
    std::size_t max_buffers_;
    Stats stats_;
};

} // namespace udp::runtime
