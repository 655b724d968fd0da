/**
 * @file
 * Deterministic fault injection for the wave runtime
 * (docs/ROBUSTNESS.md).
 *
 * The containment machinery (LaneFault, Scheduler retry/quarantine)
 * must itself be testable, so `FaultInjector` corrupts JobPlans in
 * reproducible ways: every mutation is driven by a seeded splitmix64
 * stream, so the same seed over the same plans produces the same
 * faults — in tests, in bench_faults, under any thread count.
 *
 * Program mutations copy-on-write: the plan gets its own mutated
 * `Program` (and a freshly resolved compiled image, keyed by the new
 * content fingerprint), so other plans sharing the original program are
 * untouched — which is exactly what the containment proof measures.
 *
 * Input mutations follow the same discipline against the arena model
 * (runtime/arena.hpp): arenas are immutable and shared by sibling
 * chunks, so `corrupt_input` materializes a *private* mutated arena for
 * the poisoned job only, and `truncate_input` just narrows the view
 * (same arena, no copy).  Sibling slices stay byte-identical — pinned
 * by Arena.FaultInjectorCopyOnWrite.
 */
#pragma once

#include "runtime/job.hpp"

namespace udp::runtime {

class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed) : state_(seed) {}

    /// Next raw 64-bit value of the deterministic stream (splitmix64).
    std::uint64_t next();

    /// Uniform value in [0, bound); bound must be > 0.
    std::uint64_t next_below(std::uint64_t bound);

    /**
     * Overwrite every dispatch word with a reserved-transition-type
     * encoding: the compiled image still builds (sentinel words), and
     * the first dispatch that decodes a word faults with
     * FaultCode::BadDispatch on both interpreters — at cycle 0 when the
     * entry state has an aux chain, which the reference decodes before
     * fetching a symbol.  The guaranteed-fault probe.
     */
    void poison_program(JobPlan &plan);

    /// Overwrite one dispatch word (reserved type → BadDispatch if the
    /// slot is ever fetched).
    void poison_dispatch_word(JobPlan &plan, std::size_t slot);

    /// Overwrite one action word with an undefined opcode (BadAction if
    /// the word is ever fetched).
    void poison_action_word(JobPlan &plan, std::size_t addr);

    /**
     * Flip one seeded-random bit of the dispatch image (a soft-error
     * model).  May or may not fault — the containment contract is that
     * the wave always survives either way.  Returns the flipped word's
     * index.
     */
    std::size_t flip_program_bit(JobPlan &plan);

    /// XOR `count` seeded-random input bytes with seeded-random masks.
    void corrupt_input(JobPlan &plan, unsigned count = 1);

    /// Truncate the input window to its first `keep_bytes` bytes.
    void truncate_input(JobPlan &plan, std::size_t keep_bytes);

    /**
     * Arm a forced trap (FaultCode::ForcedTrap) at simulated cycle `at`
     * for the job's first `attempts` scheduler attempts.  With
     * `attempts` below the RetryPolicy's max_attempts this models a
     * *transient* fault: the retry runs clean.
     */
    void force_trap(JobPlan &plan, Cycles at, unsigned attempts = ~0u);

  private:
    /// Copy-on-write: give `plan` its own Program and re-resolve the
    /// compiled image after mutation.
    std::shared_ptr<Program> own_program(JobPlan &plan);
    void refresh_compiled(JobPlan &plan);

    std::uint64_t state_;
};

} // namespace udp::runtime
