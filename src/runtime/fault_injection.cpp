/**
 * @file
 * Deterministic fault injector implementation.
 */
#include "fault_injection.hpp"

#include "core/decoded_program.hpp"
#include "core/threaded_program.hpp"

namespace udp::runtime {

namespace {

/// Reserved transition type 7 in the low type field: decodes to the
/// invalid-dispatch sentinel, so fetching it faults with BadDispatch.
constexpr Word kPoisonDispatchWord = Word{7u} << 8;

/// Undefined opcode 0x7F in the opcode field: fetching it faults with
/// BadAction on both interpreter paths.
constexpr Word kPoisonActionWord = Word{0x7Fu} << 25;

} // namespace

std::uint64_t
FaultInjector::next()
{
    // splitmix64: tiny, seedable, and identical on every platform.
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
FaultInjector::next_below(std::uint64_t bound)
{
    if (bound == 0)
        throw UdpError("FaultInjector: next_below bound must be > 0");
    return next() % bound;
}

std::shared_ptr<Program>
FaultInjector::own_program(JobPlan &plan)
{
    if (!plan.program)
        throw UdpError("FaultInjector: job '" + plan.name +
                       "' has no program to corrupt");
    auto owned = std::make_shared<Program>(*plan.program);
    plan.program = owned;
    return owned;
}

void
FaultInjector::refresh_compiled(JobPlan &plan)
{
    // The shared image is keyed by program content; after a mutation
    // the plan must not keep running the stale (clean) one.
    plan.compiled = sim_backend() == SimBackend::Threaded
                        ? shared_compiled(*plan.program)
                        : nullptr;
}

void
FaultInjector::poison_program(JobPlan &plan)
{
    auto owned = own_program(plan);
    for (Word &w : owned->dispatch)
        w = kPoisonDispatchWord;
    refresh_compiled(plan);
}

void
FaultInjector::poison_dispatch_word(JobPlan &plan, std::size_t slot)
{
    auto owned = own_program(plan);
    if (slot >= owned->dispatch.size())
        throw UdpError("FaultInjector: dispatch slot out of range");
    owned->dispatch[slot] = kPoisonDispatchWord;
    refresh_compiled(plan);
}

void
FaultInjector::poison_action_word(JobPlan &plan, std::size_t addr)
{
    auto owned = own_program(plan);
    if (addr >= owned->actions.size())
        throw UdpError("FaultInjector: action address out of range");
    owned->actions[addr] = kPoisonActionWord;
    refresh_compiled(plan);
}

std::size_t
FaultInjector::flip_program_bit(JobPlan &plan)
{
    auto owned = own_program(plan);
    if (owned->dispatch.empty())
        throw UdpError("FaultInjector: program has no dispatch words");
    const std::size_t slot = next_below(owned->dispatch.size());
    const unsigned bit = static_cast<unsigned>(next_below(32));
    owned->dispatch[slot] ^= Word{1u} << bit;
    refresh_compiled(plan);
    return slot;
}

void
FaultInjector::corrupt_input(JobPlan &plan, unsigned count)
{
    if (plan.input.empty())
        throw UdpError("FaultInjector: job '" + plan.name +
                       "' has no input to corrupt");
    // Copy-on-write: arenas are immutable and shared by sibling chunks,
    // so the poisoned job materializes a private mutated arena and
    // re-pins; every other slice of the original stays byte-identical.
    Bytes mutated(plan.input.begin(), plan.input.end());
    for (unsigned i = 0; i < count; ++i) {
        const std::size_t at = next_below(mutated.size());
        // Non-zero mask so every pick really changes the byte.
        const auto mask =
            static_cast<std::uint8_t>(1 + next_below(255));
        mutated[at] = static_cast<std::uint8_t>(mutated[at] ^ mask);
    }
    plan.input = ArenaSlice::take(std::move(mutated));
}

void
FaultInjector::truncate_input(JobPlan &plan, std::size_t keep_bytes)
{
    // Truncation needs no copy at all: a shorter view of the same
    // arena, same pin.
    if (keep_bytes < plan.input.size())
        plan.input = plan.input.subslice(0, keep_bytes);
}

void
FaultInjector::force_trap(JobPlan &plan, Cycles at, unsigned attempts)
{
    plan.force_trap_cycle = at;
    plan.trap_attempts = attempts;
}

} // namespace udp::runtime
