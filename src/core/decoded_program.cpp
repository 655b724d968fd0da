/**
 * @file
 * The program fingerprint and the backend switch.
 */
#include "decoded_program.hpp"

#include <atomic>

namespace udp {

namespace {

/// FNV-1a 64-bit over a word stream.
struct Fnv64 {
    std::uint64_t h = 0xCBF29CE484222325ull;
    void mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    }
};

} // namespace

std::uint64_t
program_fingerprint(const Program &prog)
{
    Fnv64 f;
    f.mix(prog.dispatch.size());
    f.mix(prog.actions.size());
    f.mix(prog.states.size());
    f.mix(prog.entry);
    f.mix(prog.initial_symbol_bits);
    f.mix(static_cast<std::uint64_t>(prog.addressing));
    f.mix(prog.init_action_base);
    f.mix(prog.init_action_scale);
    f.mix(prog.init_dispatch_base);
    for (const Word w : prog.dispatch)
        f.mix(w);
    for (const Word w : prog.actions)
        f.mix(w);
    for (const StateMeta &s : prog.states) {
        f.mix(s.base);
        f.mix((std::uint64_t{s.reg_source} << 32) |
              (std::uint64_t{s.aux_count} << 16) | s.max_symbol);
    }
    return f.h;
}

// ---------------------------------------------------------------------------
// Backend switch.
// ---------------------------------------------------------------------------

namespace {

std::atomic<SimBackend> g_backend{SimBackend::Threaded};

} // namespace

std::string_view
sim_backend_name(SimBackend b)
{
    switch (b) {
      case SimBackend::Legacy: return "legacy";
      case SimBackend::Threaded: return "threaded";
    }
    return "<bad>";
}

SimBackend
sim_backend()
{
    return g_backend.load(std::memory_order_relaxed);
}

void
set_sim_backend(SimBackend b)
{
    g_backend.store(b, std::memory_order_relaxed);
}

} // namespace udp
