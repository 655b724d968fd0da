/**
 * @file
 * The interpreter switch (`SimBackend`), the program fingerprint and the
 * two invalid-word sentinels.  No decoded image lives here:
 * `CompiledProgram` (threaded_program.hpp) decodes a program's words
 * itself.  The header keeps its name because the perf ledger
 * (perfledger/ledger.cpp) includes it for the interpreter switch.
 */
#pragma once

#include "isa.hpp"
#include "program.hpp"

#include <string_view>

namespace udp {

/// Sentinel stored for a dispatch word that does not decode (reserved
/// transition kind 7).  The reference throws only if such a word is
/// actually decoded; the threaded engine re-decodes the raw word at that
/// point to raise the identical error.
inline constexpr TransitionType kInvalidTransitionType =
    static_cast<TransitionType>(7);

/// Sentinel opcode for an action word that does not decode (undefined
/// opcode).  Same error contract as kInvalidTransitionType.
inline constexpr Opcode kInvalidOpcode = static_cast<Opcode>(0x7F);

/// 64-bit content fingerprint of a program (images, directory, init
/// configuration) — the identity key of the shared compiled-image cache.
std::uint64_t program_fingerprint(const Program &prog);

/**
 * Host interpreter (docs/PERFORMANCE.md, "Two interpreters, one
 * ISA").  Both produce bit-identical simulated results; they differ
 * only in host speed:
 *  - Legacy: the decode-per-step reference interpreter;
 *  - Threaded: the flat threaded-code op stream and arc tables
 *    (core/threaded_program.hpp) for DFA mode.
 * NFA mode (Lane::run_nfa), and a lane with a tracer attached, run the
 * reference under either setting; a bare NFA lane under Threaded still
 * binds the compiled image, so its arc actions take the inline memory
 * path.
 */
enum class SimBackend : std::uint8_t {
    Legacy = 0,
    Threaded = 1,
};

/// Stable lower-case backend name ("legacy", "threaded").
std::string_view sim_backend_name(SimBackend b);

/// The active backend (Threaded unless set_sim_backend chose another).
SimBackend sim_backend();

/// Process-wide backend choice (benches and the equivalence tests
/// toggle this around whole runs).
void set_sim_backend(SimBackend b);

} // namespace udp
