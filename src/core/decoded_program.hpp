/**
 * @file
 * Decoded program images: the lowering IR of the threaded-code tier.
 *
 * A `DecodedProgram` expands a `Program`'s packed words once:
 *
 *  - every dispatch word as a decoded `Transition`;
 *  - every action word as a decoded `Action`;
 *  - per state: the signature, the auxiliary-chain walk results the
 *    reference interpreter recomputes per step (the `common` override,
 *    the DFA and NFA signature-miss fallbacks with their exact
 *    dispatch-read charge, and the epsilon activation list);
 *  - a dense slot→state table replacing `Program::find_state`.
 *
 * `CompiledProgram` (threaded_program.hpp) owns one and lowers it into
 * its op stream and arc tables; `ThreadedEngine::run_nfa` runs NFA mode
 * directly on its per-state eps/miss-nfa tables.  Decoding is lenient:
 * words that do not decode become sentinels that fault only when
 * fetched, exactly when the reference would.
 *
 * This header also holds the process-wide interpreter switch
 * (`SimBackend`).
 */
#pragma once

#include "isa.hpp"
#include "program.hpp"

#include <memory>
#include <string_view>
#include <vector>

namespace udp {

/// Sentinel stored for a dispatch word that does not decode (reserved
/// transition kind 7).  The reference throws only if such a word is
/// actually fetched; the threaded engine re-decodes the raw word on
/// fetch to raise the identical error.
inline constexpr TransitionType kInvalidTransitionType =
    static_cast<TransitionType>(7);

/// Sentinel opcode for an action word that does not decode (undefined
/// opcode).  Same fetch-time error contract as kInvalidTransitionType.
inline constexpr Opcode kInvalidOpcode = static_cast<Opcode>(0x7F);

/**
 * Per-state decoded metadata: everything `Lane::step` derives from
 * StateMeta plus per-step auxiliary-chain scans.
 */
struct DecodedState {
    std::uint32_t base = 0;         ///< full word address of the state
    std::uint16_t max_symbol = 255; ///< largest labeled slot offset
    std::uint8_t signature = 0;     ///< expected slot signature
    bool reg_source = false;        ///< dispatch symbol comes from r0

    /// First signature-matching `common` transition in the aux chain
    /// (replaces the whole labeled table when present).
    bool has_common = false;
    Transition common{};

    /// DFA signature-miss fallback: first majority/default hit of the
    /// chain walk.  `miss_reads` is the exact number of dispatch-word
    /// reads the reference walk charges (including the terminating
    /// word).
    bool has_miss = false;
    std::uint8_t miss_reads = 0;
    Transition miss{};

    /// NFA-mode fallback walk (also accepts `common`).
    bool has_miss_nfa = false;
    std::uint8_t miss_nfa_reads = 0;
    Transition miss_nfa{};

    /// Epsilon activations, chain order: [eps_begin, eps_end) into
    /// DecodedProgram's flattened epsilon pool.
    std::uint32_t eps_begin = 0;
    std::uint32_t eps_end = 0;
};

/**
 * The decoded image.  Built once per program; immutable after.
 */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const Program &prog);

    std::size_t dispatch_words() const { return transitions_.size(); }
    std::size_t action_words() const { return actions_.size(); }

    const Transition &transition(std::size_t slot) const {
        return transitions_[slot];
    }
    const Action &action(std::size_t addr) const { return actions_[addr]; }

    /// Dense replacement for Program::find_state; nullptr when `base`
    /// is not a state.
    const DecodedState *state_at(std::size_t base) const {
        if (base >= slot_state_.size())
            return nullptr;
        const std::int32_t ix = slot_state_[base];
        return ix < 0 ? nullptr : &states_[static_cast<std::size_t>(ix)];
    }

    const Transition *eps_begin(const DecodedState &s) const {
        return epsilons_.data() + s.eps_begin;
    }
    const Transition *eps_end(const DecodedState &s) const {
        return epsilons_.data() + s.eps_end;
    }

    /// Content fingerprint of the source program (the cache key).
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    std::vector<Transition> transitions_; ///< one per dispatch word
    std::vector<Action> actions_;         ///< one per action word
    std::vector<DecodedState> states_;
    std::vector<std::int32_t> slot_state_; ///< base -> index into states_
    std::vector<Transition> epsilons_;     ///< flattened per-state chains
    std::uint64_t fingerprint_ = 0;
};

/// 64-bit content fingerprint of a program (images, directory, init
/// configuration) — the identity key of the shared compiled-image cache.
std::uint64_t program_fingerprint(const Program &prog);

/**
 * Host interpreter (docs/PERFORMANCE.md, "Two interpreters, one
 * ISA").  Both produce bit-identical simulated results; they differ
 * only in host speed:
 *  - Legacy: the decode-per-step reference interpreter;
 *  - Threaded: the flat threaded-code op stream and arc tables
 *    (core/threaded_program.hpp).
 * A lane with a tracer or profiler attached runs the reference under
 * either setting.
 */
enum class SimBackend : std::uint8_t {
    Legacy = 0,
    Threaded = 1,
};

/// Stable lower-case backend name ("legacy", "threaded").
std::string_view sim_backend_name(SimBackend b);

/// The active backend.  Defaults to Threaded; the UDP_SIM_BACKEND
/// environment variable (legacy|threaded) overrides the default (read
/// once, on first query; other values keep the default).
SimBackend sim_backend();

/// Process-wide override of the environment default (benches and the
/// equivalence tests toggle this around whole runs).
void set_sim_backend(SimBackend b);

} // namespace udp
