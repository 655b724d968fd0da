/**
 * @file
 * DecodedProgram construction and the backend switch.
 */
#include "decoded_program.hpp"

#include <atomic>
#include <cstdlib>

namespace udp {

namespace {

/// Non-throwing decode: reserved transition kind 7 becomes the invalid
/// sentinel instead of an exception, because the decode pass visits
/// every word — including garbage the interpreter would never fetch.
Transition
decode_transition_lenient(Word raw)
{
    const Word kind = bits(raw, 8, 4) & 0x7;
    if (kind >= kNumTransitionTypes) {
        Transition t;
        t.type = kInvalidTransitionType;
        return t;
    }
    return decode_transition(raw);
}

/// Non-throwing action decode (undefined opcode -> sentinel).
Action
decode_action_lenient(Word raw)
{
    if (!opcode_valid(bits(raw, 25, 7))) {
        Action a;
        a.op = kInvalidOpcode;
        return a;
    }
    return decode_action(raw);
}

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

DecodedProgram::DecodedProgram(const Program &prog)
{
    fingerprint_ = program_fingerprint(prog);

    transitions_.reserve(prog.dispatch.size());
    for (const Word w : prog.dispatch)
        transitions_.push_back(decode_transition_lenient(w));

    actions_.reserve(prog.actions.size());
    for (const Word w : prog.actions)
        actions_.push_back(decode_action_lenient(w));

    slot_state_.assign(prog.dispatch.size(), -1);
    states_.reserve(prog.states.size());
    for (const StateMeta &s : prog.states) {
        if (s.base >= prog.dispatch.size())
            throw UdpError("DecodedProgram: state base outside image");
        if (slot_state_[s.base] != -1)
            throw UdpError("DecodedProgram: duplicate state base");

        DecodedState d;
        d.base = s.base;
        d.max_symbol = s.max_symbol;
        d.signature = state_signature(s.base);
        d.reg_source = s.reg_source;

        // An undecodable aux word can only occur in a program that never
        // passed Program::validate(); treat it as a signature mismatch
        // (chain terminator) rather than failing the whole build.
        const unsigned aux =
            static_cast<unsigned>(std::min<std::uint32_t>(
                s.aux_count, s.base));
        auto chain_word = [&](unsigned k) -> const Transition & {
            return transitions_[s.base - k];
        };

        // `common` scan: first signature-matching common transition; the
        // per-step scan does not stop at signature mismatches.
        for (unsigned k = 1; k <= aux && !d.has_common; ++k) {
            const Transition &t = chain_word(k);
            if (t.type == TransitionType::Common &&
                t.signature == d.signature) {
                d.common = t;
                d.has_common = true;
            }
        }

        // DFA miss walk: charge one dispatch read per word examined,
        // stop at the first signature mismatch or majority/default hit.
        for (unsigned k = 1; k <= aux; ++k) {
            const Transition &t = chain_word(k);
            ++d.miss_reads;
            if (t.type == kInvalidTransitionType ||
                t.signature != d.signature)
                break;
            if (t.type == TransitionType::Majority ||
                t.type == TransitionType::Default) {
                d.miss = t;
                d.has_miss = true;
                break;
            }
        }

        // NFA miss walk: same, but `common` is also an accepted fallback.
        for (unsigned k = 1; k <= aux; ++k) {
            const Transition &t = chain_word(k);
            ++d.miss_nfa_reads;
            if (t.type == kInvalidTransitionType ||
                t.signature != d.signature)
                break;
            if (t.type == TransitionType::Majority ||
                t.type == TransitionType::Default ||
                t.type == TransitionType::Common) {
                d.miss_nfa = t;
                d.has_miss_nfa = true;
                break;
            }
        }

        // Epsilon activations, in chain (priority) order.
        d.eps_begin = static_cast<std::uint32_t>(epsilons_.size());
        for (unsigned k = 1; k <= aux; ++k) {
            const Transition &t = chain_word(k);
            if (t.type == TransitionType::Epsilon &&
                t.signature == d.signature)
                epsilons_.push_back(t);
        }
        d.eps_end = static_cast<std::uint32_t>(epsilons_.size());

        slot_state_[s.base] =
            static_cast<std::int32_t>(states_.size());
        states_.push_back(d);
    }
}

// ---------------------------------------------------------------------------
// Backend switch.
// ---------------------------------------------------------------------------

namespace {

// 0 = unresolved (consult the environment), else 1 + SimBackend value.
std::atomic<int> g_backend{0};

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
    int v = g_backend.load(std::memory_order_relaxed);
    if (v == 0) {
        SimBackend b = SimBackend::Threaded;
        if (const char *env = std::getenv("UDP_SIM_BACKEND");
            env && std::string_view(env) == "legacy")
            b = SimBackend::Legacy;
        v = 1 + static_cast<int>(b);
        g_backend.store(v, std::memory_order_relaxed);
    }
    return static_cast<SimBackend>(v - 1);
}

void
set_sim_backend(SimBackend b)
{
    g_backend.store(1 + static_cast<int>(b), std::memory_order_relaxed);
}

} // namespace udp
