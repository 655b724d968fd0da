/**
 * @file
 * Threaded-code execution backend: compile once, dispatch flat.
 *
 * A `CompiledProgram` decodes a program's packed words once and lowers
 * them into:
 *
 *  - a flat op stream: every action word becomes a `CompiledOp`, a
 *    function-pointer handler plus pre-extracted operands and a
 *    pre-resolved successor index (chains and Gotoact targets are just
 *    `next` links — no switch, no bounds check in the hot loop;
 *    out-of-range fetches land on a trap sentinel op);
 *  - dense arc tables: every (state, symbol) pair becomes a
 *    `ResolvedArc`, where the labeled slot probe, signature check,
 *    auxiliary miss walk and attach resolution collapse into one entry
 *    holding the exact counter charges and the *compiled index* of the
 *    next state;
 *  - for NFA mode, the decoded dispatch words plus each state's
 *    signature-miss fallback and epsilon list (`CompiledNfaState`).
 *
 * Words that do not decode become sentinels, and an undecodable aux
 * word is recorded where the reference decodes it (a DFA step's
 * `common` scan, an NFA activation), so every fault lands on the
 * reference's cycle with the reference's error.
 *
 * The op handlers are the ISA's only semantic definition: the reference
 * interpreter's action unit (Lane::exec_actions) lowers each word it
 * decodes with the same `ThreadedEngine::lower` and calls the same
 * handler.
 *
 * One compiled image is shared read-only by all 64 lanes and across
 * waves via `shared_compiled()`, a content-fingerprint cache: a lane
 * resolves it at `Lane::load` unless handed one (the runtime's
 * `JobPlan::compiled`).
 *
 * `ThreadedEngine` interprets the compiled image one lane at a time:
 * in DFA mode a resumable step loop (`run_steps_body`), and in NFA mode
 * over the per-state epsilon and miss tables (`run_nfa`).
 *
 * This tier is purely host-performance: simulated counters, outputs,
 * accepts, faults and trap cycles are bit-identical to the reference
 * (pinned by tests/test_threaded.cpp).  It is the default;
 * `set_sim_backend()` (decoded_program.hpp) selects the reference
 * instead, and a lane with a tracer attached always runs the
 * reference.
 */
#pragma once

#include "decoded_program.hpp"
#include "lane.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace udp {

class CompiledProgram;
struct CompiledOp;

/// Per-chain-run scratch the op handlers accumulate into: local copies
/// of the hottest LaneStats counters (flushed to the lane at loop
/// boundaries and before any exception escapes) plus the compiled-image
/// geometry the chain walker needs.
struct ThreadedCtx {
    const CompiledOp *ops = nullptr;
    /// Real action words; ops[nops] is the out-of-range trap op.
    std::uint32_t nops = 0;
    // Local accumulators (order-independent sums; see flush()).
    std::uint64_t cycles = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t dispatch_reads = 0;
    std::uint64_t sig_misses = 0;
    std::uint64_t actions = 0;
    std::uint64_t stream_bits = 0; ///< wrapping (refills subtract)
};

/// Exit disposition of one compiled micro-op.
enum class OpExit : std::uint8_t { Next, Done, Reject };

using OpFn = OpExit (*)(Lane &, ThreadedCtx &, const CompiledOp &);

/// One lowered action word: handler + pre-extracted operands + the
/// pre-resolved successor index (chain fall-through or Gotoact target).
struct CompiledOp {
    OpFn fn = nullptr;
    std::uint32_t next = 0; ///< ops index to continue at when !last
    std::int32_t imm = 0;
    Word imm_w = 0;         ///< imm pre-cast to Word (the common use)
    std::uint8_t dst = 0;
    std::uint8_t ref = 0;
    std::uint8_t src = 0;
    std::uint8_t imm1 = 0;
    std::uint8_t last = 0;  ///< chain terminator (compiled 0 for Gotoact)
    Opcode op = Opcode::Nop; ///< for the disassembler
    Word raw = 0;           ///< source word (fetch-time re-decode on trap)
};

/// One fully resolved (state, symbol) dispatch outcome.
struct ResolvedArc {
    enum Kind : std::uint8_t {
        Reject = 0,  ///< no transition: lane rejects (after charges)
        Take = 1,    ///< follow `target` (running actions if any)
        Invalid = 2, ///< undecodable slot: re-decode `raw_slot` (throws)
    };
    std::uint8_t kind = Reject;
    std::uint8_t miss = 0;      ///< 1 = charge the sig-miss cycle+counter
    std::uint8_t refill_bits = 0; ///< Refill transitions: push-back bits
    std::uint8_t has_act = 0;
    std::uint8_t act_dynamic = 0; ///< resolve attach vs live action base
    std::uint8_t att_ref = 0;     ///< raw attach ref (dynamic resolution)
    /// Dispatch-word reads this arc charges (labeled probe + miss walk;
    /// up to 256, hence not uint8).
    std::uint16_t add_reads = 0;
    std::uint32_t target = 0;     ///< window-relative 12-bit target
    std::uint32_t act = 0;        ///< static ops index (sentinel-clamped)
    std::int32_t next_state = -1; ///< static compiled state ix (-1 unknown)
    std::uint32_t next_full = 0;  ///< init_dispatch_base + target
    std::uint32_t raw_slot = 0;   ///< Invalid: dispatch slot to re-decode
};

/// Per-state compiled metadata for the DFA step loop: a dense arc table
/// over the symbol range plus the precomputed common/miss arcs.
struct CompiledState {
    /// What a step from this state reads first.
    enum Head : std::uint8_t {
        Labeled = 0, ///< the arc table (labeled slot + miss walk)
        Common = 1,  ///< `common_arc`, which replaces the arc table
        /// An undecodable aux word at `common_arc.raw_slot`, before any
        /// signature-matching `common`: the step re-decodes it and
        /// faults before any charge, as the reference's common scan
        /// does.
        Trap = 2,
    };
    std::uint32_t base = 0;     ///< full word address of the state
    std::uint32_t arc_base = 0; ///< arcs()[arc_base + sym], sym<=max_symbol
    std::uint16_t max_symbol = 0;
    std::uint8_t reg_source = 0;
    std::uint8_t head = Labeled;
    ResolvedArc common_arc; ///< Common: the arc; Trap: the bad word
    ResolvedArc miss_arc;   ///< sym > max_symbol (no labeled-slot read)
};

/// The NFA-only metadata of a state, indexed like CompiledProgram::state()
/// (which holds the state's base and symbol range).
struct CompiledNfaState {
    std::uint8_t signature = 0;   ///< expected slot signature
    /// Signature-miss fallback: the first majority/default/common hit of
    /// the chain walk.  `miss_reads` is the exact number of dispatch-word
    /// reads the reference walk charges (including the terminating
    /// word).
    std::uint8_t has_miss = 0;
    std::uint8_t miss_reads = 0;
    Transition miss{};
    /// Epsilon activations in chain order, [eps_begin, eps_end) into
    /// CompiledProgram's epsilon pool: those before `trap_slot`.
    std::uint32_t eps_begin = 0;
    std::uint32_t eps_end = 0;
    /// First undecodable aux word (a dispatch slot), or -1.  Activating
    /// the state runs the epsilons before it, then re-decodes it.
    std::int32_t trap_slot = -1;
};

/**
 * The threaded-code image.  Built once per program; immutable after, so
 * one instance is safely shared read-only across lanes, waves and host
 * threads.
 */
class CompiledProgram
{
  public:
    explicit CompiledProgram(const Program &prog);

    const CompiledOp *ops() const { return ops_.data(); }
    /// Real action words; ops()[op_count()] is the trap sentinel.
    std::uint32_t op_count() const { return nops_; }

    const CompiledState &state(std::size_t ix) const { return states_[ix]; }
    const CompiledNfaState &nfa_state(std::size_t ix) const {
        return nfa_[ix];
    }
    std::size_t num_states() const { return states_.size(); }
    const ResolvedArc *arcs() const { return arcs_.data(); }

    /// Compiled state index for a full dispatch base; -1 when unknown.
    std::int32_t state_index(std::size_t full_base) const {
        return full_base < slot_state_.size() ? slot_state_[full_base] : -1;
    }

    /// The decoded dispatch words (undecodable ones are
    /// kInvalidTransitionType sentinels).
    std::size_t dispatch_words() const { return transitions_.size(); }
    const Transition &transition(std::size_t slot) const {
        return transitions_[slot];
    }
    const Transition *eps_begin(const CompiledNfaState &s) const {
        return epsilons_.data() + s.eps_begin;
    }
    const Transition *eps_end(const CompiledNfaState &s) const {
        return epsilons_.data() + s.eps_end;
    }

    /// True when any action rewrites the dispatch window base (Setbase
    /// with dst != 0): arc next-state links must resolve at run time.
    bool dyn_dispatch() const { return dyn_dispatch_; }
    /// True when any action rewrites the action window (Setab):
    /// scaled-offset attaches must resolve at run time.
    bool dyn_action() const { return dyn_action_; }
    std::uint32_t init_dispatch_base() const { return init_dispatch_base_; }

    /// Content fingerprint of the source program (the cache key).
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    ResolvedArc resolve_take(const Transition &t, std::uint8_t miss,
                             std::uint16_t add_reads) const;

    std::vector<CompiledOp> ops_;
    std::vector<CompiledState> states_;
    std::vector<CompiledNfaState> nfa_;
    std::vector<ResolvedArc> arcs_;
    std::vector<std::int32_t> slot_state_; ///< base -> index into states_
    std::vector<Transition> transitions_;  ///< one per dispatch word
    std::vector<Transition> epsilons_;     ///< flattened per-state lists
    std::uint64_t fingerprint_ = 0;
    std::uint32_t nops_ = 0;
    std::uint32_t init_dispatch_base_ = 0;
    std::uint32_t init_action_base_ = 0;
    unsigned init_action_scale_ = 0;
    bool dyn_dispatch_ = false;
    bool dyn_action_ = false;
};

/**
 * Process-wide compiled-image cache: the shared CompiledProgram for
 * `prog`, built on first use.  Keyed by content fingerprint, so 64 lanes
 * loading the same program (or a copy of it) share one image, and a
 * mutated program gets a fresh one.  Thread-safe.
 */
std::shared_ptr<const CompiledProgram> shared_compiled(const Program &prog);

/// Human-readable listing of the flat micro-op stream and arc tables —
/// `--dump-compiled` renders this next to `disassemble_state` output
/// when backends diverge.
std::string disassemble_compiled(const CompiledProgram &cp);

/**
 * The threaded-code interpreter.  A friend of Lane: it *is* the
 * lane's inner loop whenever Lane::fast_path() holds, entered
 * from Lane::run_steps (and so Lane::run and Lane::step_once) or
 * Lane::run_nfa.
 */
class ThreadedEngine
{
  public:
    /// Up to `n` dispatch steps over the compiled image, resuming at the
    /// lane's current state; local counters are flushed to the lane's
    /// stats before returning or rethrowing.  Call inside
    /// Lane::run_guarded.
    static LaneStatus run_steps_body(Lane &ln, std::uint64_t n);

    /// NFA mode (Lane::run_nfa) over the per-state epsilon and miss
    /// tables, arc actions running on the op stream.  Call inside
    /// Lane::run_guarded.
    static LaneStatus run_nfa(Lane &ln, std::uint64_t max_cycles);

    /// Lower the action word `raw` (decoded as `a`) at address `addr` of
    /// an `nops`-word action image into its op: handler, operands and
    /// successor link (Gotoact targets past the image point at `nops`).
    /// CompiledProgram's constructor and the reference action unit
    /// (Lane::exec_actions) both lower through here, so each opcode's
    /// semantics are written once, in its handler.
    static CompiledOp lower(const Action &a, Word raw, std::uint32_t addr,
                            std::uint32_t nops);
    /// The out-of-range fetch trap op that terminates a compiled stream.
    static CompiledOp trap_sentinel(std::uint32_t nops);

    /// Fold the context's local counters into the lane's stats and zero
    /// them.
    static void flush(Lane &ln, ThreadedCtx &c);

    /// The LUT entry address an Emitlut op reads (the reference action
    /// unit's tracer hook reports it after the op ran).
    static Word emitlut_entry(const Lane &ln, const CompiledOp &o);

  private:
    struct Ops; // the op handler table (threaded_program.cpp)

    /// Run the action chain at ops index `ix`, charging its fetches
    /// once at the chain's end (or before an exception escapes).
    static LaneStatus exec_chain(Lane &ln, ThreadedCtx &c,
                                 std::uint32_t ix);
};

} // namespace udp
