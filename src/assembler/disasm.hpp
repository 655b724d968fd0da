/**
 * @file
 * Program disassembler: human-readable listings of dispatch and action
 * memory, used by tests, the quickstart example and debugging.
 */
#pragma once

#include "core/program.hpp"
#include "core/trace.hpp"

#include <string>

namespace udp {

/// One-line rendering of a decoded transition.
std::string format_transition(const Transition &t);

/// One-line rendering of a decoded action.
std::string format_action(const Action &a);

/// Label for the state whose labeled table starts at `base`, exactly as
/// it appears in disassemble() listings (e.g. "state @0x1f3" with an
/// " [r0-dispatch]" suffix for register-sourced states).
std::string state_label(const Program &prog, std::uint32_t base);

/// Symbolizer for Profile::report(): resolves dispatch bases to the
/// same labels disassemble() prints.  Snapshots the state table, so the
/// returned callable does not reference `prog` afterwards.
StateSymbolizer make_state_symbolizer(const Program &prog);

/// Full program listing (states, their slots and action blocks).
std::string disassemble(const Program &prog);

/**
 * Listing of the single state whose labeled table starts at `base`,
 * for post-mortem fault reports (runtime/postmortem.hpp).
 *
 * Unlike `disassemble`, this never throws: post-mortems disassemble the
 * program a lane *faulted in*, which may hold poisoned words that the
 * decoder rejects.  Undecodable slots render as `<decode error: ...>`
 * lines instead.  A `base` matching no state (e.g. a corrupted dispatch
 * target) renders a raw hex window of the surrounding dispatch words.
 */
std::string disassemble_state(const Program &prog, std::uint32_t base);

} // namespace udp
