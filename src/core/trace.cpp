/**
 * @file
 * Tracer and Profile implementation.
 */
#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace udp {

std::string_view
trace_event_kind_name(TraceEventKind k)
{
    switch (k) {
      case TraceEventKind::Dispatch: return "dispatch";
      case TraceEventKind::SigMiss: return "sig_miss";
      case TraceEventKind::Action: return "action";
      case TraceEventKind::MemRead: return "mem_read";
      case TraceEventKind::MemWrite: return "mem_write";
      case TraceEventKind::Stall: return "stall";
      case TraceEventKind::Accept: return "accept";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Profile.
// ---------------------------------------------------------------------------

Cycles
Profile::total_state_cycles() const
{
    Cycles total = 0;
    for (const auto &[base, p] : states_)
        total += p.cycles;
    return total;
}

std::vector<std::pair<std::uint32_t, StateProfile>>
Profile::hot_states(std::size_t top_n) const
{
    std::vector<std::pair<std::uint32_t, StateProfile>> out(
        states_.begin(), states_.end());
    std::sort(out.begin(), out.end(), [](const auto &x, const auto &y) {
        if (x.second.cycles != y.second.cycles)
            return x.second.cycles > y.second.cycles;
        return x.first < y.first; // deterministic order among ties
    });
    if (out.size() > top_n)
        out.resize(top_n);
    return out;
}

std::vector<std::pair<Opcode, ActionProfile>>
Profile::hot_actions(std::size_t top_n) const
{
    std::vector<std::pair<Opcode, ActionProfile>> out(actions_.begin(),
                                                      actions_.end());
    std::sort(out.begin(), out.end(), [](const auto &x, const auto &y) {
        if (x.second.cycles != y.second.cycles)
            return x.second.cycles > y.second.cycles;
        return x.first < y.first;
    });
    if (out.size() > top_n)
        out.resize(top_n);
    return out;
}

std::string
Profile::report(std::size_t top_n, const StateSymbolizer &sym) const
{
    std::ostringstream os;
    const double total = double(std::max<Cycles>(total_state_cycles(), 1));

    os << "hot states (top " << top_n << " of " << states_.size() << "):\n";
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-32s %12s %6s %12s %9s %12s\n",
                  "state", "cycles", "cyc%", "visits", "miss%",
                  "stall cyc");
    os << buf;
    for (const auto &[base, p] : hot_states(top_n)) {
        std::string name;
        if (sym)
            name = sym(base);
        if (name.empty()) {
            std::snprintf(buf, sizeof(buf), "state @0x%x", base);
            name = buf;
        }
        std::snprintf(buf, sizeof(buf),
                      "  %-32s %12llu %5.1f%% %12llu %8.2f%% %12llu\n",
                      name.c_str(),
                      static_cast<unsigned long long>(p.cycles),
                      100.0 * double(p.cycles) / total,
                      static_cast<unsigned long long>(p.visits),
                      100.0 * p.sig_miss_rate(),
                      static_cast<unsigned long long>(p.stall_cycles));
        os << buf;
    }

    os << "hot actions (top " << top_n << " of " << actions_.size()
       << "):\n";
    std::snprintf(buf, sizeof(buf), "  %-32s %12s %12s\n", "opcode",
                  "cycles", "count");
    os << buf;
    for (const auto &[op, p] : hot_actions(top_n)) {
        std::snprintf(buf, sizeof(buf), "  %-32s %12llu %12llu\n",
                      std::string(opcode_name(op)).c_str(),
                      static_cast<unsigned long long>(p.cycles),
                      static_cast<unsigned long long>(p.count));
        os << buf;
    }
    return os.str();
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

Tracer::Tracer(std::size_t ring_capacity) : capacity_(ring_capacity)
{
    if (capacity_ == 0)
        throw UdpError("Tracer: ring capacity must be positive");
}

void
Tracer::record(unsigned lane, TraceEventKind kind, Cycles cycle,
               std::uint32_t a, std::uint32_t b)
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    LaneRing &r = rings_[lane];
    TraceEvent ev;
    ev.cycle = cycle;
    ev.a = a;
    ev.b = b;
    ev.kind = kind;
    ev.lane = static_cast<std::uint8_t>(lane);
    if (r.buf.size() < capacity_) {
        r.buf.push_back(ev);
    } else {
        r.buf[r.next] = ev;
        if (++r.next == capacity_)
            r.next = 0;
    }
    ++r.total;
    ++r.by_kind[static_cast<unsigned>(kind)];
}

void
Tracer::record_state(unsigned lane, std::uint32_t base, Cycles cycles,
                     std::uint64_t sig_misses, std::uint64_t stall_cycles)
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    StateProfile &p = rings_[lane].states[base];
    ++p.visits;
    p.cycles += cycles;
    p.sig_misses += sig_misses;
    p.stall_cycles += stall_cycles;
}

void
Tracer::record_action(unsigned lane, Opcode op, Cycles cycles)
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    std::vector<ActionProfile> &actions = rings_[lane].actions;
    const auto i = static_cast<std::size_t>(op);
    if (i >= actions.size())
        actions.resize(i + 1);
    ++actions[i].count;
    actions[i].cycles += cycles;
}

std::vector<TraceEvent>
Tracer::events(unsigned lane) const
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    const LaneRing &r = rings_[lane];
    std::vector<TraceEvent> out;
    out.reserve(r.buf.size());
    // `next` is the oldest element once the ring has wrapped.
    for (std::size_t i = 0; i < r.buf.size(); ++i)
        out.push_back(r.buf[(r.next + i) % r.buf.size()]);
    return out;
}

std::uint64_t
Tracer::count(unsigned lane, TraceEventKind kind) const
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    return rings_[lane].by_kind[static_cast<unsigned>(kind)];
}

std::uint64_t
Tracer::total(unsigned lane) const
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    return rings_[lane].total;
}

std::uint64_t
Tracer::dropped(unsigned lane) const
{
    if (lane >= kNumLanes)
        throw UdpError("Tracer: lane id out of range");
    return rings_[lane].total - rings_[lane].buf.size();
}

std::vector<unsigned>
Tracer::active_lanes() const
{
    std::vector<unsigned> out;
    for (unsigned l = 0; l < kNumLanes; ++l)
        if (rings_[l].total != 0)
            out.push_back(l);
    return out;
}

Profile
Tracer::profile() const
{
    Profile out;
    for (const LaneRing &r : rings_) {
        for (const auto &[base, p] : r.states) {
            StateProfile &m = out.states_[base];
            m.visits += p.visits;
            m.cycles += p.cycles;
            m.sig_misses += p.sig_misses;
            m.stall_cycles += p.stall_cycles;
        }
        for (std::size_t op = 0; op < r.actions.size(); ++op) {
            const ActionProfile &p = r.actions[op];
            if (p.count == 0)
                continue; // an opcode this lane never ran
            ActionProfile &m = out.actions_[static_cast<Opcode>(op)];
            m.count += p.count;
            m.cycles += p.cycles;
        }
    }
    return out;
}

void
Tracer::clear()
{
    for (auto &r : rings_) {
        r.buf.clear();
        r.next = 0;
        r.total = 0;
        r.by_kind.fill(0);
    }
}

} // namespace udp
