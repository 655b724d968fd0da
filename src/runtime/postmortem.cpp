/**
 * @file
 * FaultReport capture and serialization.
 */
#include "postmortem.hpp"

#include "assembler/disasm.hpp"
#include "core/metrics_json.hpp"
#include "runtime/job.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

namespace udp::runtime {

void
write_fault_report_json(JsonWriter &w, const FaultReport &r)
{
    w.begin_object();
    w.field("job", r.job_name);
    w.field("job_index", std::uint64_t{r.job_index});
    w.field("trace_id", r.trace_id);
    w.field("wave", r.wave);
    w.field("attempt", r.attempt);
    w.field("max_attempts", r.max_attempts);
    w.field("lane", r.lane);
    w.field("status", lane_status_name(r.status));
    w.field("quarantined", r.quarantined);
    w.field("will_retry", r.will_retry);
    w.field("queue_wait_cycles", std::uint64_t{r.queue_wait_cycles});
    w.field("service_cycles", std::uint64_t{r.service_cycles});

    w.key("fault").begin_object();
    w.field("code", fault_code_name(r.fault.code));
    w.field("state_base", std::uint64_t{r.fault.state_base});
    w.field("cycle", std::uint64_t{r.fault.cycle});
    w.field("detail", r.fault.detail);
    w.field("describe", r.fault.describe());
    w.end_object();

    w.key("attempt_history").begin_array();
    for (const AttemptOutcome &a : r.attempt_history) {
        w.begin_object();
        w.field("wave", a.wave);
        w.field("attempt", a.attempt);
        w.field("status", lane_status_name(a.status));
        w.field("fault", fault_code_name(a.fault));
        w.field("cycle", std::uint64_t{a.cycle});
        w.end_object();
    }
    w.end_array();

    // The lane's flight path: its recent micro-event ring, oldest first,
    // cycle stamps run-local to the faulting wave.
    w.key("recent_events").begin_array();
    for (const TraceEvent &ev : r.recent_events) {
        w.begin_object();
        w.field("cycle", std::uint64_t{ev.cycle});
        w.field("kind", trace_event_kind_name(ev.kind));
        w.field("a", std::uint64_t{ev.a});
        w.field("b", std::uint64_t{ev.b});
        w.end_object();
    }
    w.end_array();
    w.field("dropped_events", r.dropped_events);

    w.field("disassembly", r.disassembly);
    w.end_object();
}

bool
write_fault_report_file(const std::string &path, const FaultReport &r)
{
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec); // best effort
    std::ofstream os(path);
    if (!os)
        return false;
    JsonWriter w(os, /*pretty=*/true);
    write_fault_report_json(w, r);
    os << "\n";
    os.flush();
    return bool(os);
}

std::string
postmortem_filename(const FaultReport &r)
{
    return "postmortem-job" + std::to_string(r.job_index) + "-attempt" +
           std::to_string(r.attempt) + ".json";
}

PostmortemSink::PostmortemSink(std::string dir, std::size_t keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last)
{
}

void
PostmortemSink::on_schedule(std::size_t /*jobs*/)
{
    files_written_ = 0;
    history_.clear();
}

void
PostmortemSink::on_job_run(const JobRunEvent &e)
{
    const JobResult &r = e.result;
    if (r.cancelled || (r.status != LaneStatus::Faulted &&
                        r.status != LaneStatus::TimedOut))
        return;
    std::vector<AttemptOutcome> &history = history_[e.trace_id];
    FaultReport fr;
    fr.job_name = e.plan.name;
    fr.job_index = e.job_index;
    fr.trace_id = e.trace_id;
    fr.wave = r.wave;
    fr.attempt = r.attempts;
    fr.max_attempts = e.max_attempts;
    fr.lane = r.lane;
    fr.status = r.status;
    fr.fault = r.fault;
    fr.quarantined = r.quarantined;
    fr.will_retry = e.requeued;
    fr.queue_wait_cycles = r.queue_wait_cycles;
    fr.service_cycles = r.service_cycles;
    fr.attempt_history = history;
    // The lane's recent micro-events: its ring still holds this wave's
    // run (the Scheduler clears the rings only after the wave's sinks).
    if (e.lane_tracer) {
        fr.recent_events = e.lane_tracer->events(r.lane);
        fr.dropped_events = e.lane_tracer->dropped(r.lane);
    }
    fr.disassembly = disassemble_state(*e.plan.program, r.fault.state_base);
    history.push_back(
        {r.wave, r.attempts, r.status, r.fault.code, r.fault.cycle});

    if (!dir_.empty() && files_written_ < kMaxPostmortemFiles) {
        write_fault_report_file(dir_ + "/" + postmortem_filename(fr), fr);
        ++files_written_;
    }
    if (keep_last_ == 0)
        return;
    reports_.push_back(std::move(fr));
    while (reports_.size() > keep_last_)
        reports_.pop_front();
}

} // namespace udp::runtime
