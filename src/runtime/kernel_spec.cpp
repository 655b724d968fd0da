/**
 * @file
 * KernelSpec implementation: job construction and input chunking.
 */
#include "kernel_spec.hpp"

#include <algorithm>

namespace udp::runtime {

JobPlan
KernelSpec::make_job(ArenaSlice input) const
{
    if (!program)
        throw UdpError("KernelSpec '" + name + "': no program");
    if (max_input_bytes && input.size() > max_input_bytes)
        throw UdpError("KernelSpec '" + name +
                       "': input exceeds the per-job cap");
    JobPlan p;
    p.name = name;
    p.program = program;
    // Resolve the shared image once per job; every lane a single-job
    // run stages this job on reuses it without a cache lookup.
    p.compiled = sim_backend() == SimBackend::Threaded
                     ? shared_compiled(*program)
                     : nullptr;
    p.input = std::move(input);
    p.window_bytes = window_bytes;
    p.nfa_mode = nfa_mode;
    p.init_regs = init_regs;
    if (prepare)
        prepare(p);
    return p;
}

ChunkAlign
align_after_delim(std::uint8_t delim)
{
    return [delim](BytesView data, std::size_t begin, std::size_t end) {
        while (end > begin && data[end - 1] != delim)
            --end;
        return end;
    };
}

std::size_t
chunk_end(const KernelSpec &spec, BytesView data, std::size_t begin,
          std::size_t chunk_bytes, const ChunkAlign &align, bool at_end)
{
    if (chunk_bytes == 0)
        throw UdpError("chunk_jobs: zero chunk size");
    if (spec.max_input_bytes)
        chunk_bytes = std::min(chunk_bytes, spec.max_input_bytes);
    if (data.size() - begin <= chunk_bytes)
        return at_end ? data.size() : begin;
    const std::size_t end = align ? align(data, begin, begin + chunk_bytes)
                                  : begin + chunk_bytes;
    if (end <= begin)
        throw UdpError("chunk_jobs: no legal split point in '" + spec.name +
                       "' chunk");
    return end;
}

std::vector<JobPlan>
chunk_jobs(const KernelSpec &spec, ArenaSlice input, std::size_t chunk_bytes,
           const ChunkAlign &align)
{
    if (chunk_bytes == 0)
        throw UdpError("chunk_jobs: zero chunk size");
    std::vector<JobPlan> jobs;
    for (std::size_t off = 0, end; off < input.size(); off = end) {
        end = chunk_end(spec, input.view(), off, chunk_bytes, align);
        // A chunk is a sub-slice of the shared arena, not a copy.
        jobs.push_back(spec.make_job(input.subslice(off, end - off)));
    }
    return jobs;
}

std::shared_ptr<const Program>
borrow_program(const Program &prog)
{
    return std::shared_ptr<const Program>(std::shared_ptr<const Program>{},
                                          &prog);
}

} // namespace udp::runtime
