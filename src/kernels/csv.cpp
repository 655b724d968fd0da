/**
 * @file
 * CSV kernel builder (libcsv FSM on UDP multi-way dispatch).
 */
#include "csv.hpp"

#include "assembler/builder.hpp"
#include "runtime/executor.hpp"

namespace udp::kernels {

namespace {

// Register plan (see header).
constexpr unsigned rFieldStart = 4;
constexpr unsigned rOut = 5;
constexpr unsigned rLen = 6;
constexpr unsigned rFields = 7;
constexpr unsigned rRows = 8;
constexpr unsigned rScratch = 9;

/// Field begins at the just-consumed character.
std::vector<Action>
start_field()
{
    return {
        act_reg(Opcode::Mov, rFieldStart, 0, kRegStreamIdx),
        act_imm(Opcode::Subi, rFieldStart, rFieldStart, 1),
    };
}

/// Field begins after the just-consumed opening quote.
std::vector<Action>
start_quoted()
{
    return {act_reg(Opcode::Mov, rFieldStart, 0, kRegStreamIdx)};
}

/// Close a field whose content ends `back` bytes before the cursor:
/// loop-copy the span into the output region, terminate with '\n'.
std::vector<Action>
end_field(unsigned back)
{
    return {
        act_reg(Opcode::Mov, rLen, 0, kRegStreamIdx),
        act_imm(Opcode::Subi, rLen, rLen, static_cast<std::int32_t>(back)),
        act_reg(Opcode::Sub, rLen, rLen, rFieldStart),
        act_reg(Opcode::Loopcpy, rLen, rOut, rFieldStart),
        act_reg(Opcode::Add, rOut, rOut, rLen),
        act_imm(Opcode::Movi, rScratch, 0, '\n'),
        act_imm(Opcode::Stb, rScratch, rOut, 0),
        act_imm(Opcode::Addi, rOut, rOut, 1),
        act_imm(Opcode::Addi, rFields, rFields, 1),
    };
}

/// Close an empty field (no span to copy).
std::vector<Action>
end_empty_field()
{
    return {
        act_imm(Opcode::Movi, rScratch, 0, '\n'),
        act_imm(Opcode::Stb, rScratch, rOut, 0),
        act_imm(Opcode::Addi, rOut, rOut, 1),
        act_imm(Opcode::Addi, rFields, rFields, 1),
    };
}

/// Close a row: write the 0x1E row mark.
std::vector<Action>
end_row()
{
    return {
        act_imm(Opcode::Movi, rScratch, 0, 0x1E),
        act_imm(Opcode::Stb, rScratch, rOut, 0),
        act_imm(Opcode::Addi, rOut, rOut, 1),
        act_imm(Opcode::Addi, rRows, rRows, 1),
    };
}

std::vector<Action>
cat(std::vector<Action> a, const std::vector<Action> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

} // namespace

Program
csv_parser_program()
{
    ProgramBuilder b;
    const StateId R = b.add_state(); // row start (row not open)
    const StateId F = b.add_state(); // field start (after a comma)
    const StateId U = b.add_state(); // unquoted field body
    const StateId Q = b.add_state(); // quoted field body
    const StateId E = b.add_state(); // quote seen inside quoted field
    const StateId C = b.add_state(); // after CR (swallow one LF)

    const BlockId kStart = b.add_block(start_field());
    const BlockId kQStart = b.add_block(start_quoted());
    const BlockId kEmpty = b.add_block(end_empty_field());
    const BlockId kEmptyRow = b.add_block(cat(end_empty_field(), end_row()));
    const BlockId kEnd1 = b.add_block(end_field(1));
    const BlockId kEnd1Row = b.add_block(cat(end_field(1), end_row()));
    const BlockId kEnd2 = b.add_block(end_field(2));
    const BlockId kEnd2Row = b.add_block(cat(end_field(2), end_row()));

    // Row start: blank lines are ignored.
    b.on_symbol(R, ',', F, kEmpty);
    b.on_symbol(R, '"', Q, kQStart);
    b.on_symbol(R, '\n', R);
    b.on_symbol(R, '\r', C);
    b.on_majority(R, U, kStart);

    // Field start after a comma: the row is open.
    b.on_symbol(F, ',', F, kEmpty);
    b.on_symbol(F, '"', Q, kQStart);
    b.on_symbol(F, '\n', R, kEmptyRow);
    b.on_symbol(F, '\r', C, kEmptyRow);
    b.on_majority(F, U, kStart);

    // Unquoted body: the majority self-loop is the hot path.
    b.on_symbol(U, ',', F, kEnd1);
    b.on_symbol(U, '\n', R, kEnd1Row);
    b.on_symbol(U, '\r', C, kEnd1Row);
    b.on_majority(U, U);

    // Quoted body.
    b.on_symbol(Q, '"', E);
    b.on_majority(Q, Q);

    // Quote inside a quoted field: "" escape or field close.
    b.on_symbol(E, '"', Q);
    b.on_symbol(E, ',', F, kEnd2);
    b.on_symbol(E, '\n', R, kEnd2Row);
    b.on_symbol(E, '\r', C, kEnd2Row);
    b.on_majority(E, U); // lenient, like libcsv

    // After CR: swallow one LF, otherwise behave like row start.
    b.on_symbol(C, '\n', R);
    b.on_symbol(C, ',', F, kEmpty);
    b.on_symbol(C, '"', Q, kQStart);
    b.on_symbol(C, '\r', C);
    b.on_majority(C, U, kStart);

    b.set_entry(R);
    b.set_initial_symbol_bits(8);
    return b.build();
}

runtime::KernelSpec
csv_kernel_spec()
{
    static const auto prog =
        std::make_shared<const Program>(csv_parser_program());
    runtime::KernelSpec spec;
    spec.name = "csv";
    spec.program = prog;
    spec.window_bytes = kCsvWindowBytes;
    spec.max_input_bytes = kCsvOutBase;
    spec.init_regs = {{rOut, kCsvOutBase}};
    spec.prepare = [](runtime::JobPlan &p) {
        p.stages.push_back({0, p.input});
        p.extracts.push_back({kCsvOutBase, 0, rOut});
    };
    return spec;
}

std::string_view
csv_field_stream(const runtime::JobResult &r)
{
    if (r.status == LaneStatus::Reject)
        throw UdpError("csv kernel: parser rejected input");
    runtime::require_done(r, "csv kernel");
    const Bytes &out = r.extracts.at(0);
    return {reinterpret_cast<const char *>(out.data()), out.size()};
}

CsvKernelResult
decode_csv_result(const runtime::JobResult &r)
{
    const std::string_view stream = csv_field_stream(r);
    CsvKernelResult res;
    res.fields = r.regs[rFields];
    res.rows = r.regs[rRows];
    res.stats = r.stats;
    res.field_stream.assign(stream.begin(), stream.end());
    return res;
}

CsvKernelResult
run_csv_kernel(Machine &m, unsigned lane_idx, BytesView data,
               ByteAddr window_base)
{
    // `data` outlives this call, so the single-lane harness borrows it
    // instead of copying (runtime/arena.hpp).
    const runtime::JobPlan job =
        csv_kernel_spec().make_job(runtime::ArenaSlice::borrow(data));
    return decode_csv_result(
        runtime::run_job_on(m, lane_idx, window_base, job));
}

} // namespace udp::kernels
