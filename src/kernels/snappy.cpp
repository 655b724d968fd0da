/**
 * @file
 * Snappy kernel builders.
 */
#include "snappy.hpp"

#include "assembler/builder.hpp"
#include "runtime/executor.hpp"

namespace udp::kernels {

namespace {

// Register plan (both kernels).
// r1 cur 4 bytes | r2 hash slot | r3 candidate | r4 lit start / copy src
// r5 out cursor  | r6 length    | r7 offset    | r8 scan pos
// r9, r11, r12 scratch | r10 scan limit | r14 input size | r0 flag.

/// Advance the stream to byte position (reg[a] + reg[b]) via r9.
std::vector<Action>
seek_to_sum(unsigned a, unsigned b)
{
    return {
        act_reg(Opcode::Add, 9, a, b),
        act_imm(Opcode::Shli, 9, 9, 3),
        act_imm(Opcode::Setstream, 0, 9, 0),
    };
}

std::vector<Action>
cat(std::vector<Action> x, const std::vector<Action> &y)
{
    x.insert(x.end(), y.begin(), y.end());
    return x;
}

} // namespace

Program
snappy_decompress_program()
{
    ProgramBuilder b;
    const StateId tag = b.add_state();

    // Shared literal tail: r6 = length; copy from the stream position to
    // the output cursor, then skip the stream past the literal.
    const std::vector<Action> lit_tail = cat(
        {
            act_reg(Opcode::Mov, 4, 0, kRegStreamIdx), // src = input pos
            act_reg(Opcode::Loopcpy, 6, 5, 4),
            act_reg(Opcode::Add, 5, 5, 6),
        },
        seek_to_sum(4, 6));

    // Short literal: len = (tag >> 2) + 1.
    const BlockId short_lit = b.add_block(cat(
        {
            act_imm(Opcode::Lastsym, 6, 0, 0),
            act_imm(Opcode::Shri, 6, 6, 2),
            act_imm(Opcode::Addi, 6, 6, 1),
        },
        lit_tail));

    // One-byte length literal (tag 60): len = next byte + 1.
    const BlockId lit61 = b.add_block(cat(
        {
            act_imm(Opcode::Read, 6, 0, 8),
            act_imm(Opcode::Addi, 6, 6, 1),
        },
        lit_tail));

    // Two-byte length literal (tag 61): len = LE16 + 1.
    const BlockId lit62 = b.add_block(cat(
        {
            act_imm(Opcode::Read, 6, 0, 8),
            act_imm(Opcode::Read, 7, 0, 8),
            act_imm(Opcode::Shli, 7, 7, 8),
            act_reg(Opcode::Or, 6, 6, 7),
            act_imm(Opcode::Addi, 6, 6, 1),
        },
        lit_tail));

    // Copy with 1-byte offset: len = ((tag>>2)&7)+4, off = (tag>>5)<<8|b.
    const BlockId copy1 = b.add_block({
        act_imm(Opcode::Lastsym, 6, 0, 0),
        act_imm(Opcode::Shri, 6, 6, 2),
        act_imm(Opcode::Andi, 6, 6, 7),
        act_imm(Opcode::Addi, 6, 6, 4),
        act_imm(Opcode::Lastsym, 7, 0, 0),
        act_imm(Opcode::Shri, 7, 7, 5),
        act_imm(Opcode::Shli, 7, 7, 8),
        act_imm(Opcode::Read, 8, 0, 8),
        act_reg(Opcode::Add, 7, 7, 8),
        act_reg(Opcode::Sub, 4, 5, 7), // src = out - offset
        act_reg(Opcode::Loopcpy, 6, 5, 4),
        act_reg(Opcode::Add, 5, 5, 6, true),
    });

    // Copy with 2-byte offset: len = (tag>>2)+1, off = LE16.
    const BlockId copy2 = b.add_block({
        act_imm(Opcode::Lastsym, 6, 0, 0),
        act_imm(Opcode::Shri, 6, 6, 2),
        act_imm(Opcode::Addi, 6, 6, 1),
        act_imm(Opcode::Read, 8, 0, 8),
        act_imm(Opcode::Read, 7, 0, 8),
        act_imm(Opcode::Shli, 7, 7, 8),
        act_reg(Opcode::Add, 7, 7, 8),
        act_reg(Opcode::Sub, 4, 5, 7),
        act_reg(Opcode::Loopcpy, 6, 5, 4),
        act_reg(Opcode::Add, 5, 5, 6, true),
    });

    // Unsupported forms (4-byte literals/copies never appear in <=64 KiB
    // blocks).
    const BlockId bad = b.add_block({act_imm(Opcode::Fail, 0, 0, 0, true)});

    for (Word t = 0; t < 256; ++t) {
        BlockId blk;
        switch (t & 3) {
          case 0:
            blk = (t >> 2) < 60 ? short_lit
                  : (t >> 2) == 60 ? lit61
                  : (t >> 2) == 61 ? lit62
                                   : bad;
            break;
          case 1: blk = copy1; break;
          case 2: blk = copy2; break;
          default: blk = bad; break;
        }
        b.on_symbol(tag, t, tag, blk);
    }

    b.set_entry(tag);
    b.set_initial_symbol_bits(8);
    return b.build();
}

Program
snappy_compress_program()
{
    ProgramBuilder b;

    const StateId scan = b.add_state();           // stream, common
    const StateId sw = b.add_state(true);         // flagged 0/1/2
    const StateId match = b.add_state(true);      // literal-pending check
    const StateId wl = b.add_state(true);         // flagged 0/1
    const StateId lit = b.add_state(true);        // emit pending literal
    const StateId copy = b.add_state(true);       // extend + start copies
    const StateId cl = b.add_state(true);         // flagged: len > 64?
    const StateId c64 = b.add_state(true);        // emit a 64-byte copy
    const StateId cfin = b.add_state(true);       // emit the last copy
    const StateId fin = b.add_state(true);        // tail-literal check
    const StateId fw = b.add_state(true);         // flagged 0/1
    const StateId flit = b.add_state(true);       // emit tail + halt
    const StateId fhalt = b.add_state(true);      // halt

    // --- scan: one consumed byte per dispatch ---------------------------
    b.on_any(scan, sw, b.add_block({
        act_reg(Opcode::Mov, 8, 0, kRegStreamIdx),
        act_imm(Opcode::Subi, 8, 8, 1),            // pos
        act_imm(Opcode::Ldw, 1, 8, 0),             // 4 bytes at pos
        act_imm(Opcode::Hash, 2, 1, 10),           // table index
        act_imm(Opcode::Shli, 2, 2, 2),
        act_imm(Opcode::Addi, 2, 2,
                static_cast<std::int32_t>(kSnapHashBase)),
        act_imm(Opcode::Ldw, 3, 2, 0),             // candidate pos
        act_imm(Opcode::Stw, 8, 2, 0),             // table[h] = pos
        act_imm(Opcode::Ldw, 6, 3, 0),             // candidate bytes
        act_reg(Opcode::Cmpeq, 7, 6, 1),           // content match
        act_reg(Opcode::Cmplt, 9, 3, 8),           // candidate < pos
        act_reg(Opcode::And, 0, 7, 9),             // r0 = match
        act_reg(Opcode::Cmplt, 11, 10, 8),         // pos > limit ?
        act_imm(Opcode::Shli, 11, 11, 1),
        act_reg(Opcode::Max, 0, 0, 11, true),      // finish overrides
    }));
    b.on_symbol(sw, 0, scan);
    b.on_symbol(sw, 1, match);
    b.on_symbol(sw, 2, fin);

    // --- match path ------------------------------------------------------
    b.on_any(match, wl, b.add_block({
        act_reg(Opcode::Sub, 6, 8, 4),             // pending literal len
        act_imm(Opcode::Cmpeqi, 0, 6, 0),
        act_imm(Opcode::Xori, 0, 0, 1, true),      // r0 = (len != 0)
    }));
    b.on_symbol(wl, 0, copy);
    b.on_symbol(wl, 1, lit);

    // Emit the pending literal with the 2-byte length form.
    b.on_any(lit, copy, b.add_block({
        act_imm(Opcode::Outi, 0, 0, 61 << 2),
        act_imm(Opcode::Subi, 7, 6, 1),
        act_imm(Opcode::Outb, 0, 7, 0),
        act_imm(Opcode::Shri, 7, 7, 8),
        act_imm(Opcode::Outb, 0, 7, 0),
        act_reg(Opcode::Loopcpyo, 6, 0, 4, true),  // bytes from input
    }));

    // Extend the match, reposition the stream, prepare the copy loop.
    b.on_any(copy, cl, b.add_block({
        act_reg(Opcode::Sub, 12, 14, 8),
        act_imm(Opcode::Subi, 12, 12, 4),          // extension bound
        act_imm(Opcode::Addi, 9, 3, 4),
        act_imm(Opcode::Addi, 11, 8, 4),
        act_reg(Opcode::Loopcmp, 12, 9, 11),       // extra matched
        act_imm(Opcode::Addi, 12, 12, 4),          // total length
        act_reg(Opcode::Sub, 7, 8, 3),             // offset
        act_reg(Opcode::Add, 9, 8, 12),            // new scan position
        act_reg(Opcode::Mov, 4, 0, 9),             // lit start = new pos
        act_imm(Opcode::Shli, 9, 9, 3),
        act_imm(Opcode::Setstream, 0, 9, 0),
        act_imm(Opcode::Movi, 9, 0, 64),
        act_reg(Opcode::Cmplt, 0, 9, 12, true),    // len > 64 ?
    }));
    b.on_symbol(cl, 0, cfin);
    b.on_symbol(cl, 1, c64);

    b.on_any(c64, cl, b.add_block({
        act_imm(Opcode::Outi, 0, 0, 2 | ((64 - 1) << 2)),
        act_imm(Opcode::Outb, 0, 7, 0),
        act_imm(Opcode::Shri, 11, 7, 8),
        act_imm(Opcode::Outb, 0, 11, 0),
        act_imm(Opcode::Subi, 12, 12, 64),
        act_imm(Opcode::Movi, 9, 0, 64),
        act_reg(Opcode::Cmplt, 0, 9, 12, true),
    }));

    b.on_any(cfin, scan, b.add_block({
        act_imm(Opcode::Subi, 9, 12, 1),
        act_imm(Opcode::Shli, 9, 9, 2),
        act_imm(Opcode::Ori, 9, 9, 2),
        act_imm(Opcode::Outb, 0, 9, 0),
        act_imm(Opcode::Outb, 0, 7, 0),
        act_imm(Opcode::Shri, 11, 7, 8),
        act_imm(Opcode::Outb, 0, 11, 0, true),
    }));

    // --- finish path ------------------------------------------------------
    b.on_any(fin, fw, b.add_block({
        act_reg(Opcode::Sub, 6, 14, 4),            // tail literal length
        act_imm(Opcode::Cmpeqi, 0, 6, 0),
        act_imm(Opcode::Xori, 0, 0, 1, true),
    }));
    b.on_symbol(fw, 0, fhalt);
    b.on_symbol(fw, 1, flit);
    b.on_any(flit, fhalt, b.add_block({
        act_imm(Opcode::Outi, 0, 0, 61 << 2),
        act_imm(Opcode::Subi, 7, 6, 1),
        act_imm(Opcode::Outb, 0, 7, 0),
        act_imm(Opcode::Shri, 7, 7, 8),
        act_imm(Opcode::Outb, 0, 7, 0),
        act_reg(Opcode::Loopcpyo, 6, 0, 4, true),
    }));
    b.on_any(fhalt, fhalt,
             b.add_block({act_imm(Opcode::Halt, 0, 0, 0, true)}));

    b.set_entry(scan);
    b.set_initial_symbol_bits(8);
    return b.build();
}

// ---------------------------------------------------------------------------
// Harnesses.
// ---------------------------------------------------------------------------

runtime::KernelSpec
snappy_decompress_spec()
{
    static const auto prog =
        std::make_shared<const Program>(snappy_decompress_program());
    runtime::KernelSpec spec;
    spec.name = "snappy-decompress";
    spec.program = prog;
    spec.window_bytes = 2 * kBankBytes;
    spec.max_input_bytes = kSnapOutBase;
    spec.init_regs = {{5, kSnapOutBase}}; // output cursor
    spec.prepare = [](runtime::JobPlan &p) {
        p.stages.push_back({0, p.input});
        p.extracts.push_back({kSnapOutBase, 0, 5});
    };
    return spec;
}

runtime::KernelSpec
snappy_compress_spec()
{
    static const auto prog =
        std::make_shared<const Program>(snappy_compress_program());
    runtime::KernelSpec spec;
    spec.name = "snappy-compress";
    spec.program = prog;
    spec.window_bytes = 2 * kBankBytes;
    spec.max_input_bytes = kSnapMaxInput;
    spec.prepare = [](runtime::JobPlan &p) {
        if (p.input.size() < 8)
            throw UdpError("snappy-compress: input too small");
        p.stages.push_back({0, p.input});
        p.stages.push_back(
            {kSnapHashBase, Bytes(4096, 0)}); // 1024-entry hash table
        p.init_regs.emplace_back(
            10, static_cast<Word>(p.input.size() - 4)); // scan limit
        p.init_regs.emplace_back(14, static_cast<Word>(p.input.size()));
    };
    return spec;
}

BytesView
snappy_decompressed(const runtime::JobResult &r)
{
    if (r.status == LaneStatus::Reject)
        throw UdpError("snappy-decompress: bad element stream");
    runtime::require_done(r, "snappy-decompress");
    return r.extracts.at(0);
}

SnapKernelResult
decode_snappy_decompress_result(const runtime::JobResult &r)
{
    const BytesView data = snappy_decompressed(r);
    SnapKernelResult res;
    res.stats = r.stats;
    res.data.assign(data.begin(), data.end());
    return res;
}

SnapKernelResult
decode_snappy_compress_result(const runtime::JobResult &r)
{
    if (r.status == LaneStatus::Reject)
        throw UdpError("snappy-compress: kernel rejected");
    runtime::require_done(r, "snappy-compress");
    SnapKernelResult res;
    res.stats = r.stats;
    // Prepend the varint header for format compatibility.  r14 holds
    // the raw input size (initialized by the spec, read-only in the
    // kernel).
    std::uint32_t v = r.regs[14];
    while (v >= 0x80) {
        res.data.push_back(static_cast<std::uint8_t>(v | 0x80));
        v >>= 7;
    }
    res.data.push_back(static_cast<std::uint8_t>(v));
    res.data.insert(res.data.end(), r.output.begin(), r.output.end());
    return res;
}

SnapKernelResult
run_snappy_decompress(Machine &m, unsigned lane_idx, const Program &prog,
                      BytesView block, ByteAddr window_base)
{
    runtime::KernelSpec spec = snappy_decompress_spec();
    spec.program = runtime::borrow_program(prog);
    // Caller-owned block outlives the run: borrow, don't copy.
    const runtime::JobPlan job =
        spec.make_job(runtime::ArenaSlice::borrow(block));
    return decode_snappy_decompress_result(
        runtime::run_job_on(m, lane_idx, window_base, job));
}

SnapKernelResult
run_snappy_compress(Machine &m, unsigned lane_idx, const Program &prog,
                    BytesView input, ByteAddr window_base)
{
    runtime::KernelSpec spec = snappy_compress_spec();
    spec.program = runtime::borrow_program(prog);
    // Caller-owned input outlives the run: borrow, don't copy.
    const runtime::JobPlan job =
        spec.make_job(runtime::ArenaSlice::borrow(input));
    return decode_snappy_compress_result(
        runtime::run_job_on(m, lane_idx, window_base, job));
}

} // namespace udp::kernels
