// x86 instruction decoder (IA-32 and x86-64 long mode). Replaces the
// commercial disassembler (IDA Pro) used by the paper. Coverage: the full
// one-byte opcode map except x87/BCD/far-pointer forms, the two-byte (0F)
// opcodes that appear in compiler output and shellcode, all ModRM/SIB
// addressing modes, the operand-size prefix, and — in Mode::k64 — REX
// prefixes, RIP-relative addressing, default-64 stack operations, movsxd,
// `syscall`, and the 64-bit invalid-encoding set. Undecodable bytes yield
// an Instruction with mnemonic kInvalid and length >= 1, so linear sweeps
// always make progress and never fault on hostile input.
#pragma once

#include "util/bytes.hpp"
#include "arch/insn.hpp"

namespace senids::arch {

/// Decode the instruction starting at `offset` in `code`. Always returns;
/// check Instruction::valid(). Invalid encodings consume exactly one byte
/// so the caller can resynchronize.
Instruction decode(util::ByteView code, std::size_t offset, Mode mode = Mode::k32);

/// Decode at most `max_insns` instructions linearly from `offset`,
/// stopping at the first invalid byte or end of buffer.
std::vector<Instruction> linear_sweep(util::ByteView code, std::size_t offset = 0,
                                      std::size_t max_insns = SIZE_MAX,
                                      Mode mode = Mode::k32);

}  // namespace senids::arch
