#include "arch/decoder.hpp"

namespace senids::arch {

namespace {

/// Architectural cap: no IA-32 instruction exceeds 15 bytes.
constexpr std::size_t kMaxInsnLen = 15;

/// Fail-flagged byte reader. We use a flag instead of exceptions because
/// the decoder sits on the hot path of every bench.
struct Reader {
  util::ByteView buf;
  std::size_t pos;
  bool fail = false;

  std::uint8_t u8() noexcept {
    if (pos >= buf.size()) {
      fail = true;
      return 0;
    }
    return buf[pos++];
  }
  std::uint16_t u16() noexcept {
    std::uint16_t lo = u8(), hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }
  std::uint32_t u32() noexcept {
    std::uint32_t v = u16();
    return v | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() noexcept {
    std::uint64_t v = u32();
    return v | (static_cast<std::uint64_t>(u32()) << 32);
  }
  std::int8_t s8() noexcept { return static_cast<std::int8_t>(u8()); }
  std::int32_t s32() noexcept { return static_cast<std::int32_t>(u32()); }
};

struct ModRM {
  std::uint8_t mod, reg, rm;
};

ModRM read_modrm(Reader& r) noexcept {
  const std::uint8_t b = r.u8();
  return ModRM{static_cast<std::uint8_t>(b >> 6), static_cast<std::uint8_t>((b >> 3) & 7),
               static_cast<std::uint8_t>(b & 7)};
}

Reg reg_of_width(unsigned index, RegWidth w) noexcept {
  switch (w) {
    case RegWidth::k8Lo:
    case RegWidth::k8Hi:
      return reg8(index);
    case RegWidth::k16:
      return reg16(index);
    case RegWidth::k32:
      return reg32(index);
    case RegWidth::k64:
      return reg64(index);
  }
  return reg32(index);
}

/// Decode the r/m side of a ModRM byte (32-bit or 64-bit addressing,
/// with REX extensions applied from `pre`).
Operand decode_rm(Reader& r, const ModRM& m, RegWidth width, Mode mode,
                  const Prefixes& pre) noexcept {
  if (m.mod == 3) {
    const unsigned rm_ext = m.rm + (pre.has(Prefixes::kRexB) ? 8u : 0u);
    if (width == RegWidth::k8Lo || width == RegWidth::k8Hi) {
      return Operand::make_reg(reg8(rm_ext, pre.has(Prefixes::kRex)));
    }
    return Operand::make_reg(reg_of_width(rm_ext, width));
  }

  const bool long_mode = mode == Mode::k64;
  auto addr_reg = [&](unsigned index) {
    return long_mode ? reg64(index) : reg32(index);
  };
  MemRef mem;
  mem.width = width;
  if (m.rm == 4) {
    const std::uint8_t sib = r.u8();
    const unsigned ss = sib >> 6;
    const unsigned idx = ((sib >> 3) & 7) + (pre.has(Prefixes::kRexX) ? 8u : 0u);
    const unsigned base = (sib & 7) + (pre.has(Prefixes::kRexB) ? 8u : 0u);
    if (idx != 4) {  // index encoding 4 means "no index" (but r12 is valid)
      mem.index = addr_reg(idx);
      mem.scale = static_cast<std::uint8_t>(1u << ss);
    }
    if ((base & 7) == 5 && m.mod == 0) {
      mem.disp = r.s32();  // [index*scale + disp32], no base
    } else {
      mem.base = addr_reg(base);
    }
  } else if (m.rm == 5 && m.mod == 0) {
    mem.disp = r.s32();       // absolute disp32 (32-bit mode)
    mem.rip = long_mode;      // [rip + disp32] in 64-bit mode
  } else {
    mem.base = addr_reg(m.rm + (pre.has(Prefixes::kRexB) ? 8u : 0u));
  }
  if (m.mod == 1) mem.disp = r.s8();
  else if (m.mod == 2) mem.disp = r.s32();
  return Operand::make_mem(mem);
}

/// Group-1 arithmetic mnemonics indexed by the ModRM reg field.
constexpr Mnemonic kGroup1[] = {Mnemonic::kAdd, Mnemonic::kOr,  Mnemonic::kAdc,
                                Mnemonic::kSbb, Mnemonic::kAnd, Mnemonic::kSub,
                                Mnemonic::kXor, Mnemonic::kCmp};

/// Shift-group mnemonics indexed by the ModRM reg field.
constexpr Mnemonic kShiftGroup[] = {Mnemonic::kRol, Mnemonic::kRor, Mnemonic::kRcl,
                                    Mnemonic::kRcr, Mnemonic::kShl, Mnemonic::kShr,
                                    Mnemonic::kShl /*SAL*/, Mnemonic::kSar};

/// Arithmetic family base opcodes (00,08,...,38) map to these mnemonics.
constexpr Mnemonic kArithFamily[] = {Mnemonic::kAdd, Mnemonic::kOr,  Mnemonic::kAdc,
                                     Mnemonic::kSbb, Mnemonic::kAnd, Mnemonic::kSub,
                                     Mnemonic::kXor, Mnemonic::kCmp};

}  // namespace

Instruction decode(util::ByteView code, std::size_t offset, Mode mode) {
  Instruction insn;
  insn.offset = static_cast<std::uint32_t>(offset);
  insn.mode = mode;
  if (offset >= code.size()) return insn;  // invalid, length 0: caller must stop

  Reader r{code, offset};
  Prefixes pre;

  // -------- prefix scan (bounded: total instruction capped at 15 bytes)
  for (;;) {
    if (r.pos - offset >= kMaxInsnLen) {
      insn.length = 1;
      return insn;
    }
    const std::uint8_t b = r.u8();
    if (r.fail) {
      insn.length = 1;
      return insn;
    }
    if (mode == Mode::k64 && b >= 0x40 && b <= 0x4F) {
      // REX prefix. It only applies when it immediately precedes the
      // opcode; a later legacy prefix voids it (below), matching CPUs.
      pre.bits = static_cast<std::uint16_t>(
          (pre.bits & ~Prefixes::kRexAll) | Prefixes::kRex |
          ((b & 8) ? Prefixes::kRexW : 0) | ((b & 4) ? Prefixes::kRexR : 0) |
          ((b & 2) ? Prefixes::kRexX : 0) | ((b & 1) ? Prefixes::kRexB : 0));
      continue;
    }
    std::uint16_t bit = 0;
    switch (b) {
      case 0x66: bit = Prefixes::kOpsize; break;
      case 0x67: bit = Prefixes::kAddrsize; break;
      case 0xF0: bit = Prefixes::kLock; break;
      case 0xF2: bit = Prefixes::kRepne; break;
      case 0xF3: bit = Prefixes::kRep; break;
      case 0x26: case 0x2E: case 0x36: case 0x3E: case 0x64: case 0x65:
        bit = Prefixes::kSegment;
        break;
      default:
        break;
    }
    if (bit == 0) {
      r.pos--;  // unread the opcode byte
      break;
    }
    pre.bits = static_cast<std::uint16_t>((pre.bits | bit) & ~Prefixes::kRexAll);
  }
  insn.prefixes = pre;

  // 16-bit addressing (0x67) is never emitted by our corpus generators and
  // changes ModRM semantics entirely; refuse rather than mis-decode.
  if (pre.has(Prefixes::kAddrsize)) {
    insn.length = 1;
    return insn;
  }

  const bool long_mode = mode == Mode::k64;
  const bool opsize = pre.has(Prefixes::kOpsize);
  const bool rex = pre.has(Prefixes::kRex);
  const bool rex_w = pre.has(Prefixes::kRexW);
  const RegWidth vw = rex_w    ? RegWidth::k64
                      : opsize ? RegWidth::k16
                               : RegWidth::k32;  // "v" width
  // Stack operations (push/pop/call/ret) default to 64-bit in long mode.
  const RegWidth stackw = long_mode ? RegWidth::k64 : vw;
  insn.op_width = vw;
  // REX extensions for the ModRM.reg field and opcode-embedded registers.
  auto xr = [&](unsigned f) { return f + (pre.has(Prefixes::kRexR) ? 8u : 0u); };
  auto xb = [&](unsigned f) { return f + (pre.has(Prefixes::kRexB) ? 8u : 0u); };

  auto finish = [&](Mnemonic m) -> Instruction& {
    insn.mnemonic = m;
    insn.length = static_cast<std::uint8_t>(r.pos - offset);
    if (r.fail || insn.length > kMaxInsnLen) {
      insn.mnemonic = Mnemonic::kInvalid;
      insn.length = 1;
    }
    return insn;
  };
  auto invalid = [&]() -> Instruction& {
    insn.mnemonic = Mnemonic::kInvalid;
    insn.length = 1;
    return insn;
  };

  // Immediate of "z" size: 16 bits with the opsize prefix, else 32.
  auto imm_z = [&]() -> std::int64_t {
    return opsize ? static_cast<std::int64_t>(static_cast<std::int16_t>(r.u16()))
                  : static_cast<std::int64_t>(r.s32());
  };
  // Relative branch target, resolved to an absolute buffer offset.
  auto rel8_target = [&]() -> std::int64_t {
    const std::int8_t d = r.s8();
    return static_cast<std::int64_t>(r.pos) + d;  // r.pos is the next-insn offset
  };
  auto relz_target = [&]() -> std::int64_t {
    const std::int64_t d = opsize
        ? static_cast<std::int64_t>(static_cast<std::int16_t>(r.u16()))
        : static_cast<std::int64_t>(r.s32());
    return static_cast<std::int64_t>(r.pos) + d;
  };

  const std::uint8_t op = r.u8();
  if (r.fail) return invalid();

  // -------- arithmetic family pattern: XX0..XX5 for 8 mnemonics
  if (op < 0x40 && (op & 7) < 6 && ((op & 0x38) >> 3) < 8 &&
      (op & 0xC0) == 0 /* always true for op<0x40 */) {
    const Mnemonic m = kArithFamily[(op >> 3) & 7];
    switch (op & 7) {
      case 0: {  // op rm8, r8
        ModRM mm = read_modrm(r);
        insn.ops[0] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
        insn.ops[1] = Operand::make_reg(reg8(xr(mm.reg), rex));
        insn.op_width = RegWidth::k8Lo;
        return finish(m);
      }
      case 1: {  // op rmv, rv
        ModRM mm = read_modrm(r);
        insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
        insn.ops[1] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
        return finish(m);
      }
      case 2: {  // op r8, rm8
        ModRM mm = read_modrm(r);
        insn.ops[1] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
        insn.ops[0] = Operand::make_reg(reg8(xr(mm.reg), rex));
        insn.op_width = RegWidth::k8Lo;
        return finish(m);
      }
      case 3: {  // op rv, rmv
        ModRM mm = read_modrm(r);
        insn.ops[1] = decode_rm(r, mm, vw, mode, pre);
        insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
        return finish(m);
      }
      case 4:  // op al, imm8
        insn.ops[0] = Operand::make_reg(kAl);
        insn.ops[1] = Operand::make_imm(r.u8());
        insn.op_width = RegWidth::k8Lo;
        return finish(m);
      case 5:  // op eAX, immz
        insn.ops[0] = Operand::make_reg(reg_of_width(0, vw));
        insn.ops[1] = Operand::make_imm(imm_z());
        return finish(m);
    }
  }

  switch (op) {
    // ---- one-byte segment push/pop and BCD adjust (32-bit only: all of
    // these encodings were removed from the 64-bit opcode map)
    case 0x06: case 0x0E: case 0x16: case 0x1E:
      if (long_mode) return invalid();
      insn.op_width = RegWidth::k16;
      return finish(Mnemonic::kPush);
    case 0x07: case 0x17: case 0x1F:
      if (long_mode) return invalid();
      insn.op_width = RegWidth::k16;
      return finish(Mnemonic::kPop);
    case 0x27: return long_mode ? invalid() : finish(Mnemonic::kDaa);
    case 0x2F: return long_mode ? invalid() : finish(Mnemonic::kDas);
    case 0x37: return long_mode ? invalid() : finish(Mnemonic::kAaa);
    case 0x3F: return long_mode ? invalid() : finish(Mnemonic::kAas);

    // ---- inc/dec/push/pop register forms
    case 0x40: case 0x41: case 0x42: case 0x43:
    case 0x44: case 0x45: case 0x46: case 0x47:
      insn.ops[0] = Operand::make_reg(reg_of_width(op - 0x40, vw));
      return finish(Mnemonic::kInc);
    case 0x48: case 0x49: case 0x4A: case 0x4B:
    case 0x4C: case 0x4D: case 0x4E: case 0x4F:
      insn.ops[0] = Operand::make_reg(reg_of_width(op - 0x48, vw));
      return finish(Mnemonic::kDec);
    case 0x50: case 0x51: case 0x52: case 0x53:
    case 0x54: case 0x55: case 0x56: case 0x57:
      insn.ops[0] = Operand::make_reg(reg_of_width(xb(op - 0x50), stackw));
      insn.op_width = stackw;
      return finish(Mnemonic::kPush);
    case 0x58: case 0x59: case 0x5A: case 0x5B:
    case 0x5C: case 0x5D: case 0x5E: case 0x5F:
      insn.ops[0] = Operand::make_reg(reg_of_width(xb(op - 0x58), stackw));
      insn.op_width = stackw;
      return finish(Mnemonic::kPop);

    case 0x60: return long_mode ? invalid() : finish(Mnemonic::kPusha);
    case 0x61: return long_mode ? invalid() : finish(Mnemonic::kPopa);

    case 0x63: {  // movsxd rv, rm32 (64-bit mode; 32-bit ARPL stays undecoded)
      if (!long_mode) return invalid();
      ModRM mm = read_modrm(r);
      insn.ops[1] = decode_rm(r, mm, RegWidth::k32, mode, pre);
      insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
      return finish(Mnemonic::kMovsx);
    }

    case 0x68:  // push immz (imm is still 16/32-bit; operand is stack-wide)
      insn.ops[0] = Operand::make_imm(imm_z());
      insn.op_width = stackw;
      return finish(Mnemonic::kPush);
    case 0x69: {  // imul rv, rmv, immz
      ModRM mm = read_modrm(r);
      insn.ops[1] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
      insn.ops[2] = Operand::make_imm(imm_z());
      return finish(Mnemonic::kImul);
    }
    case 0x6A:  // push imm8 (sign-extended)
      insn.ops[0] = Operand::make_imm(r.s8());
      insn.op_width = stackw;
      return finish(Mnemonic::kPush);
    case 0x6B: {  // imul rv, rmv, imm8
      ModRM mm = read_modrm(r);
      insn.ops[1] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
      insn.ops[2] = Operand::make_imm(r.s8());
      return finish(Mnemonic::kImul);
    }
    case 0x6C: case 0x6D:  // ins
      insn.op_width = op == 0x6C ? RegWidth::k8Lo : vw;
      return finish(Mnemonic::kIn);
    case 0x6E: case 0x6F:  // outs
      insn.op_width = op == 0x6E ? RegWidth::k8Lo : vw;
      return finish(Mnemonic::kOut);

    // ---- short conditional jumps
    case 0x70: case 0x71: case 0x72: case 0x73:
    case 0x74: case 0x75: case 0x76: case 0x77:
    case 0x78: case 0x79: case 0x7A: case 0x7B:
    case 0x7C: case 0x7D: case 0x7E: case 0x7F:
      insn.cond = static_cast<Cond>(op - 0x70);
      insn.ops[0] = Operand::make_rel(rel8_target());
      return finish(Mnemonic::kJcc);

    // ---- immediate group 1
    case 0x80: case 0x82: {  // op rm8, imm8 (0x82 is the documented alias)
      if (op == 0x82 && long_mode) return invalid();  // alias removed in 64-bit
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
      insn.ops[1] = Operand::make_imm(r.u8());
      insn.op_width = RegWidth::k8Lo;
      return finish(kGroup1[mm.reg]);
    }
    case 0x81: {  // op rmv, immz
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[1] = Operand::make_imm(imm_z());
      return finish(kGroup1[mm.reg]);
    }
    case 0x83: {  // op rmv, imm8 sign-extended
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[1] = Operand::make_imm(r.s8());
      return finish(kGroup1[mm.reg]);
    }

    case 0x84: {  // test rm8, r8
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
      insn.ops[1] = Operand::make_reg(reg8(xr(mm.reg), rex));
      insn.op_width = RegWidth::k8Lo;
      return finish(Mnemonic::kTest);
    }
    case 0x85: {  // test rmv, rv
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[1] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
      return finish(Mnemonic::kTest);
    }
    case 0x86: {  // xchg rm8, r8
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
      insn.ops[1] = Operand::make_reg(reg8(xr(mm.reg), rex));
      insn.op_width = RegWidth::k8Lo;
      return finish(Mnemonic::kXchg);
    }
    case 0x87: {  // xchg rmv, rv
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[1] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
      return finish(Mnemonic::kXchg);
    }

    // ---- mov forms
    case 0x88: {
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
      insn.ops[1] = Operand::make_reg(reg8(xr(mm.reg), rex));
      insn.op_width = RegWidth::k8Lo;
      return finish(Mnemonic::kMov);
    }
    case 0x89: {
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[1] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
      return finish(Mnemonic::kMov);
    }
    case 0x8A: {
      ModRM mm = read_modrm(r);
      insn.ops[1] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
      insn.ops[0] = Operand::make_reg(reg8(xr(mm.reg), rex));
      insn.op_width = RegWidth::k8Lo;
      return finish(Mnemonic::kMov);
    }
    case 0x8B: {
      ModRM mm = read_modrm(r);
      insn.ops[1] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
      return finish(Mnemonic::kMov);
    }
    case 0x8D: {  // lea rv, m
      ModRM mm = read_modrm(r);
      if (mm.mod == 3) return invalid();
      insn.ops[1] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
      return finish(Mnemonic::kLea);
    }
    case 0x8F: {  // pop rmv (group 1A: reg field must be 0)
      ModRM mm = read_modrm(r);
      if (mm.reg != 0) return invalid();
      insn.ops[0] = decode_rm(r, mm, stackw, mode, pre);
      insn.op_width = stackw;
      return finish(Mnemonic::kPop);
    }

    case 0x90:
      return finish(Mnemonic::kNop);
    case 0x91: case 0x92: case 0x93:
    case 0x94: case 0x95: case 0x96: case 0x97:
      insn.ops[0] = Operand::make_reg(reg_of_width(0, vw));
      insn.ops[1] = Operand::make_reg(reg_of_width(xb(op - 0x90), vw));
      return finish(Mnemonic::kXchg);

    case 0x98: return finish(Mnemonic::kCwde);
    case 0x99: return finish(Mnemonic::kCdq);
    case 0x9B: return finish(Mnemonic::kWait);
    case 0x9C: return finish(Mnemonic::kPushf);
    case 0x9D: return finish(Mnemonic::kPopf);
    case 0x9E: return finish(Mnemonic::kSahf);
    case 0x9F: return finish(Mnemonic::kLahf);

    // ---- moffs forms (64-bit mode uses a 64-bit moffs; refuse rather
    // than mis-decode, as with the 16-bit addressing prefix)
    case 0xA0: case 0xA1: {
      if (long_mode) return invalid();
      MemRef mem;
      mem.disp = r.s32();
      mem.width = op == 0xA0 ? RegWidth::k8Lo : vw;
      insn.ops[0] = Operand::make_reg(op == 0xA0 ? kAl : reg_of_width(0, vw));
      insn.ops[1] = Operand::make_mem(mem);
      insn.op_width = mem.width;
      return finish(Mnemonic::kMov);
    }
    case 0xA2: case 0xA3: {
      if (long_mode) return invalid();
      MemRef mem;
      mem.disp = r.s32();
      mem.width = op == 0xA2 ? RegWidth::k8Lo : vw;
      insn.ops[0] = Operand::make_mem(mem);
      insn.ops[1] = Operand::make_reg(op == 0xA2 ? kAl : reg_of_width(0, vw));
      insn.op_width = mem.width;
      return finish(Mnemonic::kMov);
    }

    // ---- string operations (operands implicit in esi/edi/eax/ecx)
    case 0xA4: insn.op_width = RegWidth::k8Lo; return finish(Mnemonic::kMovs);
    case 0xA5: return finish(Mnemonic::kMovs);
    case 0xA6: insn.op_width = RegWidth::k8Lo; return finish(Mnemonic::kCmps);
    case 0xA7: return finish(Mnemonic::kCmps);
    case 0xA8:
      insn.ops[0] = Operand::make_reg(kAl);
      insn.ops[1] = Operand::make_imm(r.u8());
      insn.op_width = RegWidth::k8Lo;
      return finish(Mnemonic::kTest);
    case 0xA9:
      insn.ops[0] = Operand::make_reg(reg_of_width(0, vw));
      insn.ops[1] = Operand::make_imm(imm_z());
      return finish(Mnemonic::kTest);
    case 0xAA: insn.op_width = RegWidth::k8Lo; return finish(Mnemonic::kStos);
    case 0xAB: return finish(Mnemonic::kStos);
    case 0xAC: insn.op_width = RegWidth::k8Lo; return finish(Mnemonic::kLods);
    case 0xAD: return finish(Mnemonic::kLods);
    case 0xAE: insn.op_width = RegWidth::k8Lo; return finish(Mnemonic::kScas);
    case 0xAF: return finish(Mnemonic::kScas);

    // ---- mov reg, imm
    case 0xB0: case 0xB1: case 0xB2: case 0xB3:
    case 0xB4: case 0xB5: case 0xB6: case 0xB7:
      insn.ops[0] = Operand::make_reg(reg8(xb(op - 0xB0), rex));
      insn.ops[1] = Operand::make_imm(r.u8());
      insn.op_width = RegWidth::k8Lo;
      return finish(Mnemonic::kMov);
    case 0xB8: case 0xB9: case 0xBA: case 0xBB:
    case 0xBC: case 0xBD: case 0xBE: case 0xBF:
      insn.ops[0] = Operand::make_reg(reg_of_width(xb(op - 0xB8), vw));
      // B8+r is the one instruction with a true 64-bit immediate.
      insn.ops[1] = Operand::make_imm(
          rex_w ? static_cast<std::int64_t>(r.u64()) : imm_z());
      return finish(Mnemonic::kMov);

    // ---- shift groups
    case 0xC0: case 0xC1: {
      ModRM mm = read_modrm(r);
      const RegWidth w = op == 0xC0 ? RegWidth::k8Lo : vw;
      insn.ops[0] = decode_rm(r, mm, w, mode, pre);
      insn.ops[1] = Operand::make_imm(r.u8() & 0x1f);
      insn.op_width = w;
      return finish(kShiftGroup[mm.reg]);
    }
    case 0xD0: case 0xD1: {
      ModRM mm = read_modrm(r);
      const RegWidth w = op == 0xD0 ? RegWidth::k8Lo : vw;
      insn.ops[0] = decode_rm(r, mm, w, mode, pre);
      insn.ops[1] = Operand::make_imm(1);
      insn.op_width = w;
      return finish(kShiftGroup[mm.reg]);
    }
    case 0xD2: case 0xD3: {
      ModRM mm = read_modrm(r);
      const RegWidth w = op == 0xD2 ? RegWidth::k8Lo : vw;
      insn.ops[0] = decode_rm(r, mm, w, mode, pre);
      insn.ops[1] = Operand::make_reg(kCl);
      insn.op_width = w;
      return finish(kShiftGroup[mm.reg]);
    }

    case 0xC2:
      insn.ops[0] = Operand::make_imm(r.u16());
      return finish(Mnemonic::kRet);
    case 0xC3:
      return finish(Mnemonic::kRet);

    case 0xC6: {  // mov rm8, imm8
      ModRM mm = read_modrm(r);
      if (mm.reg != 0) return invalid();
      insn.ops[0] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
      insn.ops[1] = Operand::make_imm(r.u8());
      insn.op_width = RegWidth::k8Lo;
      return finish(Mnemonic::kMov);
    }
    case 0xC7: {  // mov rmv, immz
      ModRM mm = read_modrm(r);
      if (mm.reg != 0) return invalid();
      insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
      insn.ops[1] = Operand::make_imm(imm_z());
      return finish(Mnemonic::kMov);
    }

    case 0xC8:  // enter imm16, imm8
      insn.ops[0] = Operand::make_imm(r.u16());
      insn.ops[1] = Operand::make_imm(r.u8());
      return finish(Mnemonic::kEnter);
    case 0xC9: return finish(Mnemonic::kLeave);
    case 0xCA:
      insn.ops[0] = Operand::make_imm(r.u16());
      return finish(Mnemonic::kRetf);
    case 0xCB: return finish(Mnemonic::kRetf);
    case 0xCC: return finish(Mnemonic::kInt3);
    case 0xCD:
      insn.ops[0] = Operand::make_imm(r.u8());
      return finish(Mnemonic::kInt);
    case 0xCE: return long_mode ? invalid() : finish(Mnemonic::kInto);
    case 0xCF: return finish(Mnemonic::kIret);

    case 0xD6:  // undocumented; real shellcode uses it (32-bit only)
      return long_mode ? invalid() : finish(Mnemonic::kSalc);
    case 0xD7: return finish(Mnemonic::kXlat);

    // Minimal x87: the fnstenv GetPC idiom needs one FPU instruction to
    // load FIP (any D9 constant-load) and fnstenv itself (D9 /6 mem).
    // Everything else in the x87 escape range stays undecoded.
    case 0xD9: {
      const auto peeked = r.buf.size() > r.pos ? r.buf[r.pos] : 0;
      if (peeked >= 0xE8 && peeked <= 0xEE) {  // fld1/fldl2t/.../fldz
        r.pos++;
        return finish(Mnemonic::kFpuNop);
      }
      ModRM mm = read_modrm(r);
      if (mm.mod != 3 && mm.reg == 6) {  // fnstenv m28
        insn.ops[0] = decode_rm(r, mm, RegWidth::k32, mode, pre);
        return finish(Mnemonic::kFnstenv);
      }
      return invalid();
    }

    // ---- loops and port I/O
    case 0xE0:
      insn.ops[0] = Operand::make_rel(rel8_target());
      return finish(Mnemonic::kLoopne);
    case 0xE1:
      insn.ops[0] = Operand::make_rel(rel8_target());
      return finish(Mnemonic::kLoope);
    case 0xE2:
      insn.ops[0] = Operand::make_rel(rel8_target());
      return finish(Mnemonic::kLoop);
    case 0xE3:
      insn.ops[0] = Operand::make_rel(rel8_target());
      return finish(Mnemonic::kJecxz);
    case 0xE4: case 0xE5:
      insn.ops[0] = Operand::make_imm(r.u8());
      return finish(Mnemonic::kIn);
    case 0xE6: case 0xE7:
      insn.ops[0] = Operand::make_imm(r.u8());
      return finish(Mnemonic::kOut);
    case 0xEC: case 0xED: return finish(Mnemonic::kIn);
    case 0xEE: case 0xEF: return finish(Mnemonic::kOut);

    case 0xE8:
      insn.ops[0] = Operand::make_rel(relz_target());
      return finish(Mnemonic::kCall);
    case 0xE9:
      insn.ops[0] = Operand::make_rel(relz_target());
      return finish(Mnemonic::kJmp);
    case 0xEB:
      insn.ops[0] = Operand::make_rel(rel8_target());
      return finish(Mnemonic::kJmp);

    case 0xF4: return finish(Mnemonic::kHlt);
    case 0xF5: return finish(Mnemonic::kCmc);

    // ---- unary group 3
    case 0xF6: case 0xF7: {
      ModRM mm = read_modrm(r);
      const RegWidth w = op == 0xF6 ? RegWidth::k8Lo : vw;
      insn.ops[0] = decode_rm(r, mm, w, mode, pre);
      insn.op_width = w;
      switch (mm.reg) {
        case 0: case 1:  // test rm, imm
          insn.ops[1] = Operand::make_imm(op == 0xF6 ? static_cast<std::int64_t>(r.u8())
                                                     : imm_z());
          return finish(Mnemonic::kTest);
        case 2: return finish(Mnemonic::kNot);
        case 3: return finish(Mnemonic::kNeg);
        case 4: return finish(Mnemonic::kMul);
        case 5: return finish(Mnemonic::kImul);
        case 6: return finish(Mnemonic::kDiv);
        case 7: return finish(Mnemonic::kIdiv);
      }
      return invalid();
    }

    case 0xF8: return finish(Mnemonic::kClc);
    case 0xF9: return finish(Mnemonic::kStc);
    case 0xFA: return finish(Mnemonic::kCli);
    case 0xFB: return finish(Mnemonic::kSti);
    case 0xFC: return finish(Mnemonic::kCld);
    case 0xFD: return finish(Mnemonic::kStd);

    case 0xFE: {  // group 4: inc/dec rm8
      ModRM mm = read_modrm(r);
      insn.ops[0] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
      insn.op_width = RegWidth::k8Lo;
      if (mm.reg == 0) return finish(Mnemonic::kInc);
      if (mm.reg == 1) return finish(Mnemonic::kDec);
      return invalid();
    }
    case 0xFF: {  // group 5
      ModRM mm = read_modrm(r);
      // call/jmp/push operands default to 64-bit in long mode.
      const bool stacky = mm.reg == 2 || mm.reg == 4 || mm.reg == 6;
      insn.ops[0] = decode_rm(r, mm, stacky ? stackw : vw, mode, pre);
      switch (mm.reg) {
        case 0: return finish(Mnemonic::kInc);
        case 1: return finish(Mnemonic::kDec);
        case 2: return finish(Mnemonic::kCall);  // indirect
        case 4: return finish(Mnemonic::kJmp);   // indirect
        case 6: return finish(Mnemonic::kPush);
        default: return invalid();  // far call/jmp not modeled
      }
    }

    // ---- two-byte opcode map
    case 0x0F: {
      const std::uint8_t op2 = r.u8();
      if (r.fail) return invalid();

      // jcc rel32
      if (op2 >= 0x80 && op2 <= 0x8F) {
        insn.cond = static_cast<Cond>(op2 - 0x80);
        insn.ops[0] = Operand::make_rel(relz_target());
        return finish(Mnemonic::kJcc);
      }
      // setcc rm8
      if (op2 >= 0x90 && op2 <= 0x9F) {
        ModRM mm = read_modrm(r);
        insn.cond = static_cast<Cond>(op2 - 0x90);
        insn.ops[0] = decode_rm(r, mm, RegWidth::k8Lo, mode, pre);
        insn.op_width = RegWidth::k8Lo;
        return finish(Mnemonic::kSetcc);
      }
      // cmovcc rv, rmv
      if (op2 >= 0x40 && op2 <= 0x4F) {
        ModRM mm = read_modrm(r);
        insn.cond = static_cast<Cond>(op2 - 0x40);
        insn.ops[1] = decode_rm(r, mm, vw, mode, pre);
        insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
        return finish(Mnemonic::kCmov);
      }
      // bswap r32/r64
      if (op2 >= 0xC8 && op2 <= 0xCF) {
        insn.ops[0] = Operand::make_reg(
            long_mode ? reg_of_width(xb(op2 - 0xC8),
                                     rex_w ? RegWidth::k64 : RegWidth::k32)
                      : reg32(op2 - 0xC8));
        return finish(Mnemonic::kBswap);
      }

      switch (op2) {
        case 0x05:  // syscall (64-bit mode only)
          return long_mode ? finish(Mnemonic::kSyscall) : invalid();
        case 0x1F: {  // multi-byte nop: nop rm
          ModRM mm = read_modrm(r);
          insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
          return finish(Mnemonic::kNop);
        }
        case 0x31: return finish(Mnemonic::kRdtsc);
        case 0xA2: return finish(Mnemonic::kCpuid);
        case 0xA3: case 0xAB: case 0xB3: case 0xBB: {  // bt/bts/btr/btc rm, r
          ModRM mm = read_modrm(r);
          insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
          insn.ops[1] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
          switch (op2) {
            case 0xA3: return finish(Mnemonic::kBt);
            case 0xAB: return finish(Mnemonic::kBts);
            case 0xB3: return finish(Mnemonic::kBtr);
            default: return finish(Mnemonic::kBtc);
          }
        }
        case 0xA4: case 0xAC: {  // shld/shrd rm, r, imm8
          ModRM mm = read_modrm(r);
          insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
          insn.ops[1] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
          insn.ops[2] = Operand::make_imm(r.u8());
          return finish(op2 == 0xA4 ? Mnemonic::kShld : Mnemonic::kShrd);
        }
        case 0xA5: case 0xAD: {  // shld/shrd rm, r, cl
          ModRM mm = read_modrm(r);
          insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
          insn.ops[1] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
          insn.ops[2] = Operand::make_reg(kCl);
          return finish(op2 == 0xA5 ? Mnemonic::kShld : Mnemonic::kShrd);
        }
        case 0xAF: {  // imul rv, rmv
          ModRM mm = read_modrm(r);
          insn.ops[1] = decode_rm(r, mm, vw, mode, pre);
          insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
          return finish(Mnemonic::kImul);
        }
        case 0xB0: case 0xB1: {  // cmpxchg
          ModRM mm = read_modrm(r);
          const RegWidth w = op2 == 0xB0 ? RegWidth::k8Lo : vw;
          insn.ops[0] = decode_rm(r, mm, w, mode, pre);
          insn.ops[1] = Operand::make_reg(reg_of_width(xr(mm.reg), w));
          insn.op_width = w;
          return finish(Mnemonic::kCmpxchg);
        }
        case 0xB6: case 0xB7: {  // movzx rv, rm8/rm16
          ModRM mm = read_modrm(r);
          insn.ops[1] = decode_rm(r, mm, op2 == 0xB6 ? RegWidth::k8Lo : RegWidth::k16, mode, pre);
          insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
          return finish(Mnemonic::kMovzx);
        }
        case 0xBE: case 0xBF: {  // movsx
          ModRM mm = read_modrm(r);
          insn.ops[1] = decode_rm(r, mm, op2 == 0xBE ? RegWidth::k8Lo : RegWidth::k16, mode, pre);
          insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
          return finish(Mnemonic::kMovsx);
        }
        case 0xBA: {  // group 8: bt/bts/btr/btc rm, imm8
          ModRM mm = read_modrm(r);
          if (mm.reg < 4) return invalid();
          insn.ops[0] = decode_rm(r, mm, vw, mode, pre);
          insn.ops[1] = Operand::make_imm(r.u8());
          switch (mm.reg) {
            case 4: return finish(Mnemonic::kBt);
            case 5: return finish(Mnemonic::kBts);
            case 6: return finish(Mnemonic::kBtr);
            default: return finish(Mnemonic::kBtc);
          }
        }
        case 0xBC: case 0xBD: {  // bsf/bsr rv, rmv
          ModRM mm = read_modrm(r);
          insn.ops[1] = decode_rm(r, mm, vw, mode, pre);
          insn.ops[0] = Operand::make_reg(reg_of_width(xr(mm.reg), vw));
          return finish(op2 == 0xBC ? Mnemonic::kBsf : Mnemonic::kBsr);
        }
        case 0xC0: case 0xC1: {  // xadd
          ModRM mm = read_modrm(r);
          const RegWidth w = op2 == 0xC0 ? RegWidth::k8Lo : vw;
          insn.ops[0] = decode_rm(r, mm, w, mode, pre);
          insn.ops[1] = Operand::make_reg(reg_of_width(xr(mm.reg), w));
          insn.op_width = w;
          return finish(Mnemonic::kXadd);
        }
        default:
          return invalid();
      }
    }

    default:
      return invalid();
  }
}

std::vector<Instruction> linear_sweep(util::ByteView code, std::size_t offset,
                                      std::size_t max_insns, Mode mode) {
  std::vector<Instruction> out;
  while (offset < code.size() && out.size() < max_insns) {
    Instruction insn = decode(code, offset, mode);
    if (!insn.valid()) break;
    offset = insn.end_offset();
    out.push_back(std::move(insn));
  }
  return out;
}

}  // namespace senids::arch
