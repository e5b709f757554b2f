#include "emu/cpu.hpp"

#include <bit>
#include <memory>

#include "arch/arch.hpp"

namespace senids::emu {

using arch::Cond;
using arch::Instruction;
using arch::MemRef;
using arch::Mnemonic;
using arch::Mode;
using arch::Operand;
using arch::OperandKind;
using arch::Prefixes;
using arch::Reg;
using arch::RegFamily;
using arch::RegWidth;

std::string_view stop_reason_name(StopReason r) noexcept {
  switch (r) {
    case StopReason::kRunning: return "running";
    case StopReason::kMaxSteps: return "max-steps";
    case StopReason::kInvalidInsn: return "invalid-instruction";
    case StopReason::kUnmappedFetch: return "unmapped-fetch";
    case StopReason::kUnmappedAccess: return "unmapped-access";
    case StopReason::kUnsupported: return "unsupported-instruction";
    case StopReason::kHalted: return "halted";
    case StopReason::kSyscallStop: return "syscall-stop";
    case StopReason::kDivByZero: return "divide-by-zero";
  }
  return "?";
}

namespace {

std::uint64_t mask_of(unsigned bits) {
  return bits >= 64 ? ~0ull : ((1ull << bits) - 1);
}

/// Operand width in bits, given the instruction context.
unsigned op_bits(const Instruction& insn, const Operand& op) {
  switch (op.kind) {
    case OperandKind::kReg:
      return width_bits(op.reg.width);
    case OperandKind::kMem:
      return width_bits(op.mem().width);
    default:
      return width_bits(insn.op_width);
  }
}

bool parity_even(std::uint64_t v) {
  return (std::popcount(static_cast<std::uint32_t>(v & 0xff)) % 2) == 0;
}

struct AddResult {
  std::uint64_t value = 0;
  bool carry = false;
};

/// High 64 bits of a 64x64 -> 128 unsigned multiply, via 32-bit halves
/// (portable: no __int128).
std::uint64_t umul_hi(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t a_lo = a & 0xffffffffull, a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xffffffffull, b_hi = b >> 32;
  const std::uint64_t mid1 = a_hi * b_lo + ((a_lo * b_lo) >> 32);
  const std::uint64_t mid2 = a_lo * b_hi + (mid1 & 0xffffffffull);
  return a_hi * b_hi + (mid1 >> 32) + (mid2 >> 32);
}

/// 128/64 -> 64 unsigned division of hi:lo by d, shift-subtract. The
/// caller guarantees hi < d (no quotient overflow) and d != 0.
struct DivResult {
  std::uint64_t quot = 0;
  std::uint64_t rem = 0;
};
DivResult udiv128(std::uint64_t hi, std::uint64_t lo, std::uint64_t d) {
  DivResult r;
  std::uint64_t rem = hi;
  for (int i = 63; i >= 0; --i) {
    const std::uint64_t carry = rem >> 63;  // bit shifted out of rem
    rem = (rem << 1) | ((lo >> i) & 1);
    if (carry || rem >= d) {
      rem -= d;
      r.quot |= 1ull << i;
    }
  }
  r.rem = rem;
  return r;
}

/// a + b + cin at the given width, with the carry-out (the 2^bits bit).
AddResult add_with_carry(std::uint64_t a, std::uint64_t b, bool cin, unsigned bits) {
  const std::uint64_t m = mask_of(bits);
  a &= m;
  b &= m;
  AddResult r;
  if (bits >= 64) {
    r.value = a + b + (cin ? 1 : 0);
    r.carry = cin ? r.value <= a : r.value < a;
  } else {
    const std::uint64_t wide = a + b + (cin ? 1 : 0);
    r.value = wide & m;
    r.carry = (wide >> bits) != 0;
  }
  return r;
}

}  // namespace

Cpu::Cpu(VirtualMemory& mem, std::uint32_t entry_va, Mode mode)
    : mem_(mem), mode_(mode), eip_(entry_va) {
  regs_[static_cast<unsigned>(RegFamily::kSp)] = kStackTop - 0x1000;
}

std::uint64_t Cpu::read_reg(Reg r) const {
  const std::uint64_t full = regs_[static_cast<unsigned>(r.family)];
  switch (r.width) {
    case RegWidth::k64: return full;
    case RegWidth::k32: return full & 0xffffffffu;
    case RegWidth::k16: return full & 0xffff;
    case RegWidth::k8Lo: return full & 0xff;
    case RegWidth::k8Hi: return (full >> 8) & 0xff;
  }
  return full;
}

void Cpu::write_reg(Reg r, std::uint64_t v) {
  std::uint64_t& full = regs_[static_cast<unsigned>(r.family)];
  switch (r.width) {
    case RegWidth::k64: full = v; break;
    // A 32-bit write zero-extends to 64 on x86-64; in 32-bit mode the
    // upper half is never observable.
    case RegWidth::k32: full = v & 0xffffffffu; break;
    case RegWidth::k16: full = (full & ~0xffffull) | (v & 0xffff); break;
    case RegWidth::k8Lo: full = (full & ~0xffull) | (v & 0xff); break;
    case RegWidth::k8Hi: full = (full & ~0xff00ull) | ((v & 0xff) << 8); break;
  }
}

std::uint64_t Cpu::mem_addr(const MemRef& m) const {
  if (m.rip) {
    // RIP-relative: end of the current instruction plus displacement.
    return cur_insn_end_ + static_cast<std::uint64_t>(static_cast<std::int64_t>(m.disp));
  }
  std::uint64_t addr = static_cast<std::uint64_t>(static_cast<std::int64_t>(m.disp));
  if (m.has_base()) addr += regs_[static_cast<unsigned>(m.base.family)];
  if (m.has_index()) addr += regs_[static_cast<unsigned>(m.index.family)] * m.scale;
  if (mode_ == Mode::k32) addr &= 0xffffffffu;  // IA-32 address wraparound
  return addr;
}

std::optional<std::uint64_t> Cpu::load(std::uint64_t addr, unsigned bits) {
  // VirtualMemory is 32-bit addressed; long-mode accesses above 4 GiB fault.
  if (addr > 0xffffffffull || addr + bits / 8 - 1 > 0xffffffffull) {
    stop_ = StopReason::kUnmappedAccess;
    return std::nullopt;
  }
  const std::uint32_t a32 = static_cast<std::uint32_t>(addr);
  std::optional<std::uint64_t> v;
  switch (bits) {
    case 8: {
      auto b = mem_.read8(a32);
      if (b) v = *b;
      break;
    }
    case 16: {
      auto b = mem_.read16(a32);
      if (b) v = *b;
      break;
    }
    case 64: {
      auto lo = mem_.read32(a32);
      auto hi = mem_.read32(a32 + 4);
      if (lo && hi) {
        v = static_cast<std::uint64_t>(*lo) | (static_cast<std::uint64_t>(*hi) << 32);
      }
      break;
    }
    default: {
      auto b = mem_.read32(a32);
      if (b) v = *b;
      break;
    }
  }
  if (!v) stop_ = StopReason::kUnmappedAccess;
  return v;
}

bool Cpu::store(std::uint64_t addr, unsigned bits, std::uint64_t v) {
  if (addr > 0xffffffffull || addr + bits / 8 - 1 > 0xffffffffull) {
    stop_ = StopReason::kUnmappedAccess;
    return false;
  }
  const std::uint32_t a32 = static_cast<std::uint32_t>(addr);
  bool ok;
  switch (bits) {
    case 8: ok = mem_.write8(a32, static_cast<std::uint8_t>(v)); break;
    case 16: ok = mem_.write16(a32, static_cast<std::uint16_t>(v)); break;
    case 64:
      ok = mem_.write32(a32, static_cast<std::uint32_t>(v)) &&
           mem_.write32(a32 + 4, static_cast<std::uint32_t>(v >> 32));
      break;
    default: ok = mem_.write32(a32, static_cast<std::uint32_t>(v)); break;
  }
  if (!ok) stop_ = StopReason::kUnmappedAccess;
  return ok;
}

std::optional<std::uint64_t> Cpu::read_operand(const Operand& op, unsigned bits) {
  switch (op.kind) {
    case OperandKind::kReg:
      return read_reg(op.reg);
    case OperandKind::kImm:
    case OperandKind::kRel:
      return static_cast<std::uint64_t>(op.imm()) & mask_of(bits);
    case OperandKind::kMem:
      return load(mem_addr(op.mem()), bits);
    case OperandKind::kNone:
      return 0;
  }
  return 0;
}

bool Cpu::write_operand(const Operand& op, unsigned bits, std::uint64_t v) {
  if (op.kind == OperandKind::kReg) {
    write_reg(op.reg, v);
    return true;
  }
  if (op.kind == OperandKind::kMem) {
    return store(mem_addr(op.mem()), bits, v);
  }
  return true;
}

void Cpu::set_logic_flags(std::uint64_t result, unsigned bits) {
  result &= mask_of(bits);
  flags_.cf = false;
  flags_.of = false;
  flags_.zf = result == 0;
  flags_.sf = (result >> (bits - 1)) & 1;
  flags_.pf = parity_even(result);
}

void Cpu::set_add_flags(std::uint64_t a, std::uint64_t b, std::uint64_t result,
                        bool carry, unsigned bits) {
  result &= mask_of(bits);
  flags_.cf = carry;
  flags_.zf = result == 0;
  flags_.sf = (result >> (bits - 1)) & 1;
  flags_.of = (((a ^ result) & (b ^ result)) >> (bits - 1)) & 1;
  flags_.pf = parity_even(result);
}

void Cpu::set_sub_flags(std::uint64_t a, std::uint64_t b, unsigned bits) {
  const std::uint64_t m = mask_of(bits);
  a &= m;
  b &= m;
  const std::uint64_t result = (a - b) & m;
  flags_.cf = a < b;
  flags_.zf = result == 0;
  flags_.sf = (result >> (bits - 1)) & 1;
  flags_.of = (((a ^ b) & (a ^ result)) >> (bits - 1)) & 1;
  flags_.pf = parity_even(result);
}

bool Cpu::cond_holds(Cond c) const {
  switch (c) {
    case Cond::kO: return flags_.of;
    case Cond::kNo: return !flags_.of;
    case Cond::kB: return flags_.cf;
    case Cond::kAe: return !flags_.cf;
    case Cond::kE: return flags_.zf;
    case Cond::kNe: return !flags_.zf;
    case Cond::kBe: return flags_.cf || flags_.zf;
    case Cond::kA: return !flags_.cf && !flags_.zf;
    case Cond::kS: return flags_.sf;
    case Cond::kNs: return !flags_.sf;
    case Cond::kP: return flags_.pf;
    case Cond::kNp: return !flags_.pf;
    case Cond::kL: return flags_.sf != flags_.of;
    case Cond::kGe: return flags_.sf == flags_.of;
    case Cond::kLe: return flags_.zf || (flags_.sf != flags_.of);
    case Cond::kG: return !flags_.zf && flags_.sf == flags_.of;
  }
  return false;
}

StopReason Cpu::run(std::size_t max_steps, const SyscallHook& hook) {
  stop_ = StopReason::kRunning;
  while (stop_ == StopReason::kRunning) {
    if (steps_ >= max_steps) {
      stop_ = StopReason::kMaxSteps;
      break;
    }
    ++steps_;
    step(hook);
  }
  return stop_;
}

void Cpu::step(const SyscallHook& hook) {
  const std::uint64_t va_mask = mode_ == Mode::k64 ? ~0ull : 0xffffffffull;
  // Fetch a decode window through the MMU.
  std::uint8_t window[15];
  std::size_t avail = 0;
  for (; avail < sizeof window; ++avail) {
    const std::uint64_t fetch_va = (eip_ + avail) & va_mask;
    if (fetch_va > 0xffffffffull) break;
    auto b = mem_.read8(static_cast<std::uint32_t>(fetch_va));
    if (!b) break;
    window[avail] = *b;
  }
  if (avail == 0) {
    stop_ = StopReason::kUnmappedFetch;
    return;
  }
  const Instruction insn = arch::decode(util::ByteView(window, avail), 0, mode_);
  if (!insn.valid()) {
    stop_ = StopReason::kInvalidInsn;
    return;
  }
  const std::uint64_t next_eip = (eip_ + insn.length) & va_mask;
  cur_insn_end_ = next_eip;
  // Relative targets were resolved within the fetch window (whose base is
  // eip_), so the flat sum recovers the virtual target.
  const auto branch_va = [&]() {
    return (eip_ + static_cast<std::uint64_t>(insn.ops[0].imm())) & va_mask;
  };

  // Stack operations use the architecture's native width: dword pushes in
  // IA-32, qword pushes (stride 8) in long mode.
  const unsigned stack_bits = mode_ == Mode::k64 ? 64 : 32;
  auto push_native = [&](std::uint64_t v) {
    std::uint64_t& esp = regs_[static_cast<unsigned>(RegFamily::kSp)];
    esp = (esp - stack_bits / 8) & va_mask;
    return store(esp, stack_bits, v);
  };
  auto pop_native = [&]() -> std::optional<std::uint64_t> {
    std::uint64_t& esp = regs_[static_cast<unsigned>(RegFamily::kSp)];
    auto v = load(esp, stack_bits);
    if (v) esp = (esp + stack_bits / 8) & va_mask;
    return v;
  };

  const Operand& op0 = insn.ops[0];
  const Operand& op1 = insn.ops[1];
  std::uint64_t new_eip = next_eip;

  switch (insn.mnemonic) {
    // ----------------------------------------------------------- moves
    case Mnemonic::kMov:
    case Mnemonic::kMovzx: {
      const unsigned src_bits = op_bits(insn, op1);
      auto v = read_operand(op1, src_bits);
      if (!v) return;
      write_operand(op0, op_bits(insn, op0), *v);
      break;
    }
    case Mnemonic::kMovsx: {
      const unsigned src_bits = op_bits(insn, op1);
      auto v = read_operand(op1, src_bits);
      if (!v) return;
      std::uint64_t x = *v;
      if (src_bits < 64 && (x >> (src_bits - 1)) & 1) x |= ~mask_of(src_bits);
      write_operand(op0, op_bits(insn, op0), x);
      break;
    }
    case Mnemonic::kLea:
      write_operand(op0, op_bits(insn, op0), mem_addr(op1.mem()));
      break;
    case Mnemonic::kXchg: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      auto b = read_operand(op1, bits);
      if (!a || !b) return;
      if (!write_operand(op0, bits, *b)) return;
      write_operand(op1, bits, *a);
      break;
    }

    // ------------------------------------------------------------- ALU
    case Mnemonic::kAdd:
    case Mnemonic::kAdc: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      auto b = read_operand(op1, bits);
      if (!a || !b) return;
      const bool cin = insn.mnemonic == Mnemonic::kAdc && flags_.cf;
      const AddResult r = add_with_carry(*a, *b, cin, bits);
      set_add_flags(*a, *b, r.value, r.carry, bits);
      write_operand(op0, bits, r.value);
      break;
    }
    case Mnemonic::kSub:
    case Mnemonic::kSbb: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      auto b = read_operand(op1, bits);
      if (!a || !b) return;
      const std::uint64_t borrow = insn.mnemonic == Mnemonic::kSbb && flags_.cf ? 1 : 0;
      const std::uint64_t rhs = (*b + borrow) & mask_of(bits);
      set_sub_flags(*a, rhs, bits);
      write_operand(op0, bits, (*a - rhs) & mask_of(bits));
      break;
    }
    case Mnemonic::kCmp: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      auto b = read_operand(op1, bits);
      if (!a || !b) return;
      set_sub_flags(*a, *b, bits);
      break;
    }
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor:
    case Mnemonic::kTest: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      auto b = read_operand(op1, bits);
      if (!a || !b) return;
      std::uint64_t r;
      switch (insn.mnemonic) {
        case Mnemonic::kAnd:
        case Mnemonic::kTest: r = *a & *b; break;
        case Mnemonic::kOr: r = *a | *b; break;
        default: r = *a ^ *b; break;
      }
      set_logic_flags(r, bits);
      if (insn.mnemonic != Mnemonic::kTest) write_operand(op0, bits, r & mask_of(bits));
      break;
    }
    case Mnemonic::kInc:
    case Mnemonic::kDec: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      if (!a) return;
      const bool saved_cf = flags_.cf;  // inc/dec leave CF untouched
      if (insn.mnemonic == Mnemonic::kInc) {
        const AddResult r = add_with_carry(*a, 1, false, bits);
        set_add_flags(*a, 1, r.value, r.carry, bits);
        write_operand(op0, bits, r.value);
      } else {
        set_sub_flags(*a, 1, bits);
        write_operand(op0, bits, (*a - 1) & mask_of(bits));
      }
      flags_.cf = saved_cf;
      break;
    }
    case Mnemonic::kNot: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      if (!a) return;
      write_operand(op0, bits, ~*a & mask_of(bits));
      break;
    }
    case Mnemonic::kNeg: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      if (!a) return;
      set_sub_flags(0, *a, bits);
      write_operand(op0, bits, (0ull - *a) & mask_of(bits));
      break;
    }

    // ---------------------------------------------------------- shifts
    case Mnemonic::kShl:
    case Mnemonic::kShr:
    case Mnemonic::kSar:
    case Mnemonic::kRol:
    case Mnemonic::kRor:
    case Mnemonic::kRcl:
    case Mnemonic::kRcr: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      auto cnt = read_operand(op1, 8);
      if (!a || !cnt) return;
      // Hardware masks the count to 5 bits, or 6 for 64-bit operands.
      const unsigned n = *cnt & (bits == 64 ? 63 : 31);
      std::uint64_t x = *a & mask_of(bits);
      if (n != 0) {
        switch (insn.mnemonic) {
          case Mnemonic::kShl:
            flags_.cf = n <= bits && ((x >> (bits - n)) & 1);
            x = (n < 64) ? (x << n) : 0;
            break;
          case Mnemonic::kShr:
            flags_.cf = (x >> (n - 1)) & 1;
            x = (n < 64) ? (x >> n) : 0;
            break;
          case Mnemonic::kSar: {
            std::int64_t s = static_cast<std::int64_t>(
                x << (64 - bits));  // sign-position align
            s >>= (64 - bits);      // sign-extend to 64
            flags_.cf = (static_cast<std::uint64_t>(s) >> (n - 1)) & 1;
            s >>= (n < 63 ? n : 63);
            x = static_cast<std::uint64_t>(s);
            break;
          }
          case Mnemonic::kRol: {
            const unsigned r = n % bits;
            if (r) x = ((x << r) | (x >> (bits - r)));
            flags_.cf = x & 1;
            break;
          }
          case Mnemonic::kRor: {
            const unsigned r = n % bits;
            if (r) x = ((x >> r) | (x << (bits - r)));
            flags_.cf = (x >> (bits - 1)) & 1;
            break;
          }
          case Mnemonic::kRcl:
          case Mnemonic::kRcr: {
            // Rotate through carry, one bit at a time (counts are tiny).
            for (unsigned i = 0; i < n; ++i) {
              if (insn.mnemonic == Mnemonic::kRcl) {
                const bool msb = (x >> (bits - 1)) & 1;
                x = (x << 1) | (flags_.cf ? 1 : 0);
                flags_.cf = msb;
              } else {
                const bool lsb = x & 1;
                x = (x >> 1) | ((flags_.cf ? 1ull : 0ull) << (bits - 1));
                flags_.cf = lsb;
              }
            }
            break;
          }
          default:
            break;
        }
        x &= mask_of(bits);
        flags_.zf = x == 0;
        flags_.sf = (x >> (bits - 1)) & 1;
        flags_.pf = parity_even(x);
      }
      write_operand(op0, bits, x);
      break;
    }
    case Mnemonic::kShld:
    case Mnemonic::kShrd: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      auto b = read_operand(op1, bits);
      auto cnt = read_operand(insn.ops[2], 8);
      if (!a || !b || !cnt) return;
      const unsigned n = *cnt & (bits == 64 ? 63 : 31);
      std::uint64_t x = *a;
      if (n != 0 && n < bits) {
        x = insn.mnemonic == Mnemonic::kShld ? ((*a << n) | (*b >> (bits - n)))
                                             : ((*a >> n) | (*b << (bits - n)));
      }
      set_logic_flags(x, bits);
      write_operand(op0, bits, x & mask_of(bits));
      break;
    }

    // ------------------------------------------------------- mul / div
    case Mnemonic::kMul:
    case Mnemonic::kImul: {
      if (op1.kind != OperandKind::kNone) {  // two/three operand imul
        const unsigned bits = op_bits(insn, op0);
        auto a = insn.ops[2].kind != OperandKind::kNone ? read_operand(op1, bits)
                                                        : read_operand(op0, bits);
        auto b = insn.ops[2].kind != OperandKind::kNone ? read_operand(insn.ops[2], bits)
                                                        : read_operand(op1, bits);
        if (!a || !b) return;
        write_operand(op0, bits, (*a * *b) & mask_of(bits));
        break;
      }
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      if (!a) return;
      if (bits == 64) {
        const std::uint64_t lo = regs_[0] * (*a);
        regs_[static_cast<unsigned>(RegFamily::kDx)] = umul_hi(regs_[0], *a);
        regs_[static_cast<unsigned>(RegFamily::kAx)] = lo;
        break;
      }
      const std::uint64_t wide = (regs_[0] & mask_of(bits)) * (*a & mask_of(bits));
      if (bits == 32) {
        regs_[static_cast<unsigned>(RegFamily::kAx)] = static_cast<std::uint32_t>(wide);
        regs_[static_cast<unsigned>(RegFamily::kDx)] =
            static_cast<std::uint32_t>(wide >> 32);
      } else {
        write_reg(Reg{RegFamily::kAx, RegWidth::k16},
                  static_cast<std::uint32_t>(wide) & 0xffff);
      }
      break;
    }
    case Mnemonic::kDiv:
    case Mnemonic::kIdiv: {
      const unsigned bits = op_bits(insn, op0);
      auto d = read_operand(op0, bits);
      if (!d) return;
      if ((*d & mask_of(bits)) == 0) {
        stop_ = StopReason::kDivByZero;
        return;
      }
      if (bits == 64) {
        const std::uint64_t hi = regs_[static_cast<unsigned>(RegFamily::kDx)];
        const std::uint64_t lo = regs_[static_cast<unsigned>(RegFamily::kAx)];
        if (hi >= *d) {
          stop_ = StopReason::kDivByZero;  // quotient overflow faults too
          return;
        }
        const DivResult r = udiv128(hi, lo, *d);
        regs_[static_cast<unsigned>(RegFamily::kAx)] = r.quot;
        regs_[static_cast<unsigned>(RegFamily::kDx)] = r.rem;
      } else if (bits == 32) {
        const std::uint64_t num =
            ((regs_[static_cast<unsigned>(RegFamily::kDx)] & 0xffffffffull) << 32) |
            (regs_[static_cast<unsigned>(RegFamily::kAx)] & 0xffffffffull);
        const std::uint64_t q = num / *d;
        if (q > 0xffffffffull) {
          stop_ = StopReason::kDivByZero;  // quotient overflow faults too
          return;
        }
        regs_[static_cast<unsigned>(RegFamily::kAx)] = static_cast<std::uint32_t>(q);
        regs_[static_cast<unsigned>(RegFamily::kDx)] =
            static_cast<std::uint32_t>(num % *d);
      } else {
        const std::uint64_t num = regs_[static_cast<unsigned>(RegFamily::kAx)] &
                                  (bits == 16 ? 0xffffffffull : 0xffffull);
        write_reg(Reg{RegFamily::kAx, RegWidth::k16}, (num / *d) & 0xffff);
      }
      break;
    }
    case Mnemonic::kCwde: {
      if (insn.mode == Mode::k64 && insn.prefixes.has(Prefixes::kRexW)) {  // cdqe
        std::uint64_t ax = regs_[0] & 0xffffffffull;
        if (ax & 0x80000000ull) ax |= 0xffffffff00000000ull;
        regs_[static_cast<unsigned>(RegFamily::kAx)] = ax;
        break;
      }
      std::uint64_t ax = regs_[0] & 0xffff;
      if (ax & 0x8000) ax |= 0xffff0000ull;
      regs_[static_cast<unsigned>(RegFamily::kAx)] = ax;
      break;
    }
    case Mnemonic::kCdq:
      if (insn.mode == Mode::k64 && insn.prefixes.has(Prefixes::kRexW)) {  // cqo
        regs_[static_cast<unsigned>(RegFamily::kDx)] =
            (regs_[0] & 0x8000000000000000ull) ? ~0ull : 0;
        break;
      }
      regs_[static_cast<unsigned>(RegFamily::kDx)] =
          (regs_[0] & 0x80000000ull) ? 0xffffffffull : 0;
      break;

    // ------------------------------------------------------------ stack
    case Mnemonic::kPush: {
      std::uint64_t v = 0;
      if (op0.kind != OperandKind::kNone) {
        auto r = read_operand(op0, stack_bits);
        if (!r) return;
        v = *r;
      }
      if (!push_native(v)) return;
      break;
    }
    case Mnemonic::kPop: {
      auto v = pop_native();
      if (!v) return;
      if (op0.kind != OperandKind::kNone) write_operand(op0, stack_bits, *v);
      break;
    }
    case Mnemonic::kPushf:
      if (!push_native((flags_.cf ? 1u : 0) | (flags_.pf ? 4u : 0) |
                       (flags_.zf ? 0x40u : 0) | (flags_.sf ? 0x80u : 0) |
                       (flags_.df ? 0x400u : 0) | (flags_.of ? 0x800u : 0))) {
        return;
      }
      break;
    case Mnemonic::kPopf: {
      auto v = pop_native();
      if (!v) return;
      flags_.cf = *v & 1;
      flags_.pf = *v & 4;
      flags_.zf = *v & 0x40;
      flags_.sf = *v & 0x80;
      flags_.df = *v & 0x400;
      flags_.of = *v & 0x800;
      break;
    }
    case Mnemonic::kPusha: {  // IA-32 only; invalid encoding in long mode
      const std::uint64_t saved_esp = regs_[static_cast<unsigned>(RegFamily::kSp)];
      for (unsigned f = 0; f < 8; ++f) {
        if (!push_native(f == static_cast<unsigned>(RegFamily::kSp) ? saved_esp
                                                                    : regs_[f])) {
          return;
        }
      }
      break;
    }
    case Mnemonic::kPopa:
      for (int f = 7; f >= 0; --f) {
        auto v = pop_native();
        if (!v) return;
        if (f != static_cast<int>(RegFamily::kSp)) regs_[static_cast<unsigned>(f)] = *v;
      }
      break;
    case Mnemonic::kLeave: {
      regs_[static_cast<unsigned>(RegFamily::kSp)] =
          regs_[static_cast<unsigned>(RegFamily::kBp)];
      auto v = pop_native();
      if (!v) return;
      regs_[static_cast<unsigned>(RegFamily::kBp)] = *v;
      break;
    }
    case Mnemonic::kEnter: {
      if (!push_native(regs_[static_cast<unsigned>(RegFamily::kBp)])) return;
      regs_[static_cast<unsigned>(RegFamily::kBp)] =
          regs_[static_cast<unsigned>(RegFamily::kSp)];
      regs_[static_cast<unsigned>(RegFamily::kSp)] -=
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(op0.imm()));
      break;
    }

    // ----------------------------------------------------- control flow
    case Mnemonic::kJmp:
      if (op0.kind == OperandKind::kRel) {
        new_eip = branch_va();
      } else {
        auto v = read_operand(op0, stack_bits);
        if (!v) return;
        new_eip = *v & va_mask;
      }
      break;
    case Mnemonic::kJcc:
      if (cond_holds(insn.cond)) new_eip = branch_va();
      break;
    case Mnemonic::kJecxz:
      if ((regs_[static_cast<unsigned>(RegFamily::kCx)] & va_mask) == 0) {
        new_eip = branch_va();
      }
      break;
    case Mnemonic::kLoop:
    case Mnemonic::kLoope:
    case Mnemonic::kLoopne: {
      std::uint64_t& ecx = regs_[static_cast<unsigned>(RegFamily::kCx)];
      --ecx;
      bool taken = (ecx & va_mask) != 0;
      if (insn.mnemonic == Mnemonic::kLoope) taken = taken && flags_.zf;
      if (insn.mnemonic == Mnemonic::kLoopne) taken = taken && !flags_.zf;
      if (taken) new_eip = branch_va();
      break;
    }
    case Mnemonic::kCall: {
      std::uint64_t target;
      if (op0.kind == OperandKind::kRel) {
        target = branch_va();
      } else {
        auto v = read_operand(op0, stack_bits);
        if (!v) return;
        target = *v & va_mask;
      }
      if (!push_native(next_eip)) return;
      new_eip = target;
      break;
    }
    case Mnemonic::kRet: {
      auto v = pop_native();
      if (!v) return;
      if (op0.kind == OperandKind::kImm) {
        regs_[static_cast<unsigned>(RegFamily::kSp)] +=
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(op0.imm()));
      }
      new_eip = *v & va_mask;
      break;
    }

    case Mnemonic::kInt: {
      SyscallRecord rec;
      rec.vector = static_cast<std::uint16_t>(static_cast<std::uint8_t>(op0.imm()));
      rec.regs = regs_;
      rec.step = steps_;
      std::optional<std::uint32_t> ret = hook ? hook(rec) : std::nullopt;
      if (!ret) {
        stop_ = StopReason::kSyscallStop;
        return;
      }
      regs_[static_cast<unsigned>(RegFamily::kAx)] = *ret;
      break;
    }
    case Mnemonic::kSyscall: {
      // x86-64 `syscall`: record under the 64-bit convention's vector.
      SyscallRecord rec;
      rec.vector = arch::Arch::x86_64().syscall_conventions()[0].vector;
      rec.regs = regs_;
      rec.step = steps_;
      std::optional<std::uint32_t> ret = hook ? hook(rec) : std::nullopt;
      if (!ret) {
        stop_ = StopReason::kSyscallStop;
        return;
      }
      regs_[static_cast<unsigned>(RegFamily::kAx)] = *ret;
      // Hardware clobbers rcx (return rip) and r11 (rflags).
      regs_[static_cast<unsigned>(RegFamily::kCx)] = next_eip;
      regs_[static_cast<unsigned>(RegFamily::kR11)] = 0x202;
      break;
    }

    // -------------------------------------------------------- string ops
    case Mnemonic::kMovs:
    case Mnemonic::kStos:
    case Mnemonic::kLods:
    case Mnemonic::kScas:
    case Mnemonic::kCmps: {
      std::uint64_t& ecx = regs_[static_cast<unsigned>(RegFamily::kCx)];
      const bool rep = insn.prefixes.has(Prefixes::kRep | Prefixes::kRepne);
      if (rep && (ecx & va_mask) == 0) break;  // finished: fall through
      const unsigned bits = width_bits(insn.op_width);
      const std::uint64_t delta = flags_.df ? 0ull - bits / 8 : bits / 8;
      std::uint64_t& esi = regs_[static_cast<unsigned>(RegFamily::kSi)];
      std::uint64_t& edi = regs_[static_cast<unsigned>(RegFamily::kDi)];
      switch (insn.mnemonic) {
        case Mnemonic::kMovs: {
          auto v = load(esi & va_mask, bits);
          if (!v || !store(edi & va_mask, bits, *v)) return;
          esi += delta;
          edi += delta;
          break;
        }
        case Mnemonic::kStos: {
          if (!store(edi & va_mask, bits, regs_[0] & mask_of(bits))) return;
          edi += delta;
          break;
        }
        case Mnemonic::kLods: {
          auto v = load(esi & va_mask, bits);
          if (!v) return;
          write_reg(Reg{RegFamily::kAx, insn.op_width}, *v);
          esi += delta;
          break;
        }
        case Mnemonic::kScas: {
          auto v = load(edi & va_mask, bits);
          if (!v) return;
          set_sub_flags(regs_[0] & mask_of(bits), *v, bits);
          edi += delta;
          break;
        }
        default: {  // cmps
          auto a = load(esi & va_mask, bits);
          auto b = load(edi & va_mask, bits);
          if (!a || !b) return;
          set_sub_flags(*a, *b, bits);
          esi += delta;
          edi += delta;
          break;
        }
      }
      if (rep) {
        --ecx;
        bool continue_rep = (ecx & va_mask) != 0;
        if (insn.mnemonic == Mnemonic::kScas || insn.mnemonic == Mnemonic::kCmps) {
          if (insn.prefixes.has(Prefixes::kRep)) continue_rep = continue_rep && flags_.zf;
          if (insn.prefixes.has(Prefixes::kRepne)) continue_rep = continue_rep && !flags_.zf;
        }
        if (continue_rep) new_eip = eip_;  // re-execute (one iteration per step)
      }
      break;
    }
    case Mnemonic::kXlat: {
      auto v = load((regs_[static_cast<unsigned>(RegFamily::kBx)] + (regs_[0] & 0xff)) &
                        va_mask,
                    8);
      if (!v) return;
      write_reg(Reg{RegFamily::kAx, RegWidth::k8Lo}, *v);
      break;
    }

    // --------------------------------------------------- flags and misc
    case Mnemonic::kClc: flags_.cf = false; break;
    case Mnemonic::kStc: flags_.cf = true; break;
    case Mnemonic::kCmc: flags_.cf = !flags_.cf; break;
    case Mnemonic::kCld: flags_.df = false; break;
    case Mnemonic::kStd: flags_.df = true; break;
    case Mnemonic::kSahf: {
      const std::uint64_t ah = (regs_[0] >> 8) & 0xff;
      flags_.cf = ah & 1;
      flags_.pf = ah & 4;
      flags_.zf = ah & 0x40;
      flags_.sf = ah & 0x80;
      break;
    }
    case Mnemonic::kLahf: {
      const std::uint64_t ah = (flags_.cf ? 1u : 0) | 2u | (flags_.pf ? 4u : 0) |
                               (flags_.zf ? 0x40u : 0) | (flags_.sf ? 0x80u : 0);
      write_reg(Reg{RegFamily::kAx, RegWidth::k8Hi}, ah);
      break;
    }
    case Mnemonic::kSalc:
      write_reg(Reg{RegFamily::kAx, RegWidth::k8Lo}, flags_.cf ? 0xff : 0);
      break;
    case Mnemonic::kSetcc:
      write_operand(op0, 8, cond_holds(insn.cond) ? 1 : 0);
      break;
    case Mnemonic::kCmov: {
      auto v = read_operand(op1, op_bits(insn, op1));
      if (!v) return;
      if (cond_holds(insn.cond)) write_operand(op0, op_bits(insn, op0), *v);
      break;
    }
    case Mnemonic::kBswap: {
      const unsigned bits = op_bits(insn, op0);
      auto v = read_operand(op0, bits);
      if (!v) return;
      std::uint64_t r = 0;
      for (unsigned i = 0; i < bits / 8; ++i) r = (r << 8) | ((*v >> (8 * i)) & 0xff);
      write_operand(op0, bits, r);
      break;
    }
    case Mnemonic::kXadd: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      auto b = read_operand(op1, bits);
      if (!a || !b) return;
      const AddResult r = add_with_carry(*a, *b, false, bits);
      set_add_flags(*a, *b, r.value, r.carry, bits);
      if (!write_operand(op1, bits, *a)) return;
      write_operand(op0, bits, r.value);
      break;
    }
    case Mnemonic::kCmpxchg: {
      const unsigned bits = op_bits(insn, op0);
      auto dst = read_operand(op0, bits);
      auto src = read_operand(op1, bits);
      if (!dst || !src) return;
      const std::uint64_t acc = regs_[0] & mask_of(bits);
      set_sub_flags(acc, *dst, bits);
      if (acc == (*dst & mask_of(bits))) {
        write_operand(op0, bits, *src);
      } else {
        write_reg(Reg{RegFamily::kAx,
                      bits == 8    ? RegWidth::k8Lo
                      : bits == 16 ? RegWidth::k16
                      : bits == 64 ? RegWidth::k64
                                   : RegWidth::k32},
                  *dst);
      }
      break;
    }

    // BCD adjustments: executed as no-ops (sled filler only; the decoders
    // initialize their registers afterwards).
    case Mnemonic::kDaa:
    case Mnemonic::kDas:
    case Mnemonic::kAaa:
    case Mnemonic::kAas:
    case Mnemonic::kNop:
    case Mnemonic::kWait:
    case Mnemonic::kCli:
    case Mnemonic::kSti:
      break;

    // Benign reads of machine state: zeroed.
    case Mnemonic::kCpuid:
      regs_[0] = regs_[1] = regs_[2] = regs_[3] = 0;
      break;
    case Mnemonic::kRdtsc:
      regs_[static_cast<unsigned>(RegFamily::kAx)] = 0;
      regs_[static_cast<unsigned>(RegFamily::kDx)] = 0;
      break;
    case Mnemonic::kIn:
      write_reg(Reg{RegFamily::kAx, insn.op_width}, 0);
      break;
    case Mnemonic::kOut:
      break;

    case Mnemonic::kBt:
    case Mnemonic::kBts:
    case Mnemonic::kBtr:
    case Mnemonic::kBtc:
    case Mnemonic::kBsf:
    case Mnemonic::kBsr: {
      const unsigned bits = op_bits(insn, op0);
      auto a = read_operand(op0, bits);
      auto b = read_operand(op1, bits);
      if (!a || !b) return;
      switch (insn.mnemonic) {
        case Mnemonic::kBsf:
          if (*b) {
            write_operand(op0, bits, static_cast<std::uint64_t>(std::countr_zero(*b)));
          }
          flags_.zf = *b == 0;
          break;
        case Mnemonic::kBsr:
          if (*b) {
            write_operand(op0, bits,
                          63u - static_cast<std::uint64_t>(std::countl_zero(*b)));
          }
          flags_.zf = *b == 0;
          break;
        default: {
          const unsigned idx = *b & (bits - 1);
          flags_.cf = (*a >> idx) & 1;
          std::uint64_t x = *a;
          if (insn.mnemonic == Mnemonic::kBts) x |= (1ull << idx);
          if (insn.mnemonic == Mnemonic::kBtr) x &= ~(1ull << idx);
          if (insn.mnemonic == Mnemonic::kBtc) x ^= (1ull << idx);
          if (insn.mnemonic != Mnemonic::kBt) write_operand(op0, bits, x);
          break;
        }
      }
      break;
    }

    case Mnemonic::kFpuNop:
      last_fpu_va_ = static_cast<std::uint32_t>(eip_);
      break;
    case Mnemonic::kFnstenv: {
      // Write the 28-byte environment: zeros except FIP at +12.
      const std::uint64_t base = mem_addr(op0.mem());
      for (std::uint32_t i = 0; i < 28; i += 4) {
        if (!store(base + i, 32, i == 12 ? last_fpu_va_ : 0)) return;
      }
      break;
    }

    case Mnemonic::kHlt:
    case Mnemonic::kInt3:
    case Mnemonic::kInto:
      stop_ = StopReason::kHalted;
      return;

    case Mnemonic::kRetf:
    case Mnemonic::kIret:
    case Mnemonic::kInvalid:
      stop_ = StopReason::kUnsupported;
      return;
  }

  if (mode_ == Mode::k32) {
    // IA-32 registers are 32 bits wide: re-mask after direct 64-bit
    // arithmetic so wraparound semantics match real hardware.
    for (auto& r : regs_) r &= 0xffffffffull;
  }
  if (stop_ == StopReason::kRunning) eip_ = new_eip & va_mask;
}

}  // namespace senids::emu

namespace senids::arch {

std::unique_ptr<emu::Cpu> Arch::make_cpu(emu::VirtualMemory& mem,
                                         std::uint32_t entry_va) const {
  return std::make_unique<emu::Cpu>(mem, entry_va, mode_);
}

}  // namespace senids::arch
