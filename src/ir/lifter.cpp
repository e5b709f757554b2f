#include "ir/lifter.hpp"

#include <algorithm>
#include <array>

#include "arch/decoder.hpp"

namespace senids::ir {

using arch::Instruction;
using arch::Mnemonic;
using arch::Operand;
using arch::OperandKind;
using arch::Reg;
using arch::RegFamily;
using arch::RegWidth;

namespace {

/// Mutable machine state threaded through the trace.
class Machine {
 public:
  Machine(ExprArena& arena, std::vector<Event>& events) : arena(arena), events(events) {
    for (unsigned f = 0; f < 16; ++f) {
      regs_[f] = arena.mk_init(static_cast<RegFamily>(f));
    }
  }

  /// Per-instruction context: long mode selects the 64-bit stack stride
  /// and RIP-relative resolution. The symbolic register model is shared —
  /// each family's expression models its low 32 bits (the "low-32 model"),
  /// which preserves every constant the templates care about because
  /// x86-64 immediates land little-endian-first in the low dword.
  void set_insn(const Instruction& insn) {
    long_mode_ = insn.mode == arch::Mode::k64;
    cur_end_offset_ = insn.end_offset();
  }

  ExprArena& arena;
  std::vector<Event>& events;
  std::size_t approximated = 0;

  // ------------------------------------------------------------ registers

  [[nodiscard]] ExprPtr reg_full(RegFamily f) const { return regs_[static_cast<unsigned>(f)]; }

  [[nodiscard]] ExprPtr read_reg(Reg r) const {
    ExprPtr full = reg_full(r.family);
    switch (r.width) {
      case RegWidth::k64:  // low-32 model: the family expression IS the value
      case RegWidth::k32:
        return full;
      case RegWidth::k16:
        return arena.mk_bin(BinOp::kAnd, full, arena.mk_const(0xffff));
      case RegWidth::k8Lo:
        return arena.mk_bin(BinOp::kAnd, full, arena.mk_const(0xff));
      case RegWidth::k8Hi:
        return arena.mk_bin(BinOp::kAnd,
                            arena.mk_bin(BinOp::kShr, full, arena.mk_const(8)),
                            arena.mk_const(0xff));
    }
    return full;
  }

  void write_reg(Reg r, ExprPtr val, const Instruction& insn, std::size_t idx) {
    ExprPtr full = reg_full(r.family);
    ExprPtr merged = nullptr;
    switch (r.width) {
      // A 32-bit write zero-extends to 64 on x86-64, so both full widths
      // replace the family expression outright under the low-32 model.
      case RegWidth::k64:
      case RegWidth::k32:
        merged = val;
        break;
      case RegWidth::k16:
        merged = arena.mk_bin(
            BinOp::kOr, arena.mk_bin(BinOp::kAnd, full, arena.mk_const(0xffff0000u)),
            arena.mk_bin(BinOp::kAnd, val, arena.mk_const(0xffff)));
        break;
      case RegWidth::k8Lo:
        merged = arena.mk_bin(
            BinOp::kOr, arena.mk_bin(BinOp::kAnd, full, arena.mk_const(0xffffff00u)),
            arena.mk_bin(BinOp::kAnd, val, arena.mk_const(0xff)));
        break;
      case RegWidth::k8Hi:
        merged = arena.mk_bin(
            BinOp::kOr, arena.mk_bin(BinOp::kAnd, full, arena.mk_const(0xffff00ffu)),
            arena.mk_bin(BinOp::kShl,
                         arena.mk_bin(BinOp::kAnd, val, arena.mk_const(0xff)),
                         arena.mk_const(8)));
        break;
    }
    regs_[static_cast<unsigned>(r.family)] = merged;
    Event& ev = emit(EventKind::kRegWrite, insn, idx);
    ev.reg = r.family;
    ev.value = merged;
  }

  /// Append an event of `kind` raised by trace instruction `idx`.
  Event& emit(EventKind kind, const Instruction& insn, std::size_t idx) {
    Event& ev = events.emplace_back();
    ev.kind = kind;
    ev.insn_index = static_cast<std::uint32_t>(idx);
    ev.insn_offset = static_cast<std::uint32_t>(insn.offset);
    return ev;
  }

  /// A syscall event capturing every register family.
  void syscall(std::uint16_t vector, const Instruction& insn, std::size_t idx) {
    ExprPtr* regs = arena.mk_ptrs(regs_.size());
    std::copy(regs_.begin(), regs_.end(), regs);
    Event& ev = emit(EventKind::kSyscall, insn, idx);
    ev.vector = vector;
    ev.syscall_regs = regs;
  }

  ExprPtr fresh_unknown() { return arena.mk_unknown(unknown_counter_++); }

  /// f := f + delta: pointer walks and count-downs.
  void step_reg(RegFamily f, std::uint32_t delta, const Instruction& insn,
                std::size_t idx) {
    write_reg(Reg{f, RegWidth::k32},
              arena.mk_bin(BinOp::kAdd, reg_full(f), arena.mk_const(delta)), insn, idx);
  }

  /// Offset of the most recent FPU instruction (fnstenv stores it as FIP).
  std::optional<std::size_t> last_fpu_offset;

  void clobber_reg(RegFamily f, const Instruction& insn, std::size_t idx) {
    write_reg(Reg{f, RegWidth::k32}, fresh_unknown(), insn, idx);
  }

  // --------------------------------------------------------------- memory

  [[nodiscard]] std::uint32_t generation() const {
    return static_cast<std::uint32_t>(stores_.size());
  }

  /// Split an address into (symbolic base, constant offset) for cheap
  /// no-alias proofs: base+8 and base+16 can never overlap a 4-byte write.
  static void split_addr(ExprPtr e, ExprPtr& base, std::int64_t& off) {
    if (e->kind == ExprKind::kConst) {
      base = nullptr;
      off = e->cval;
    } else if (e->kind == ExprKind::kBin && e->bop == BinOp::kAdd &&
               e->rhs->kind == ExprKind::kConst) {
      base = e->lhs;
      off = static_cast<std::int32_t>(e->rhs->cval);
    } else {
      base = e;
      off = 0;
    }
  }

  static bool provably_distinct(ExprPtr a, unsigned wa, ExprPtr b, unsigned wb) {
    ExprPtr ba = nullptr, bb = nullptr;
    std::int64_t oa, ob;
    split_addr(a, ba, oa);
    split_addr(b, bb, ob);
    const bool same_base = (!ba && !bb) || (ba && bb && struct_eq(ba, bb));
    if (!same_base) return false;  // unknown relationship
    // Disjoint byte ranges [oa, oa+wa/8) and [ob, ob+wb/8)?
    return oa + static_cast<std::int64_t>(wa / 8) <= ob ||
           ob + static_cast<std::int64_t>(wb / 8) <= oa;
  }

  ExprPtr load(ExprPtr addr, unsigned width) {
    // Forward the newest store to a structurally identical address,
    // skipping stores provably disjoint from this load; stop at the first
    // store that may alias.
    for (auto it = stores_.rbegin(); it != stores_.rend(); ++it) {
      const Event& st = events[*it];
      if (st.width == width && struct_eq(st.addr, addr)) return st.value;
      if (provably_distinct(addr, width, st.addr, st.width)) continue;
      break;
    }
    return arena.mk_load(addr, width, generation());
  }

  void store(ExprPtr addr, unsigned width, ExprPtr value, const Instruction& insn,
             std::size_t idx) {
    stores_.push_back(static_cast<std::uint32_t>(events.size()));
    Event& ev = emit(EventKind::kMemWrite, insn, idx);
    ev.addr = addr;
    ev.width = static_cast<std::uint8_t>(width);
    ev.value = value;
  }

  // ------------------------------------------------------------- operands

  [[nodiscard]] ExprPtr mem_addr(const arch::MemRef& m) const {
    if (m.rip) {
      // RIP-relative: a known in-buffer constant, same transparency as the
      // call/pop GetPC constant.
      return arena.mk_const(static_cast<std::uint32_t>(cur_end_offset_ + m.disp));
    }
    ExprPtr e = nullptr;
    if (m.has_base()) e = reg_full(m.base.family);
    if (m.has_index()) {
      ExprPtr idx = reg_full(m.index.family);
      if (m.scale != 1) idx = arena.mk_bin(BinOp::kMul, idx, arena.mk_const(m.scale));
      e = e ? arena.mk_bin(BinOp::kAdd, e, idx) : idx;
    }
    if (m.disp != 0 || !e) {
      ExprPtr d = arena.mk_const(static_cast<std::uint32_t>(m.disp));
      e = e ? arena.mk_bin(BinOp::kAdd, e, d) : d;
    }
    return e;
  }

  static unsigned width_bits_of(RegWidth w) {
    return w == RegWidth::k64   ? 64
           : w == RegWidth::k32 ? 32
           : w == RegWidth::k16 ? 16
                                : 8;
  }

  ExprPtr read_operand(const Operand& op) {
    switch (op.kind) {
      case OperandKind::kReg:
        return read_reg(op.reg);
      case OperandKind::kImm:
      case OperandKind::kRel:
        return arena.mk_const(static_cast<std::uint32_t>(op.imm()));
      case OperandKind::kMem:
        return load(mem_addr(op.mem()), width_bits_of(op.mem().width));
      case OperandKind::kNone:
        return arena.mk_const(0);
    }
    return arena.mk_const(0);
  }

  void write_operand(const Operand& op, ExprPtr val, const Instruction& insn,
                     std::size_t idx) {
    if (op.kind == OperandKind::kReg) {
      write_reg(op.reg, val, insn, idx);
    } else if (op.kind == OperandKind::kMem) {
      store(mem_addr(op.mem()), width_bits_of(op.mem().width), val, insn, idx);
    }
  }

  // ---------------------------------------------------------------- stack

  void push_value(ExprPtr val, const Instruction& insn, std::size_t idx) {
    const std::uint32_t stride = long_mode_ ? 0xfffffff8u : 0xfffffffcu;
    ExprPtr esp =
        arena.mk_bin(BinOp::kAdd, reg_full(RegFamily::kSp), arena.mk_const(stride));
    regs_[static_cast<unsigned>(RegFamily::kSp)] = esp;
    store(esp, long_mode_ ? 64 : 32, val, insn, idx);
  }

  ExprPtr pop_value() {
    ExprPtr esp = reg_full(RegFamily::kSp);
    ExprPtr val = load(esp, long_mode_ ? 64 : 32);
    regs_[static_cast<unsigned>(RegFamily::kSp)] =
        arena.mk_bin(BinOp::kAdd, esp, arena.mk_const(long_mode_ ? 8 : 4));
    return val;
  }

 private:
  std::array<ExprPtr, 16> regs_;
  std::vector<std::uint32_t> stores_;  // index in `events` of every store
  std::uint32_t unknown_counter_ = 0;
  bool long_mode_ = false;
  std::size_t cur_end_offset_ = 0;
};

/// ALU mnemonic -> expression operator (nullopt for unmodeled ones).
std::optional<BinOp> alu_op(Mnemonic m) {
  switch (m) {
    case Mnemonic::kAdd: return BinOp::kAdd;
    case Mnemonic::kSub: return BinOp::kSub;
    case Mnemonic::kXor: return BinOp::kXor;
    case Mnemonic::kOr: return BinOp::kOr;
    case Mnemonic::kAnd: return BinOp::kAnd;
    case Mnemonic::kShl: return BinOp::kShl;
    case Mnemonic::kShr: return BinOp::kShr;
    case Mnemonic::kSar: return BinOp::kSar;
    case Mnemonic::kRol: return BinOp::kRol;
    case Mnemonic::kRor: return BinOp::kRor;
    default: return std::nullopt;
  }
}

/// Does `trace[idx]`'s branch target `target` close a loop: is it one of
/// the kMaxLoopInsns instructions traced before it?
bool closes_loop(const std::vector<Instruction>& trace, std::size_t idx, std::size_t target) {
  const std::size_t first = idx > kMaxLoopInsns ? idx - kMaxLoopInsns : 0;
  for (std::size_t j = idx; j-- > first;) {
    if (trace[j].offset == target) return true;
  }
  return false;
}

void emit_branch(Machine& m, const std::vector<Instruction>& trace, std::size_t idx,
                 bool conditional, bool is_call = false) {
  const Instruction& insn = trace[idx];
  Event& ev = m.emit(EventKind::kBranch, insn, idx);
  ev.conditional = conditional;
  ev.is_call = is_call;
  if (auto target = insn.branch_target()) {
    ev.target = static_cast<std::uint32_t>(*target);
    ev.backward = *target <= insn.offset;
    ev.loops_back = conditional && closes_loop(trace, idx, *target);
  }
}

}  // namespace

void lift(const std::vector<Instruction>& trace, LiftResult& out) {
  ExprArena& arena = out.arena;
  arena.reset();
  out.events.clear();
  Machine m(arena, out.events);

  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const Instruction& insn = trace[idx];
    const auto& ops = insn.ops;
    m.set_insn(insn);

    if (auto op = alu_op(insn.mnemonic)) {
      ExprPtr res = arena.mk_bin(*op, m.read_operand(ops[0]), m.read_operand(ops[1]));
      m.write_operand(ops[0], res, insn, idx);
      continue;
    }

    switch (insn.mnemonic) {
      case Mnemonic::kMov:
      case Mnemonic::kMovzx:
        // Sub-register reads are already zero-extended, so movzx is mov.
        m.write_operand(ops[0], m.read_operand(ops[1]), insn, idx);
        break;

      case Mnemonic::kMovsx:
        // Sign extension is representable but never load-bearing for our
        // templates; approximate.
        m.read_operand(ops[1]);
        m.write_operand(ops[0], m.fresh_unknown(), insn, idx);
        ++m.approximated;
        break;

      case Mnemonic::kLea:
        m.write_operand(ops[0], m.mem_addr(ops[1].mem()), insn, idx);
        break;

      case Mnemonic::kXchg: {
        ExprPtr a = m.read_operand(ops[0]);
        ExprPtr b = m.read_operand(ops[1]);
        m.write_operand(ops[0], b, insn, idx);
        m.write_operand(ops[1], a, insn, idx);
        break;
      }

      case Mnemonic::kInc:
        m.write_operand(ops[0],
                        arena.mk_bin(BinOp::kAdd, m.read_operand(ops[0]), arena.mk_const(1)),
                        insn, idx);
        break;
      case Mnemonic::kDec:
        m.write_operand(ops[0],
                        arena.mk_bin(BinOp::kAdd, m.read_operand(ops[0]),
                                     arena.mk_const(0xffffffffu)),
                        insn, idx);
        break;

      case Mnemonic::kNot:
        m.write_operand(ops[0], arena.mk_un(UnOp::kNot, m.read_operand(ops[0])), insn, idx);
        break;
      case Mnemonic::kNeg:
        m.write_operand(ops[0], arena.mk_un(UnOp::kNeg, m.read_operand(ops[0])), insn, idx);
        break;

      case Mnemonic::kImul:
        if (ops[2].kind != OperandKind::kNone) {
          m.write_operand(ops[0],
                          arena.mk_bin(BinOp::kMul, m.read_operand(ops[1]),
                                       m.read_operand(ops[2])),
                          insn, idx);
        } else if (ops[1].kind != OperandKind::kNone) {
          m.write_operand(ops[0],
                          arena.mk_bin(BinOp::kMul, m.read_operand(ops[0]),
                                       m.read_operand(ops[1])),
                          insn, idx);
        } else {
          m.clobber_reg(RegFamily::kAx, insn, idx);
          m.clobber_reg(RegFamily::kDx, insn, idx);
          ++m.approximated;
        }
        break;

      case Mnemonic::kMul:
      case Mnemonic::kDiv:
      case Mnemonic::kIdiv:
        m.clobber_reg(RegFamily::kAx, insn, idx);
        m.clobber_reg(RegFamily::kDx, insn, idx);
        ++m.approximated;
        break;

      case Mnemonic::kAdc:
      case Mnemonic::kSbb:
      case Mnemonic::kRcl:
      case Mnemonic::kRcr:
        // Carry-flag dependent: value unknown but the write is modeled.
        m.read_operand(ops[1]);
        m.write_operand(ops[0], m.fresh_unknown(), insn, idx);
        ++m.approximated;
        break;

      case Mnemonic::kCwde:
        m.clobber_reg(RegFamily::kAx, insn, idx);
        ++m.approximated;
        break;
      case Mnemonic::kCdq:
        m.clobber_reg(RegFamily::kDx, insn, idx);
        break;

      case Mnemonic::kPush:
        if (ops[0].kind == OperandKind::kNone) {
          m.push_value(m.fresh_unknown(), insn, idx);  // push seg-reg form
        } else {
          m.push_value(m.read_operand(ops[0]), insn, idx);
        }
        break;
      case Mnemonic::kPop: {
        ExprPtr v = m.pop_value();
        if (ops[0].kind != OperandKind::kNone) {
          m.write_operand(ops[0], v, insn, idx);
        }
        break;
      }
      case Mnemonic::kPushf:
        m.push_value(m.fresh_unknown(), insn, idx);
        break;
      case Mnemonic::kPopf:
        m.pop_value();
        break;
      case Mnemonic::kPusha:
        for (unsigned f = 0; f < 8; ++f) {
          m.push_value(m.reg_full(static_cast<RegFamily>(f)), insn, idx);
        }
        break;
      case Mnemonic::kPopa:
        for (unsigned f = 0; f < 8; ++f) {
          ExprPtr v = m.pop_value();
          RegFamily fam = static_cast<RegFamily>(7 - f);
          if (fam == RegFamily::kSp) continue;  // popa discards the saved esp
          m.write_reg(Reg{fam, RegWidth::k32}, v, insn, idx);
        }
        break;

      case Mnemonic::kLeave: {
        // mov esp, ebp ; pop ebp
        m.write_reg(Reg{RegFamily::kSp, RegWidth::k32}, m.reg_full(RegFamily::kBp), insn,
                    idx);
        ExprPtr v = m.pop_value();
        m.write_reg(Reg{RegFamily::kBp, RegWidth::k32}, v, insn, idx);
        break;
      }
      case Mnemonic::kEnter:
        m.push_value(m.reg_full(RegFamily::kBp), insn, idx);
        m.write_reg(Reg{RegFamily::kBp, RegWidth::k32}, m.reg_full(RegFamily::kSp), insn,
                    idx);
        m.clobber_reg(RegFamily::kSp, insn, idx);
        ++m.approximated;
        break;

      case Mnemonic::kCall:
        // The pushed return address is a known in-buffer constant: this is
        // precisely what makes jmp/call/pop GetPC sequences transparent to
        // the matcher (the pop receives a constant buffer offset).
        m.push_value(arena.mk_const(static_cast<std::uint32_t>(insn.end_offset())), insn,
                     idx);
        emit_branch(m, trace, idx, /*conditional=*/false, /*is_call=*/true);
        break;

      case Mnemonic::kRet:
      case Mnemonic::kRetf:
      case Mnemonic::kIret:
        m.pop_value();
        emit_branch(m, trace, idx, /*conditional=*/false);
        break;

      case Mnemonic::kJmp:
        emit_branch(m, trace, idx, /*conditional=*/false);
        break;
      case Mnemonic::kJcc:
      case Mnemonic::kJecxz:
        emit_branch(m, trace, idx, /*conditional=*/true);
        break;

      case Mnemonic::kLoop:
      case Mnemonic::kLoope:
      case Mnemonic::kLoopne:
        m.step_reg(RegFamily::kCx, 0xffffffffu, insn, idx);
        emit_branch(m, trace, idx, /*conditional=*/true);
        break;

      case Mnemonic::kInt:
        m.syscall(static_cast<std::uint8_t>(ops[0].imm()), insn, idx);
        // Linux convention: the kernel returns in eax.
        m.clobber_reg(RegFamily::kAx, insn, idx);
        break;

      case Mnemonic::kSyscall: {
        // x86-64 `syscall`: same event shape as int 0x80, distinguished by
        // the out-of-range vector so 32-bit templates can never match it.
        m.syscall(kSyscallVector, insn, idx);
        // Return value in rax; the instruction itself clobbers rcx (return
        // RIP) and r11 (saved rflags).
        m.clobber_reg(RegFamily::kAx, insn, idx);
        m.clobber_reg(RegFamily::kCx, insn, idx);
        m.clobber_reg(RegFamily::kR11, insn, idx);
        break;
      }

      // ------------------------------------------------------ string ops
      case Mnemonic::kStos: {
        const unsigned w = Machine::width_bits_of(insn.op_width);
        ExprPtr val = m.read_reg(Reg{RegFamily::kAx, insn.op_width});
        m.store(m.reg_full(RegFamily::kDi), w, val, insn, idx);
        m.step_reg(RegFamily::kDi, w / 8, insn, idx);
        if (insn.prefixes.has(arch::Prefixes::kRep | arch::Prefixes::kRepne)) {
          m.clobber_reg(RegFamily::kDi, insn, idx);
          m.clobber_reg(RegFamily::kCx, insn, idx);
          ++m.approximated;
        }
        break;
      }
      case Mnemonic::kLods: {
        const unsigned w = Machine::width_bits_of(insn.op_width);
        ExprPtr val = m.load(m.reg_full(RegFamily::kSi), w);
        m.write_reg(Reg{RegFamily::kAx,
                        insn.op_width == RegWidth::k32 ? RegWidth::k32
                        : insn.op_width == RegWidth::k16 ? RegWidth::k16 : RegWidth::k8Lo},
                    val, insn, idx);
        m.step_reg(RegFamily::kSi, w / 8, insn, idx);
        break;
      }
      case Mnemonic::kMovs: {
        const unsigned w = Machine::width_bits_of(insn.op_width);
        ExprPtr val = m.load(m.reg_full(RegFamily::kSi), w);
        m.store(m.reg_full(RegFamily::kDi), w, val, insn, idx);
        m.step_reg(RegFamily::kSi, w / 8, insn, idx);
        m.step_reg(RegFamily::kDi, w / 8, insn, idx);
        break;
      }
      case Mnemonic::kScas:
      case Mnemonic::kCmps: {
        const unsigned w = Machine::width_bits_of(insn.op_width);
        if (insn.mnemonic == Mnemonic::kCmps) {
          m.step_reg(RegFamily::kSi, w / 8, insn, idx);
        }
        m.step_reg(RegFamily::kDi, w / 8, insn, idx);
        break;
      }

      case Mnemonic::kXlat: {
        ExprPtr addr = arena.mk_bin(BinOp::kAdd, m.reg_full(RegFamily::kBx),
                              m.read_reg(Reg{RegFamily::kAx, RegWidth::k8Lo}));
        m.write_reg(Reg{RegFamily::kAx, RegWidth::k8Lo}, m.load(addr, 8), insn, idx);
        break;
      }

      case Mnemonic::kSetcc:
      case Mnemonic::kSalc:
      case Mnemonic::kLahf:
        if (insn.mnemonic == Mnemonic::kSetcc) {
          m.write_operand(ops[0], m.fresh_unknown(), insn, idx);
        } else {
          m.write_reg(Reg{RegFamily::kAx,
                          insn.mnemonic == Mnemonic::kLahf ? RegWidth::k8Hi : RegWidth::k8Lo},
                      m.fresh_unknown(), insn, idx);
        }
        ++m.approximated;
        break;

      case Mnemonic::kCmov:
      case Mnemonic::kBswap:
      case Mnemonic::kShld:
      case Mnemonic::kShrd:
      case Mnemonic::kBts:
      case Mnemonic::kBtr:
      case Mnemonic::kBtc:
      case Mnemonic::kBsf:
      case Mnemonic::kBsr:
      case Mnemonic::kCmpxchg:
      case Mnemonic::kXadd:
        m.write_operand(ops[0], m.fresh_unknown(), insn, idx);
        ++m.approximated;
        break;

      case Mnemonic::kAaa:
      case Mnemonic::kAas:
      case Mnemonic::kDaa:
      case Mnemonic::kDas:
        m.write_reg(Reg{RegFamily::kAx, RegWidth::k16}, m.fresh_unknown(), insn, idx);
        ++m.approximated;
        break;

      case Mnemonic::kCpuid:
        m.clobber_reg(RegFamily::kAx, insn, idx);
        m.clobber_reg(RegFamily::kBx, insn, idx);
        m.clobber_reg(RegFamily::kCx, insn, idx);
        m.clobber_reg(RegFamily::kDx, insn, idx);
        ++m.approximated;
        break;
      case Mnemonic::kRdtsc:
        m.clobber_reg(RegFamily::kAx, insn, idx);
        m.clobber_reg(RegFamily::kDx, insn, idx);
        ++m.approximated;
        break;
      case Mnemonic::kIn:
        m.clobber_reg(RegFamily::kAx, insn, idx);
        ++m.approximated;
        break;

      case Mnemonic::kFpuNop:
        m.last_fpu_offset = insn.offset;
        break;
      case Mnemonic::kFnstenv: {
        // The 28-byte FPU environment: the semantically load-bearing field
        // is FIP at +12 — the address of the last FPU instruction. This is
        // what makes fnstenv-GetPC decoders transparent to the matcher,
        // exactly like call/pop.
        ExprPtr base = m.mem_addr(ops[0].mem());
        ExprPtr fip = m.last_fpu_offset
                          ? arena.mk_const(static_cast<std::uint32_t>(*m.last_fpu_offset))
                          : m.fresh_unknown();
        m.store(arena.mk_bin(BinOp::kAdd, base, arena.mk_const(12)), 32, fip, insn, idx);
        break;
      }

      // Pure flag/hint instructions produce no event.
      case Mnemonic::kNop:
      case Mnemonic::kWait:
      case Mnemonic::kClc:
      case Mnemonic::kStc:
      case Mnemonic::kCmc:
      case Mnemonic::kCld:
      case Mnemonic::kStd:
      case Mnemonic::kCli:
      case Mnemonic::kSti:
      case Mnemonic::kCmp:
      case Mnemonic::kTest:
      case Mnemonic::kBt:
      case Mnemonic::kSahf:
      case Mnemonic::kOut:
      case Mnemonic::kInt3:
      case Mnemonic::kInto:
      case Mnemonic::kHlt:
      case Mnemonic::kInvalid:
        break;

      default:
        break;  // plain ALU mnemonics were dispatched via alu_op above
    }
  }

  out.approximated = m.approximated;
}

}  // namespace senids::ir
