#include "arch/defuse.hpp"

namespace senids::arch {

std::string RegSet::str() const {
  static constexpr std::string_view kNames[] = {
      "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
      "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15"};
  std::string out;
  for (unsigned i = 0; i < 16; ++i) {
    if (bits_ & (1u << i)) {
      if (!out.empty()) out.push_back(',');
      out += kNames[i];
    }
  }
  return out;
}

namespace {

/// Fold a memory operand's address registers into `uses` and record the
/// access direction.
void touch_mem(const Operand& op, bool is_write, DefUse& du) noexcept {
  if (op.kind != OperandKind::kMem) return;
  const MemRef& m = op.mem();
  if (m.has_base()) du.uses.add(m.base);
  if (m.has_index()) du.uses.add(m.index);
  (is_write ? du.mem_write : du.mem_read) = true;
}

/// Destination operand that is both read and written (add, xor, ...).
void rmw_dst(const Operand& op, DefUse& du) noexcept {
  if (op.kind == OperandKind::kReg) {
    du.defs.add(op.reg);
    du.uses.add(op.reg);
  } else if (op.kind == OperandKind::kMem) {
    touch_mem(op, /*is_write=*/true, du);
    du.mem_read = true;
  }
}

/// Destination operand that is written only (mov, lea, setcc...).
void write_dst(const Operand& op, DefUse& du) noexcept {
  if (op.kind == OperandKind::kReg) {
    du.defs.add(op.reg);
  } else if (op.kind == OperandKind::kMem) {
    touch_mem(op, /*is_write=*/true, du);
  }
}

/// Source operand (read only).
void read_src(const Operand& op, DefUse& du) noexcept {
  if (op.kind == OperandKind::kReg) {
    du.uses.add(op.reg);
  } else if (op.kind == OperandKind::kMem) {
    touch_mem(op, /*is_write=*/false, du);
  }
}

void use_stack(DefUse& du) noexcept {
  du.defs.add_family(RegFamily::kSp);
  du.uses.add_family(RegFamily::kSp);
}

}  // namespace

DefUse def_use(const Instruction& insn) noexcept {
  DefUse du;
  const auto& ops = insn.ops;

  switch (insn.mnemonic) {
    case Mnemonic::kMov:
    case Mnemonic::kMovzx:
    case Mnemonic::kMovsx:
      write_dst(ops[0], du);
      read_src(ops[1], du);
      break;

    case Mnemonic::kCmov:
      // Conditionally writes: destination counts as def AND use.
      rmw_dst(ops[0], du);
      read_src(ops[1], du);
      du.flags_use = true;
      break;

    case Mnemonic::kLea:
      // Address computation only: the memory operand's registers are read
      // but memory itself is untouched.
      write_dst(ops[0], du);
      if (ops[1].kind == OperandKind::kMem) {
        const MemRef& m = ops[1].mem();
        if (m.has_base()) du.uses.add(m.base);
        if (m.has_index()) du.uses.add(m.index);
      }
      break;

    case Mnemonic::kXchg:
    case Mnemonic::kXadd:
      rmw_dst(ops[0], du);
      rmw_dst(ops[1], du);
      if (insn.mnemonic == Mnemonic::kXadd) du.flags_def = true;
      break;

    case Mnemonic::kAdd:
    case Mnemonic::kAdc:
    case Mnemonic::kSub:
    case Mnemonic::kSbb:
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor:
      rmw_dst(ops[0], du);
      read_src(ops[1], du);
      du.flags_def = true;
      if (insn.mnemonic == Mnemonic::kAdc || insn.mnemonic == Mnemonic::kSbb)
        du.flags_use = true;
      break;

    case Mnemonic::kCmp:
    case Mnemonic::kTest:
      read_src(ops[0], du);
      read_src(ops[1], du);
      du.flags_def = true;
      break;

    case Mnemonic::kInc:
    case Mnemonic::kDec:
    case Mnemonic::kNot:
    case Mnemonic::kNeg:
      rmw_dst(ops[0], du);
      if (insn.mnemonic != Mnemonic::kNot) du.flags_def = true;
      break;

    case Mnemonic::kBswap:
      // No flags: a phantom flags_def here made bswap look like a flag
      // kill, letting dead-code elimination delete a live comparison
      // above it (caught by verify::verify_decoder_tables).
      rmw_dst(ops[0], du);
      break;

    case Mnemonic::kShl:
    case Mnemonic::kShr:
    case Mnemonic::kSar:
    case Mnemonic::kRol:
    case Mnemonic::kRor:
    case Mnemonic::kRcl:
    case Mnemonic::kRcr:
      rmw_dst(ops[0], du);
      read_src(ops[1], du);
      du.flags_def = true;
      if (insn.mnemonic == Mnemonic::kRcl || insn.mnemonic == Mnemonic::kRcr)
        du.flags_use = true;
      break;

    case Mnemonic::kShld:
    case Mnemonic::kShrd:
      rmw_dst(ops[0], du);
      read_src(ops[1], du);
      read_src(ops[2], du);
      du.flags_def = true;
      break;

    case Mnemonic::kBt:
      read_src(ops[0], du);
      read_src(ops[1], du);
      du.flags_def = true;
      break;
    case Mnemonic::kBts:
    case Mnemonic::kBtr:
    case Mnemonic::kBtc:
      rmw_dst(ops[0], du);
      read_src(ops[1], du);
      du.flags_def = true;
      break;
    case Mnemonic::kBsf:
    case Mnemonic::kBsr:
      write_dst(ops[0], du);
      read_src(ops[1], du);
      du.flags_def = true;
      break;

    case Mnemonic::kImul:
      if (ops[1].kind == OperandKind::kNone) {
        // One-operand form: edx:eax = eax * rm.
        read_src(ops[0], du);
        du.defs.add_family(RegFamily::kAx);
        du.defs.add_family(RegFamily::kDx);
        du.uses.add_family(RegFamily::kAx);
      } else {
        write_dst(ops[0], du);
        read_src(ops[1], du);
        if (ops[2].kind != OperandKind::kNone) read_src(ops[2], du);
        else du.uses.add(ops[0].reg);  // two-operand form is read-modify-write
      }
      du.flags_def = true;
      break;

    case Mnemonic::kMul:
    case Mnemonic::kDiv:
    case Mnemonic::kIdiv:
      read_src(ops[0], du);
      du.defs.add_family(RegFamily::kAx);
      du.defs.add_family(RegFamily::kDx);
      du.uses.add_family(RegFamily::kAx);
      du.uses.add_family(RegFamily::kDx);
      du.flags_def = true;
      break;

    case Mnemonic::kCwde:
      du.defs.add_family(RegFamily::kAx);
      du.uses.add_family(RegFamily::kAx);
      break;
    case Mnemonic::kCdq:
      du.defs.add_family(RegFamily::kDx);
      du.uses.add_family(RegFamily::kAx);
      break;

    case Mnemonic::kPush:
      read_src(ops[0], du);
      use_stack(du);
      du.mem_write = true;
      break;
    case Mnemonic::kPop:
      write_dst(ops[0], du);
      use_stack(du);
      du.mem_read = true;
      break;
    case Mnemonic::kPushf:
      use_stack(du);
      du.mem_write = true;
      du.flags_use = true;
      break;
    case Mnemonic::kPopf:
      use_stack(du);
      du.mem_read = true;
      du.flags_def = true;
      break;
    case Mnemonic::kPusha:
      du.uses = RegSet::all();
      use_stack(du);
      du.mem_write = true;
      break;
    case Mnemonic::kPopa:
      du.defs = RegSet::all();
      use_stack(du);
      du.mem_read = true;
      break;

    case Mnemonic::kEnter:
    case Mnemonic::kLeave:
      du.defs.add_family(RegFamily::kBp);
      du.uses.add_family(RegFamily::kBp);
      use_stack(du);
      du.mem_read = insn.mnemonic == Mnemonic::kLeave;
      du.mem_write = insn.mnemonic == Mnemonic::kEnter;
      break;

    case Mnemonic::kCall:
      read_src(ops[0], du);
      use_stack(du);
      du.mem_write = true;
      du.side_effect = true;
      break;
    case Mnemonic::kRet:
    case Mnemonic::kRetf:
    case Mnemonic::kIret:
      use_stack(du);
      du.mem_read = true;
      du.side_effect = true;
      break;

    case Mnemonic::kJmp:
      read_src(ops[0], du);
      du.side_effect = true;
      break;
    case Mnemonic::kJcc:
      du.flags_use = true;
      du.side_effect = true;
      break;
    case Mnemonic::kJecxz:
      du.uses.add_family(RegFamily::kCx);
      du.side_effect = true;
      break;
    case Mnemonic::kLoop:
      du.uses.add_family(RegFamily::kCx);
      du.defs.add_family(RegFamily::kCx);
      du.side_effect = true;
      break;
    case Mnemonic::kLoope:
    case Mnemonic::kLoopne:
      du.uses.add_family(RegFamily::kCx);
      du.defs.add_family(RegFamily::kCx);
      du.flags_use = true;
      du.side_effect = true;
      break;

    case Mnemonic::kInt:
      // Linux int 0x80 convention: number in eax, args in ebx..ebp; result
      // in eax. Claim all GPRs read to stay conservative for other vectors.
      du.uses = RegSet::all();
      du.defs.add_family(RegFamily::kAx);
      du.side_effect = true;
      break;
    case Mnemonic::kSyscall:
      // x86-64 Linux convention: number in rax, args in rdi,rsi,rdx,r10,
      // r8,r9; clobbers rax (result), rcx (return RIP), r11 (rflags).
      du.uses = RegSet::all();
      du.defs.add_family(RegFamily::kAx);
      du.defs.add_family(RegFamily::kCx);
      du.defs.add_family(RegFamily::kR11);
      du.side_effect = true;
      break;
    case Mnemonic::kInt3:
    case Mnemonic::kHlt:
      du.side_effect = true;
      break;
    case Mnemonic::kInto:
      du.flags_use = true;  // traps on OF — the flag producer above is live
      du.side_effect = true;
      break;

    case Mnemonic::kMovs:
      du.uses.add_family(RegFamily::kSi);
      du.uses.add_family(RegFamily::kDi);
      du.defs.add_family(RegFamily::kSi);
      du.defs.add_family(RegFamily::kDi);
      du.mem_read = true;
      du.mem_write = true;
      break;
    case Mnemonic::kCmps:
      du.uses.add_family(RegFamily::kSi);
      du.uses.add_family(RegFamily::kDi);
      du.defs.add_family(RegFamily::kSi);
      du.defs.add_family(RegFamily::kDi);
      du.mem_read = true;
      du.flags_def = true;
      break;
    case Mnemonic::kStos:
      du.uses.add_family(RegFamily::kAx);
      du.uses.add_family(RegFamily::kDi);
      du.defs.add_family(RegFamily::kDi);
      du.mem_write = true;
      break;
    case Mnemonic::kLods:
      du.uses.add_family(RegFamily::kSi);
      du.defs.add_family(RegFamily::kSi);
      du.defs.add_family(RegFamily::kAx);
      du.mem_read = true;
      break;
    case Mnemonic::kScas:
      du.uses.add_family(RegFamily::kAx);
      du.uses.add_family(RegFamily::kDi);
      du.defs.add_family(RegFamily::kDi);
      du.mem_read = true;
      du.flags_def = true;
      break;

    case Mnemonic::kXlat:
      du.uses.add_family(RegFamily::kAx);
      du.uses.add_family(RegFamily::kBx);
      du.defs.add_family(RegFamily::kAx);
      du.mem_read = true;
      break;

    case Mnemonic::kSetcc:
      write_dst(ops[0], du);
      du.flags_use = true;
      break;
    case Mnemonic::kSalc:
      du.defs.add_family(RegFamily::kAx);
      du.flags_use = true;
      break;
    case Mnemonic::kLahf:
      du.defs.add_family(RegFamily::kAx);
      du.flags_use = true;
      break;
    case Mnemonic::kSahf:
      du.uses.add_family(RegFamily::kAx);
      du.flags_def = true;
      break;

    case Mnemonic::kCmpxchg:
      rmw_dst(ops[0], du);
      read_src(ops[1], du);
      du.defs.add_family(RegFamily::kAx);
      du.uses.add_family(RegFamily::kAx);
      du.flags_def = true;
      break;

    case Mnemonic::kCpuid:
      du.uses.add_family(RegFamily::kAx);
      du.uses.add_family(RegFamily::kCx);
      du.defs.add_family(RegFamily::kAx);
      du.defs.add_family(RegFamily::kBx);
      du.defs.add_family(RegFamily::kCx);
      du.defs.add_family(RegFamily::kDx);
      break;
    case Mnemonic::kRdtsc:
      du.defs.add_family(RegFamily::kAx);
      du.defs.add_family(RegFamily::kDx);
      break;

    case Mnemonic::kIn:
      du.defs.add_family(RegFamily::kAx);
      du.uses.add_family(RegFamily::kDx);
      du.side_effect = true;
      break;
    case Mnemonic::kOut:
      du.uses.add_family(RegFamily::kAx);
      du.uses.add_family(RegFamily::kDx);
      du.side_effect = true;
      break;

    case Mnemonic::kClc:
    case Mnemonic::kStc:
    case Mnemonic::kCmc:
    case Mnemonic::kCld:
    case Mnemonic::kStd:
      du.flags_def = true;
      break;
    case Mnemonic::kCli:
    case Mnemonic::kSti:
    case Mnemonic::kWait:
    case Mnemonic::kNop:
      break;

    case Mnemonic::kAaa:
    case Mnemonic::kAas:
    case Mnemonic::kDaa:
    case Mnemonic::kDas:
      du.uses.add_family(RegFamily::kAx);
      du.defs.add_family(RegFamily::kAx);
      du.flags_def = true;
      du.flags_use = true;
      break;

    case Mnemonic::kFpuNop:
      break;
    case Mnemonic::kFnstenv:
      touch_mem(ops[0], /*is_write=*/true, du);
      break;

    case Mnemonic::kInvalid:
      break;
  }

  // rep/repne string forms consume ecx as the repeat counter. Without
  // this, `mov ecx, N` ahead of `rep movs` counted as dead code — an
  // unsound deletion (caught by verify::verify_decoder_tables).
  switch (insn.mnemonic) {
    case Mnemonic::kMovs:
    case Mnemonic::kCmps:
    case Mnemonic::kStos:
    case Mnemonic::kLods:
    case Mnemonic::kScas:
      if (insn.prefixes.has(Prefixes::kRep | Prefixes::kRepne)) {
        du.uses.add_family(RegFamily::kCx);
        du.defs.add_family(RegFamily::kCx);
      }
      break;
    default:
      break;
  }
  return du;
}

}  // namespace senids::arch
