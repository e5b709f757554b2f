#include "ir/deadcode.hpp"

namespace senids::ir {

namespace {

bool narrow(arch::RegWidth w) { return w != arch::RegWidth::k32 && w != arch::RegWidth::k64; }

/// Register families `insn` writes only in part: an 8- or 16-bit write
/// keeps the rest of its register, so the value before it stays live.
arch::RegSet partial_defs(const arch::Instruction& insn) {
  arch::RegSet partial;
  for (const arch::Operand& op : insn.ops) {
    if (op.kind == arch::OperandKind::kReg && narrow(op.reg.width)) partial.add(op.reg);
  }
  switch (insn.mnemonic) {
    // Implicit accumulator writes as wide as the operation.
    case arch::Mnemonic::kLods:
    case arch::Mnemonic::kMul:
    case arch::Mnemonic::kImul:
    case arch::Mnemonic::kDiv:
    case arch::Mnemonic::kIdiv:
    case arch::Mnemonic::kCwde:
    case arch::Mnemonic::kCdq:
      if (narrow(insn.op_width)) {
        partial.add_family(arch::RegFamily::kAx);
        partial.add_family(arch::RegFamily::kDx);
      }
      break;
    // Implicit writes of al, ah or ax.
    case arch::Mnemonic::kXlat:
    case arch::Mnemonic::kSalc:
    case arch::Mnemonic::kLahf:
    case arch::Mnemonic::kIn:
    case arch::Mnemonic::kAaa:
    case arch::Mnemonic::kAas:
    case arch::Mnemonic::kDaa:
    case arch::Mnemonic::kDas:
      partial.add_family(arch::RegFamily::kAx);
      break;
    default:
      break;
  }
  return partial;
}

}  // namespace

DeadCodeResult find_dead_code(const std::vector<arch::Instruction>& trace,
                              arch::RegSet exit_live) {
  DeadCodeResult result;
  result.dead.assign(trace.size(), false);

  arch::RegSet live = exit_live;
  bool flags_live = false;

  for (std::size_t i = trace.size(); i-- > 0;) {
    const arch::DefUse du = arch::def_use(trace[i]);

    const bool observable =
        du.side_effect || du.mem_write || du.defs.intersects(live) ||
        (du.flags_def && flags_live);
    // Pure reads (cmp/test with no live consumer) are also dead, but only
    // when their flags result is unused.
    const bool defines_anything = !du.defs.empty() || du.flags_def || du.mem_write;

    if (!observable && defines_anything) {
      result.dead[i] = true;
      ++result.dead_count;
      continue;  // a dead instruction contributes no uses
    }

    // Backward transfer: full-width defs kill liveness, uses generate it.
    const arch::RegSet partial = partial_defs(trace[i]);
    arch::RegSet next_live;
    for (unsigned f = 0; f < static_cast<unsigned>(arch::RegFamily::kNone); ++f) {
      const auto fam = static_cast<arch::RegFamily>(f);
      if (live.contains_family(fam) &&
          (!du.defs.contains_family(fam) || partial.contains_family(fam))) {
        next_live.add_family(fam);
      }
    }
    next_live |= du.uses;
    live = next_live;
    if (du.flags_def) flags_live = false;
    if (du.flags_use) flags_live = true;
  }
  return result;
}

}  // namespace senids::ir
