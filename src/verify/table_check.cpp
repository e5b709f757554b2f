#include "verify/table_check.hpp"

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "arch/reg.hpp"

namespace senids::verify {

namespace {

using arch::Instruction;
using arch::Mnemonic;
using arch::Operand;
using arch::OperandKind;
using arch::RegFamily;
using arch::RegSet;

const char* family_name(RegFamily f) noexcept {
  static constexpr const char* kNames[] = {"eax", "ecx", "edx", "ebx",
                                           "esp", "ebp", "esi", "edi",
                                           "r8",  "r9",  "r10", "r11",
                                           "r12", "r13", "r14", "r15"};
  const auto i = static_cast<unsigned>(f);
  return i < 16 ? kNames[i] : "?";
}

bool is_string_op(Mnemonic m) noexcept {
  switch (m) {
    case Mnemonic::kMovs:
    case Mnemonic::kCmps:
    case Mnemonic::kStos:
    case Mnemonic::kLods:
    case Mnemonic::kScas:
      return true;
    default:
      return false;
  }
}

/// Architecturally implicit register families of a mnemonic: families the
/// def/use summary may reference without a matching decoded operand.
RegSet implicit_families(const Instruction& insn) noexcept {
  RegSet s;
  switch (insn.mnemonic) {
    case Mnemonic::kPush:
    case Mnemonic::kPop:
    case Mnemonic::kPushf:
    case Mnemonic::kPopf:
    case Mnemonic::kCall:
    case Mnemonic::kRet:
    case Mnemonic::kRetf:
    case Mnemonic::kIret:
      s.add_family(RegFamily::kSp);
      break;
    case Mnemonic::kPusha:
    case Mnemonic::kPopa:
    case Mnemonic::kInt:
    case Mnemonic::kSyscall:  // reads the full convention, clobbers rcx/r11
      return RegSet::all();
    case Mnemonic::kEnter:
    case Mnemonic::kLeave:
      s.add_family(RegFamily::kSp);
      s.add_family(RegFamily::kBp);
      break;
    case Mnemonic::kMul:
    case Mnemonic::kImul:
    case Mnemonic::kDiv:
    case Mnemonic::kIdiv:
    case Mnemonic::kCwde:
    case Mnemonic::kCdq:
    case Mnemonic::kRdtsc:
      s.add_family(RegFamily::kAx);
      s.add_family(RegFamily::kDx);
      break;
    case Mnemonic::kMovs:
    case Mnemonic::kCmps:
      s.add_family(RegFamily::kSi);
      s.add_family(RegFamily::kDi);
      break;
    case Mnemonic::kStos:
    case Mnemonic::kScas:
      s.add_family(RegFamily::kAx);
      s.add_family(RegFamily::kDi);
      break;
    case Mnemonic::kLods:
      s.add_family(RegFamily::kAx);
      s.add_family(RegFamily::kSi);
      break;
    case Mnemonic::kXlat:
      s.add_family(RegFamily::kAx);
      s.add_family(RegFamily::kBx);
      break;
    case Mnemonic::kLoop:
    case Mnemonic::kLoope:
    case Mnemonic::kLoopne:
    case Mnemonic::kJecxz:
      s.add_family(RegFamily::kCx);
      break;
    case Mnemonic::kCpuid:
      s.add_family(RegFamily::kAx);
      s.add_family(RegFamily::kBx);
      s.add_family(RegFamily::kCx);
      s.add_family(RegFamily::kDx);
      break;
    case Mnemonic::kIn:
    case Mnemonic::kOut:
      s.add_family(RegFamily::kAx);
      s.add_family(RegFamily::kDx);
      break;
    case Mnemonic::kLahf:
    case Mnemonic::kSahf:
    case Mnemonic::kSalc:
    case Mnemonic::kAaa:
    case Mnemonic::kAas:
    case Mnemonic::kDaa:
    case Mnemonic::kDas:
      s.add_family(RegFamily::kAx);
      break;
    case Mnemonic::kCmpxchg:
      s.add_family(RegFamily::kAx);
      break;
    default:
      break;
  }
  // Repeated string instructions additionally count down ecx.
  if (insn.prefixes.has(arch::Prefixes::kRep | arch::Prefixes::kRepne) && is_string_op(insn.mnemonic)) {
    s.add_family(RegFamily::kCx);
  }
  return s;
}

/// Mnemonics whose operand bytes are hints only (multi-byte nop, x87
/// no-ops kept just for GetPC bookkeeping): exempt from the
/// operand-vs-summary cross-reference in both directions.
bool operands_are_hints(Mnemonic m) noexcept {
  return m == Mnemonic::kNop || m == Mnemonic::kFpuNop;
}

/// Mnemonics that read or write memory with no memory operand.
bool implicit_memory(Mnemonic m) noexcept {
  switch (m) {
    case Mnemonic::kPush:
    case Mnemonic::kPop:
    case Mnemonic::kPushf:
    case Mnemonic::kPopf:
    case Mnemonic::kPusha:
    case Mnemonic::kPopa:
    case Mnemonic::kCall:
    case Mnemonic::kRet:
    case Mnemonic::kRetf:
    case Mnemonic::kIret:
    case Mnemonic::kEnter:
    case Mnemonic::kLeave:
    case Mnemonic::kXlat:
      return true;
    default:
      return is_string_op(m);
  }
}

/// Pure data movement: architecturally leaves EFLAGS untouched. A
/// phantom flags_def here is unsound — the dead-code pass would treat it
/// as a kill and delete a live comparison above it.
bool never_defines_flags(Mnemonic m) noexcept {
  switch (m) {
    case Mnemonic::kMov:
    case Mnemonic::kMovzx:
    case Mnemonic::kMovsx:
    case Mnemonic::kLea:
    case Mnemonic::kXchg:
    case Mnemonic::kPush:
    case Mnemonic::kPop:
    case Mnemonic::kPusha:
    case Mnemonic::kPopa:
    case Mnemonic::kPushf:
    case Mnemonic::kLahf:
    case Mnemonic::kSalc:
    case Mnemonic::kSetcc:
    case Mnemonic::kCmov:
    case Mnemonic::kBswap:
    case Mnemonic::kXlat:
    case Mnemonic::kMovs:
    case Mnemonic::kStos:
    case Mnemonic::kLods:
    case Mnemonic::kNot:
    case Mnemonic::kNop:
    case Mnemonic::kCwde:
    case Mnemonic::kCdq:
    case Mnemonic::kCpuid:
    case Mnemonic::kRdtsc:
    case Mnemonic::kFpuNop:
    case Mnemonic::kFnstenv:
      return true;
    default:
      return false;
  }
}

/// Arithmetic/logic that architecturally writes EFLAGS: a missing
/// flags_def lets liveness flow through a clobber.
bool must_define_flags(Mnemonic m) noexcept {
  switch (m) {
    case Mnemonic::kAdd:
    case Mnemonic::kAdc:
    case Mnemonic::kSub:
    case Mnemonic::kSbb:
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor:
    case Mnemonic::kCmp:
    case Mnemonic::kTest:
    case Mnemonic::kInc:
    case Mnemonic::kDec:
    case Mnemonic::kNeg:
    case Mnemonic::kXadd:
    case Mnemonic::kCmpxchg:
    case Mnemonic::kMul:
    case Mnemonic::kImul:
    case Mnemonic::kBt:
    case Mnemonic::kBts:
    case Mnemonic::kBtr:
    case Mnemonic::kBtc:
    case Mnemonic::kBsf:
    case Mnemonic::kBsr:
    case Mnemonic::kShld:
    case Mnemonic::kShrd:
    case Mnemonic::kSahf:
    case Mnemonic::kPopf:
    case Mnemonic::kAaa:
    case Mnemonic::kAas:
    case Mnemonic::kDaa:
    case Mnemonic::kDas:
      return true;
    default:
      return false;
  }
}

/// Flag consumers: a missing flags_use makes the flag producer above
/// look dead.
bool must_use_flags(Mnemonic m) noexcept {
  switch (m) {
    case Mnemonic::kJcc:
    case Mnemonic::kSetcc:
    case Mnemonic::kCmov:
    case Mnemonic::kLoope:
    case Mnemonic::kLoopne:
    case Mnemonic::kAdc:
    case Mnemonic::kSbb:
    case Mnemonic::kRcl:
    case Mnemonic::kRcr:
    case Mnemonic::kPushf:
    case Mnemonic::kLahf:
    case Mnemonic::kSalc:
    case Mnemonic::kInto:
      return true;
    default:
      return false;
  }
}

/// Control transfers and I/O: never dead code.
bool must_side_effect(Mnemonic m) noexcept {
  switch (m) {
    case Mnemonic::kJmp:
    case Mnemonic::kJcc:
    case Mnemonic::kCall:
    case Mnemonic::kRet:
    case Mnemonic::kRetf:
    case Mnemonic::kIret:
    case Mnemonic::kInt:
    case Mnemonic::kInt3:
    case Mnemonic::kInto:
    case Mnemonic::kSyscall:
    case Mnemonic::kHlt:
    case Mnemonic::kLoop:
    case Mnemonic::kLoope:
    case Mnemonic::kLoopne:
    case Mnemonic::kJecxz:
    case Mnemonic::kIn:
    case Mnemonic::kOut:
      return true;
    default:
      return false;
  }
}

void each_family(RegSet s, auto&& fn) {
  for (unsigned i = 0; i < 16; ++i) {
    const auto f = static_cast<RegFamily>(i);
    if (s.contains_family(f)) fn(f);
  }
}

}  // namespace

Report check_defuse(const Instruction& insn, const arch::DefUse& du) {
  Report out;
  const std::string where{arch::mnemonic_name(insn.mnemonic)};
  if (!insn.valid()) {
    out.error(where, "invalid instruction passed to the cross-check");
    return out;
  }
  if (insn.length == 0 || insn.length > 15) {
    out.error(where, "decoded length " + std::to_string(insn.length) +
                         " outside the architectural 1..15 range");
  }

  // Operand list must be dense: a hole means the decoder and the summary
  // disagree about which slots exist.
  for (std::size_t i = 1; i < insn.ops.size(); ++i) {
    if (insn.ops[i - 1].kind == OperandKind::kNone &&
        insn.ops[i].kind != OperandKind::kNone) {
      out.error(where, "operand #" + std::to_string(i) +
                           " present after an empty operand slot");
    }
  }

  const bool hints = operands_are_hints(insn.mnemonic);

  // Families the decoded operands justify.
  RegSet operand_regs;   // register operands
  RegSet address_regs;   // memory base/index registers
  bool has_mem = false;
  for (const Operand& op : insn.ops) {
    switch (op.kind) {
      case OperandKind::kReg:
        operand_regs.add(op.reg);
        break;
      case OperandKind::kMem:
        has_mem = true;
        if (op.mem().has_base()) address_regs.add(op.mem().base);
        if (op.mem().has_index()) address_regs.add(op.mem().index);
        break;
      default:
        break;
    }
  }

  // 1. Every def/use family must reference something the decoder
  //    produced (or an architectural implicit of the mnemonic).
  RegSet justified = operand_regs;
  justified |= address_regs;
  justified |= implicit_families(insn);
  RegSet referenced = du.defs;
  referenced |= du.uses;
  each_family(referenced, [&](RegFamily f) {
    if (!justified.contains_family(f)) {
      out.error(where, std::string("def/use entry references ") + family_name(f) +
                           ", which no decoded operand or implicit register of "
                           "this mnemonic produces");
    }
  });

  if (!hints) {
    // 2. Every decoded register operand / address register must be
    //    reflected in the summary.
    each_family(operand_regs, [&](RegFamily f) {
      if (!referenced.contains_family(f)) {
        out.error(where, std::string("register operand ") + family_name(f) +
                             " is not referenced by the def/use summary");
      }
    });
    each_family(address_regs, [&](RegFamily f) {
      if (!du.uses.contains_family(f)) {
        out.error(where, std::string("memory address register ") + family_name(f) +
                             " is not read by the def/use summary");
      }
    });

    // 3. Memory-touch consistency. lea computes an address only.
    const bool touches = du.mem_read || du.mem_write;
    if (insn.mnemonic == Mnemonic::kLea) {
      if (touches) out.error(where, "lea claims a memory access (address-only)");
    } else if (has_mem && !touches) {
      out.error(where, "memory operand decoded but the summary claims no memory "
                       "access");
    } else if (!has_mem && touches && !implicit_memory(insn.mnemonic)) {
      out.error(where, "summary claims a memory access but the decoder produces no "
                       "memory operand and the mnemonic has no implicit one");
    }
  }

  // 4./5. Flag definition discipline.
  if (never_defines_flags(insn.mnemonic) && du.flags_def) {
    out.error(where, "flags_def claimed for pure data movement (a phantom flag kill "
                     "lets dead-code delete a live comparison)");
  }
  if (must_define_flags(insn.mnemonic) && !du.flags_def) {
    out.error(where, "flags_def missing for a flag-writing instruction");
  }
  if (must_use_flags(insn.mnemonic) && !du.flags_use) {
    out.error(where, "flags_use missing for a flag-consuming instruction");
  }
  if (must_side_effect(insn.mnemonic) && !du.side_effect) {
    out.error(where, "side_effect missing for a control transfer / I-O instruction");
  }

  // 6. rep/repne string instructions count down ecx.
  if (insn.prefixes.has(arch::Prefixes::kRep | arch::Prefixes::kRepne) && is_string_op(insn.mnemonic)) {
    if (!du.uses.contains_family(RegFamily::kCx) ||
        !du.defs.contains_family(RegFamily::kCx)) {
      out.error(where, "rep-prefixed string instruction must read and write ecx "
                       "(the repeat counter), or its setup code looks dead");
    }
  }
  return out;
}

Report verify_decoder_tables() {
  Report out;
  std::set<std::string> seen;  // dedupe: many encodings share a mnemonic

  const arch::Arch* cur = nullptr;
  auto check_encoding = [&](const std::vector<std::uint8_t>& bytes) {
    const Instruction insn = cur->decode(bytes, 0);
    if (!insn.valid()) return;
    Report r = check_defuse(insn, cur->def_use(insn));
    for (Diagnostic& d : r.diags) {
      // Escape maps and prefixes keep two label bytes; plain opcodes one.
      char enc[48];
      if (bytes[0] == 0x0f || bytes[0] == 0xf3 || bytes[0] == 0xf2 ||
          (cur->mode() == arch::Mode::k64 && (bytes[0] & 0xf0) == 0x40)) {
        std::snprintf(enc, sizeof enc, "%s opcode %02x %02x", cur->name().data(),
                      bytes[0], bytes[1]);
      } else {
        std::snprintf(enc, sizeof enc, "%s opcode %02x", cur->name().data(), bytes[0]);
      }
      d.where = enc + (" (" + d.where + ")");
      if (seen.insert(d.where + "|" + d.message).second) {
        out.diags.push_back(std::move(d));
      }
    }
  };

  // ModRM bytes covering every reg field (group opcodes select their
  // mnemonic through it) in both a register form (mod=3) and a memory
  // form (mod=0, base=ebx). Trailing 0x01 padding feeds any immediate or
  // displacement the encoding wants.
  std::vector<std::uint8_t> modrms;
  for (unsigned reg = 0; reg < 8; ++reg) {
    modrms.push_back(static_cast<std::uint8_t>(0xC0 | (reg << 3) | 1));
    modrms.push_back(static_cast<std::uint8_t>((reg << 3) | 3));
  }

  for (const arch::Arch* a : arch::Arch::all()) {
    cur = a;
    for (unsigned op = 0; op < 256; ++op) {
      for (std::uint8_t modrm : modrms) {
        check_encoding({static_cast<std::uint8_t>(op), modrm, 1, 1, 1, 1, 1, 1, 1, 1});
        check_encoding(
            {0x0f, static_cast<std::uint8_t>(op), modrm, 1, 1, 1, 1, 1, 1, 1, 1});
        if (a->mode() == arch::Mode::k64) {
          // REX forms: W (64-bit operand), R+B (extended reg/rm fields),
          // and the kitchen sink — catches summaries that miss the
          // extended families or width-dependent implicit registers.
          for (std::uint8_t rex : {0x48, 0x45, 0x4f}) {
            check_encoding(
                {rex, static_cast<std::uint8_t>(op), modrm, 1, 1, 1, 1, 1, 1, 1, 1});
            check_encoding({rex, 0x0f, static_cast<std::uint8_t>(op), modrm, 1, 1, 1,
                            1, 1, 1, 1, 1});
          }
        }
      }
    }
    // Repeat-prefixed string forms (the ecx-counter rule).
    for (std::uint8_t op :
         {0xA4, 0xA5, 0xA6, 0xA7, 0xAA, 0xAB, 0xAC, 0xAD, 0xAE, 0xAF}) {
      check_encoding({0xF3, op, 1, 1, 1, 1});
      check_encoding({0xF2, op, 1, 1, 1, 1});
    }
  }
  return out;
}

}  // namespace senids::verify
