#include "arch/format.hpp"

#include <cstdio>

namespace senids::arch {

std::string_view mnemonic_name(Mnemonic m) noexcept {
  switch (m) {
    case Mnemonic::kInvalid: return "(bad)";
    case Mnemonic::kMov: return "mov";
    case Mnemonic::kMovzx: return "movzx";
    case Mnemonic::kMovsx: return "movsx";
    case Mnemonic::kLea: return "lea";
    case Mnemonic::kXchg: return "xchg";
    case Mnemonic::kPush: return "push";
    case Mnemonic::kPop: return "pop";
    case Mnemonic::kPusha: return "pusha";
    case Mnemonic::kPopa: return "popa";
    case Mnemonic::kPushf: return "pushf";
    case Mnemonic::kPopf: return "popf";
    case Mnemonic::kLahf: return "lahf";
    case Mnemonic::kSahf: return "sahf";
    case Mnemonic::kBswap: return "bswap";
    case Mnemonic::kXlat: return "xlat";
    case Mnemonic::kAdd: return "add";
    case Mnemonic::kAdc: return "adc";
    case Mnemonic::kSub: return "sub";
    case Mnemonic::kSbb: return "sbb";
    case Mnemonic::kInc: return "inc";
    case Mnemonic::kDec: return "dec";
    case Mnemonic::kNeg: return "neg";
    case Mnemonic::kCmp: return "cmp";
    case Mnemonic::kMul: return "mul";
    case Mnemonic::kImul: return "imul";
    case Mnemonic::kDiv: return "div";
    case Mnemonic::kIdiv: return "idiv";
    case Mnemonic::kCwde: return "cwde";
    case Mnemonic::kCdq: return "cdq";
    case Mnemonic::kAaa: return "aaa";
    case Mnemonic::kAas: return "aas";
    case Mnemonic::kDaa: return "daa";
    case Mnemonic::kDas: return "das";
    case Mnemonic::kAnd: return "and";
    case Mnemonic::kOr: return "or";
    case Mnemonic::kXor: return "xor";
    case Mnemonic::kNot: return "not";
    case Mnemonic::kTest: return "test";
    case Mnemonic::kShl: return "shl";
    case Mnemonic::kShr: return "shr";
    case Mnemonic::kSar: return "sar";
    case Mnemonic::kRol: return "rol";
    case Mnemonic::kRor: return "ror";
    case Mnemonic::kRcl: return "rcl";
    case Mnemonic::kRcr: return "rcr";
    case Mnemonic::kShld: return "shld";
    case Mnemonic::kShrd: return "shrd";
    case Mnemonic::kBt: return "bt";
    case Mnemonic::kBts: return "bts";
    case Mnemonic::kBtr: return "btr";
    case Mnemonic::kBtc: return "btc";
    case Mnemonic::kBsf: return "bsf";
    case Mnemonic::kBsr: return "bsr";
    case Mnemonic::kJmp: return "jmp";
    case Mnemonic::kJcc: return "j";
    case Mnemonic::kCall: return "call";
    case Mnemonic::kRet: return "ret";
    case Mnemonic::kRetf: return "retf";
    case Mnemonic::kLoop: return "loop";
    case Mnemonic::kLoope: return "loope";
    case Mnemonic::kLoopne: return "loopne";
    case Mnemonic::kJecxz: return "jecxz";
    case Mnemonic::kInt: return "int";
    case Mnemonic::kInt3: return "int3";
    case Mnemonic::kInto: return "into";
    case Mnemonic::kIret: return "iret";
    case Mnemonic::kEnter: return "enter";
    case Mnemonic::kLeave: return "leave";
    case Mnemonic::kMovs: return "movs";
    case Mnemonic::kCmps: return "cmps";
    case Mnemonic::kStos: return "stos";
    case Mnemonic::kLods: return "lods";
    case Mnemonic::kScas: return "scas";
    case Mnemonic::kNop: return "nop";
    case Mnemonic::kClc: return "clc";
    case Mnemonic::kStc: return "stc";
    case Mnemonic::kCmc: return "cmc";
    case Mnemonic::kCld: return "cld";
    case Mnemonic::kStd: return "std";
    case Mnemonic::kCli: return "cli";
    case Mnemonic::kSti: return "sti";
    case Mnemonic::kHlt: return "hlt";
    case Mnemonic::kWait: return "wait";
    case Mnemonic::kSetcc: return "set";
    case Mnemonic::kCmpxchg: return "cmpxchg";
    case Mnemonic::kXadd: return "xadd";
    case Mnemonic::kCpuid: return "cpuid";
    case Mnemonic::kRdtsc: return "rdtsc";
    case Mnemonic::kIn: return "in";
    case Mnemonic::kOut: return "out";
    case Mnemonic::kSalc: return "salc";
    case Mnemonic::kCmov: return "cmov";
    case Mnemonic::kSyscall: return "syscall";
    case Mnemonic::kFpuNop: return "fldz";
    case Mnemonic::kFnstenv: return "fnstenv";
  }
  return "?";
}

std::string_view cond_suffix(Cond c) noexcept {
  switch (c) {
    case Cond::kO: return "o";
    case Cond::kNo: return "no";
    case Cond::kB: return "b";
    case Cond::kAe: return "ae";
    case Cond::kE: return "e";
    case Cond::kNe: return "ne";
    case Cond::kBe: return "be";
    case Cond::kA: return "a";
    case Cond::kS: return "s";
    case Cond::kNs: return "ns";
    case Cond::kP: return "p";
    case Cond::kNp: return "np";
    case Cond::kL: return "l";
    case Cond::kGe: return "ge";
    case Cond::kLe: return "le";
    case Cond::kG: return "g";
  }
  return "?";
}

namespace {

const char* width_ptr_name(RegWidth w) {
  switch (w) {
    case RegWidth::k8Lo:
    case RegWidth::k8Hi:
      return "byte ptr ";
    case RegWidth::k16:
      return "word ptr ";
    case RegWidth::k32:
      return "dword ptr ";
    case RegWidth::k64:
      return "qword ptr ";
  }
  return "";
}

std::string format_operand(const Operand& op) {
  char buf[64];
  switch (op.kind) {
    case OperandKind::kNone:
      return "";
    case OperandKind::kReg:
      return std::string(op.reg.name());
    case OperandKind::kImm:
      if (op.imm() < 0) {
        std::snprintf(buf, sizeof buf, "-0x%llx",
                      static_cast<unsigned long long>(-op.imm()));
      } else {
        std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(op.imm()));
      }
      return buf;
    case OperandKind::kRel:
      std::snprintf(buf, sizeof buf, "loc_%llx", static_cast<unsigned long long>(op.imm()));
      return buf;
    case OperandKind::kMem: {
      const MemRef& m = op.mem();
      std::string out = width_ptr_name(m.width);
      out.push_back('[');
      bool need_plus = false;
      if (m.rip) {
        out += "rip";
        need_plus = true;
      }
      if (m.has_base()) {
        out += m.base.name();
        need_plus = true;
      }
      if (m.has_index()) {
        if (need_plus) out += " + ";
        out += m.index.name();
        if (m.scale != 1) {
          std::snprintf(buf, sizeof buf, "*%u", m.scale);
          out += buf;
        }
        need_plus = true;
      }
      if (m.disp != 0 || !need_plus) {
        if (need_plus) {
          std::snprintf(buf, sizeof buf, m.disp < 0 ? " - 0x%x" : " + 0x%x",
                        static_cast<unsigned>(m.disp < 0 ? -m.disp : m.disp));
        } else {
          std::snprintf(buf, sizeof buf, "0x%x", static_cast<unsigned>(m.disp));
        }
        out += buf;
      }
      out.push_back(']');
      return out;
    }
  }
  return "";
}

}  // namespace

std::string format(const Instruction& insn) {
  std::string out;
  if (insn.prefixes.has(Prefixes::kLock)) out += "lock ";
  if (insn.prefixes.has(Prefixes::kRep)) out += "rep ";
  if (insn.prefixes.has(Prefixes::kRepne)) out += "repne ";
  out += mnemonic_name(insn.mnemonic);
  if (insn.mnemonic == Mnemonic::kJcc || insn.mnemonic == Mnemonic::kSetcc ||
      insn.mnemonic == Mnemonic::kCmov) {
    out += cond_suffix(insn.cond);
  }
  // Width-suffix the implicit string ops the way debuggers do (movsb/movsd).
  switch (insn.mnemonic) {
    case Mnemonic::kMovs:
    case Mnemonic::kCmps:
    case Mnemonic::kStos:
    case Mnemonic::kLods:
    case Mnemonic::kScas:
      out += insn.op_width == RegWidth::k8Lo ? "b"
             : insn.op_width == RegWidth::k16 ? "w"
             : insn.op_width == RegWidth::k64 ? "q" : "d";
      break;
    default:
      break;
  }
  bool first = true;
  for (const Operand& op : insn.ops) {
    if (op.kind == OperandKind::kNone) break;
    out += first ? " " : ", ";
    out += format_operand(op);
    first = false;
  }
  return out;
}

std::string format_listing(const std::vector<Instruction>& insns) {
  std::string out;
  char buf[32];
  for (const Instruction& insn : insns) {
    std::snprintf(buf, sizeof buf, "%08zx:  ", std::size_t{insn.offset});
    out += buf;
    out += format(insn);
    out.push_back('\n');
  }
  return out;
}

}  // namespace senids::arch
