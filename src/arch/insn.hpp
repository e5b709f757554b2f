// Decoded-instruction model: mnemonics, operands, prefixes. This is the
// contract between the decoder and everything downstream (formatter, IR
// lifter, def/use analysis).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>

#include "arch/reg.hpp"

namespace senids::arch {

/// Decode mode: which instruction-set rules apply. k32 is classic IA-32;
/// k64 is x86-64 long mode (REX prefixes, default-64 stack ops,
/// RIP-relative addressing, a different invalid-opcode set).
enum class Mode : std::uint8_t { k32, k64 };

/// Mnemonics the decoder emits. kInvalid marks undecodable bytes: the
/// scanners treat it as a synchronization failure, never as a crash.
enum class Mnemonic : std::uint8_t {
  kInvalid = 0,
  // data movement
  kMov, kMovzx, kMovsx, kLea, kXchg, kPush, kPop, kPusha, kPopa, kPushf, kPopf,
  kLahf, kSahf, kBswap, kXlat,
  // arithmetic
  kAdd, kAdc, kSub, kSbb, kInc, kDec, kNeg, kCmp, kMul, kImul, kDiv, kIdiv,
  kCwde, kCdq, kAaa, kAas, kDaa, kDas,
  // logic
  kAnd, kOr, kXor, kNot, kTest,
  // shifts/rotates
  kShl, kShr, kSar, kRol, kRor, kRcl, kRcr, kShld, kShrd,
  // bit ops
  kBt, kBts, kBtr, kBtc, kBsf, kBsr,
  // control flow
  kJmp, kJcc, kCall, kRet, kRetf, kLoop, kLoope, kLoopne, kJecxz, kInt,
  kInt3, kInto, kIret, kEnter, kLeave,
  // string ops
  kMovs, kCmps, kStos, kLods, kScas,
  // flags and misc
  kNop, kClc, kStc, kCmc, kCld, kStd, kCli, kSti, kHlt, kWait, kSetcc,
  kCmpxchg, kXadd, kCpuid, kRdtsc, kIn, kOut, kSalc, kCmov,
  kSyscall,   // x86-64 `syscall` (0F 05); never emitted by the 32-bit decoder
  // Minimal x87 subset: just enough for the fnstenv GetPC idiom.
  kFpuNop,    // fld constants / fninit-style no-ops that set "last FPU insn"
  kFnstenv,   // store the 28-byte FPU environment (FIP at offset +12)
};

/// Condition codes for Jcc/SETcc, in opcode-nibble order.
enum class Cond : std::uint8_t {
  kO, kNo, kB, kAe, kE, kNe, kBe, kA, kS, kNs, kP, kNp, kL, kGe, kLe, kG
};

enum class OperandKind : std::uint8_t { kNone, kReg, kImm, kMem, kRel };

/// Memory operand: [base + index*scale + disp], any piece optional. An
/// absent base or index is kNoReg.
struct MemRef {
  std::int32_t disp = 0;
  Reg base = kNoReg;
  Reg index = kNoReg;
  std::uint8_t scale = 1;           // 1,2,4,8
  RegWidth width = RegWidth::k32;   // access width (byte/word/... ptr)
  /// 64-bit mode RIP-relative form ([rip + disp32]): the effective
  /// address is the end of the instruction plus disp, which the lifter
  /// and emulator resolve to a concrete in-buffer offset.
  bool rip = false;

  [[nodiscard]] bool has_base() const noexcept { return base != kNoReg; }
  [[nodiscard]] bool has_index() const noexcept { return index != kNoReg; }

  friend bool operator==(const MemRef&, const MemRef&) = default;
};

static_assert(offsetof(MemRef, scale) == sizeof(std::int64_t),
              "Operand::imm() lives in MemRef's disp, base and index");

/// One operand in 16 bytes: the immediate and the memory reference share
/// storage, read through imm() and mem() according to `kind`.
class Operand {
 public:
  OperandKind kind = OperandKind::kNone;
  Reg reg{};              // kReg

  /// kImm (sign-extended) and kRel (absolute target offset).
  [[nodiscard]] std::int64_t imm() const noexcept {
    std::int64_t v = 0;
    std::memcpy(&v, &mem_, sizeof v);
    return v;
  }
  /// kMem.
  [[nodiscard]] const MemRef& mem() const noexcept { return mem_; }

  static Operand none() { return {}; }
  static Operand make_reg(Reg r) {
    Operand o;
    o.kind = OperandKind::kReg;
    o.reg = r;
    return o;
  }
  static Operand make_imm(std::int64_t v) { return make_value(OperandKind::kImm, v); }
  static Operand make_mem(MemRef m) {
    Operand o;
    o.kind = OperandKind::kMem;
    o.mem_ = m;
    return o;
  }
  static Operand make_rel(std::int64_t target) { return make_value(OperandKind::kRel, target); }

  friend bool operator==(const Operand&, const Operand&) = default;

 private:
  static Operand make_value(OperandKind kind, std::int64_t v) {
    Operand o;
    o.kind = kind;
    std::memcpy(static_cast<void*>(&o.mem_), &v, sizeof v);
    return o;
  }

  /// kMem's reference. kImm and kRel keep their value in its first eight
  /// bytes (disp, base, index), which operator== compares like any field.
  MemRef mem_{};
};

/// Prefix bits observed before the opcode, one bit each in a flag word.
struct Prefixes {
  enum : std::uint16_t {
    kOpsize = 1 << 0,    // 0x66
    kAddrsize = 1 << 1,  // 0x67
    kLock = 1 << 2,      // 0xF0
    kRep = 1 << 3,       // 0xF3
    kRepne = 1 << 4,     // 0xF2
    kSegment = 1 << 5,   // any of 26/2E/36/3E/64/65
    // REX fields (64-bit mode only; all clear when no REX byte was seen).
    kRex = 1 << 6,       // any 40-4F byte immediately before the opcode
    kRexW = 1 << 7,      // 64-bit operand size
    kRexR = 1 << 8,      // ModRM.reg extension
    kRexX = 1 << 9,      // SIB.index extension
    kRexB = 1 << 10,     // ModRM.rm / SIB.base / opcode-reg extension
    kRexAll = kRex | kRexW | kRexR | kRexX | kRexB,
  };
  std::uint16_t bits = 0;

  /// True when any bit of `mask` is set.
  [[nodiscard]] bool has(std::uint16_t mask) const noexcept { return (bits & mask) != 0; }

  friend bool operator==(const Prefixes&, const Prefixes&) = default;
};

/// One decoded instruction. The scanner keeps one per frame offset
/// (ScanScratch), so the layout is kept compact: at most 64 bytes and
/// trivially copyable (static_asserts below). Offsets are 32-bit; frames
/// are smaller than 4 GiB.
struct Instruction {
  std::uint32_t offset = 0;  // byte offset within the decoded buffer
  Prefixes prefixes;
  std::uint8_t length = 0; // encoded length in bytes
  Mnemonic mnemonic = Mnemonic::kInvalid;
  Cond cond = Cond::kO;    // meaningful for kJcc / kSetcc only
  /// Operation width for width-ambiguous mnemonics (string ops, push imm).
  RegWidth op_width = RegWidth::k32;
  /// Decode mode this instruction was produced under. Downstream
  /// consumers (def/use, lifter, emulator) key mode-dependent semantics
  /// off this field instead of taking a second parameter.
  Mode mode = Mode::k32;
  std::array<Operand, 3> ops;

  [[nodiscard]] bool valid() const noexcept { return mnemonic != Mnemonic::kInvalid; }
  [[nodiscard]] std::size_t end_offset() const noexcept { return std::size_t{offset} + length; }

  [[nodiscard]] bool is_branch() const noexcept {
    switch (mnemonic) {
      case Mnemonic::kJmp:
      case Mnemonic::kJcc:
      case Mnemonic::kCall:
      case Mnemonic::kLoop:
      case Mnemonic::kLoope:
      case Mnemonic::kLoopne:
      case Mnemonic::kJecxz:
        return true;
      default:
        return false;
    }
  }

  /// Branch target as a buffer offset, when statically known.
  [[nodiscard]] std::optional<std::size_t> branch_target() const noexcept {
    if (!is_branch() || ops[0].kind != OperandKind::kRel) return std::nullopt;
    const std::int64_t target = ops[0].imm();
    if (target < 0) return std::nullopt;  // jumps before the buffer
    return static_cast<std::size_t>(target);
  }

  /// True for instructions after which straight-line execution stops.
  [[nodiscard]] bool ends_flow() const noexcept {
    switch (mnemonic) {
      case Mnemonic::kRet:
      case Mnemonic::kRetf:
      case Mnemonic::kIret:
      case Mnemonic::kHlt:
        return true;
      case Mnemonic::kJmp:
        return true;  // unconditional; successor is the target only
      default:
        return false;
    }
  }

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

static_assert(sizeof(Operand) <= 16);
static_assert(sizeof(Instruction) <= 64);
static_assert(std::is_trivially_copyable_v<Instruction>);

/// Human-readable mnemonic text ("mov", "jne", ...). For kJcc/kSetcc the
/// condition is folded into the text.
std::string_view mnemonic_name(Mnemonic m) noexcept;
std::string_view cond_suffix(Cond c) noexcept;

}  // namespace senids::arch
