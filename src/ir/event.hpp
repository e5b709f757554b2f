// Semantic events: the lifter reduces an instruction trace to the
// sequence of architecturally visible effects, each expressed over the
// symbolic domain. Templates match against this stream — never against
// instruction syntax — which is the core idea of semantics-aware
// detection.
#pragma once

#include <cstdint>
#include <optional>

#include "ir/expr.hpp"
#include "arch/insn.hpp"

namespace senids::ir {

/// Event::vector value for the x86-64 `syscall` instruction — outside
/// the 0..255 int-vector space so it can never collide with an int imm8.
inline constexpr std::uint16_t kSyscallVector = 0x100;

/// The most trace instructions a loop body may span, from the branch's
/// target to the branch: a conditional branch closes a loop only when its
/// target is one of the kMaxLoopInsns instructions traced before it.
/// Decoder loops are tight; distant branches are the main source of
/// coincidental loops in data.
inline constexpr std::uint32_t kMaxLoopInsns = 64;

enum class EventKind : std::uint8_t {
  kRegWrite,   // register family := value
  kMemWrite,   // mem[addr] := value (width bits)
  kBranch,     // control transfer (conditional or not)
  kSyscall,    // int N with captured register state
};

struct Event {
  EventKind kind{};
  arch::RegFamily reg{};        // kRegWrite
  std::uint8_t width = 32;      // kMemWrite: bits (64 for qword stores; the
                                // value expression still models the low 32)
  // kBranch
  bool conditional = false;
  bool backward = false;        // static target at or before this instruction
  /// Conditional, and its target is one of the kMaxLoopInsns instructions
  /// traced before it: the branch closes a loop of the trace.
  bool loops_back = false;
  bool is_call = false;
  /// kSyscall mechanism: the int imm8 vector (0x80 for 32-bit Linux), or
  /// kSyscallVector for the x86-64 `syscall` instruction.
  std::uint16_t vector = 0;
  std::uint32_t insn_index = 0;   // index into the lifted trace
  std::uint32_t insn_offset = 0;  // byte offset of the originating instruction
  std::optional<std::uint32_t> target;  // kBranch: static target (buffer offset)

  ExprPtr value = nullptr;      // kRegWrite / kMemWrite: the written value
  ExprPtr addr = nullptr;       // kMemWrite
  /// kSyscall: register expressions at the syscall, indexed by RegFamily
  /// (rax..r15; 32-bit traces hold the initial values in r8..r15). The 16
  /// entries live in the lifting LiftResult's arena, next to the nodes.
  const ExprPtr* syscall_regs = nullptr;
};
static_assert(sizeof(Event) <= 64);

}  // namespace senids::ir
