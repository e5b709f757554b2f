// Shellcode emulation harness (libemu-style dynamic analysis): run a
// binary frame in the sandboxed CPU, let any decoder decrypt itself, and
// report (a) the observed syscall behaviour and (b) the decoded frame for
// a second static-analysis pass. This extends the paper's static
// pipeline with the dynamic capability its future-work section points
// toward; DESIGN.md documents the substitution (IDA Pro + manual
// inspection -> automatic emulation).
#pragma once

#include <string>
#include <vector>

#include "emu/cpu.hpp"

namespace senids::emu {

struct EmulatedSyscall {
  /// Interrupt vector (0x80 for Linux i386) or the 64-bit convention's
  /// vector (0x100) for the x86-64 `syscall` instruction.
  std::uint16_t vector = 0;
  /// Normalized register view: for int 0x80 these are eax/ebx/ecx/edx;
  /// for `syscall` they are the low halves of rax/rdi/rsi/rdx (number and
  /// first three arguments under either convention).
  std::uint32_t eax = 0;
  std::uint32_t ebx = 0;
  std::uint32_t ecx = 0;
  std::uint32_t edx = 0;
  /// NUL-terminated string at the first argument register (ebx or rdi),
  /// when it points into the sandbox (e.g. the execve path).
  std::string ebx_string;
};

struct EmulationResult {
  StopReason stop = StopReason::kRunning;
  std::size_t steps = 0;
  std::size_t entry = 0;                 // frame offset emulation started at
  std::size_t frame_bytes_modified = 0;  // self-modification volume
  std::vector<EmulatedSyscall> syscalls;
  /// Frame with all self-modifications applied; meaningful when
  /// frame_bytes_modified > 0.
  util::Bytes decoded_frame;

  /// execve("/bin/..") observed (i386 sys 11 or x86-64 sys 59).
  [[nodiscard]] bool spawned_shell() const;
  /// socket/bind/listen sequence observed (i386 socketcall or the direct
  /// x86-64 syscalls).
  [[nodiscard]] bool bound_port() const;
  /// Any Linux syscall (int 0x80 or x86-64 `syscall`) observed.
  [[nodiscard]] bool made_syscall() const;
};

/// Sandbox budgets: instructions per run, syscalls recorded per run, and
/// candidate entry points tried per frame.
inline constexpr std::size_t kMaxSteps = 100000;
inline constexpr std::size_t kMaxSyscalls = 16;
inline constexpr std::size_t kMaxEntries = 64;

/// Emulate from one specific entry offset under `mode`'s instruction set.
EmulationResult emulate_entry(util::ByteView frame, std::size_t entry,
                              arch::Mode mode = arch::Mode::k32);

/// Try candidate entries (decode-run starts, longest first) and return
/// the most revealing result: syscalls observed > self-modification >
/// longest run.
EmulationResult emulate_frame(util::ByteView frame, arch::Mode mode = arch::Mode::k32);

}  // namespace senids::emu
