// Architecture abstraction: one object per supported instruction set,
// bundling the decoder mode, register/width model, def/use tables,
// scanner entry points, syscall calling conventions, and the CPU-emulator
// factory. Consumers (analyzer, lifter, emulator, engine, tools) select
// an Arch once and never name a concrete ISA again; adding an
// architecture means registering one more descriptor here plus its
// decoder/lifter/emulator mode support.
//
// Lifting is keyed off Instruction::mode — the decode hook stamps every
// instruction with the mode it was produced under, so ir::lift and
// arch::def_use need no extra parameter and cannot be handed an
// instruction under the wrong rules.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "arch/decoder.hpp"
#include "arch/defuse.hpp"
#include "arch/scan.hpp"

namespace senids::emu {
class Cpu;
class VirtualMemory;
}  // namespace senids::emu

namespace senids::arch {

/// One syscall mechanism of an architecture, as seen by the IR: the event
/// vector the lifter emits, the register carrying the syscall number, and
/// the argument registers in convention order.
struct SyscallConvention {
  std::uint16_t vector = 0;      // ir::Event::vector value (0x80, 0x100, ...)
  RegFamily number_reg = RegFamily::kAx;
  std::array<RegFamily, 6> args{};
  std::uint8_t arg_count = 0;
};

class Arch {
 public:
  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] unsigned pointer_bits() const noexcept {
    return mode_ == Mode::k64 ? 64u : 32u;
  }
  [[nodiscard]] RegWidth native_width() const noexcept {
    return mode_ == Mode::k64 ? RegWidth::k64 : RegWidth::k32;
  }

  // --- decode / scan, under this architecture's rules -------------------
  [[nodiscard]] Instruction decode(util::ByteView code, std::size_t offset) const {
    return arch::decode(code, offset, mode_);
  }
  /// Find decode runs of at least `min_insns` instructions into `out`,
  /// longest first (ties in start order). Runs contained in a longer run
  /// (same synchronization) are suppressed, so the result is a small set
  /// of candidate shellcode entry points. Decodes every offset of `code`
  /// afresh (an earlier table in `scratch` is dropped) and keeps every
  /// decode in `scratch`, whose last scanned window is then all of `code`.
  void find_code_runs(util::ByteView code, std::size_t min_insns,
                      std::vector<CodeRun>& out, ScanScratch& scratch) const;

  /// Candidate entries of the window [lo, hi) of `code` (lo <= hi <=
  /// code.size()): its runs, as find_code_runs finds them in the window's
  /// bytes alone, into `runs`, then each run's first `max_trace_insns`
  /// instructions, read from `scratch`, propose the run start, every
  /// backward-branch target inside the window (a loop head: a run may
  /// begin inside an unrolled loop body) and every post-call offset
  /// (GetPC data, and the payload once a decoder has unrolled).
  /// `entries` gets each proposed offset once, in order, at most
  /// `max_entries`. Offsets are `code`'s. Returns true when some candidate
  /// went untried. The decode table in `scratch` is kept when it holds
  /// `code` already, so the windows of one buffer decode each offset they
  /// cover once; only the offsets of [lo, hi) it lacks are decoded.
  [[nodiscard]] bool find_entries(util::ByteView code, std::size_t lo, std::size_t hi,
                                  std::size_t min_insns, std::size_t max_trace_insns,
                                  std::size_t max_entries, std::vector<CodeRun>& runs,
                                  std::vector<std::size_t>& entries,
                                  ScanScratch& scratch) const;

  /// Execution-order trace from `entry` into `out`: follows unconditional
  /// jmps and calls with targets in the window; conditional branches and
  /// loops fall through. Stops at invalid bytes, flow-ending
  /// instructions, window exit, an already-visited offset (loop closure),
  /// or `max_insns`. The result is the de-obfuscated instruction stream
  /// handed to the IR lifter, in `code`'s offsets. Calls no decoder: each
  /// instruction is copied from `scratch`'s decode table and the walk
  /// stays inside the window scratch last scanned, which should be a
  /// window of this buffer (find_code_runs / find_entries on `code` with
  /// the same scratch). When the table holds another buffer, all of
  /// `code` is scanned first. The table is matched to `code` by pointer,
  /// size and mode only: after rewriting a scanned buffer in place, scan
  /// it again with find_code_runs (or drop() the table) before tracing,
  /// or the trace reads the old decodes.
  void execution_trace(util::ByteView code, std::size_t entry, std::size_t max_insns,
                       std::vector<Instruction>& out, ScanScratch& scratch) const;

  /// Def/use summary. The tables are mode-keyed through Instruction::mode,
  /// so this simply forwards; it exists so callers never need the free
  /// function (and so a future arch can override the tables wholesale).
  [[nodiscard]] DefUse def_use(const Instruction& insn) const noexcept {
    return arch::def_use(insn);
  }

  /// Syscall mechanisms the lifter can emit for this arch, most canonical
  /// first (int 0x80 for x86_32; `syscall` for x86_64).
  [[nodiscard]] std::span<const SyscallConvention> syscall_conventions() const noexcept;

  /// CPU-emulator factory: a sandboxed emu::Cpu executing under this
  /// architecture's rules. Defined in src/emu/cpu.cpp — callers must link
  /// senids_emu (the arch library itself has no emu dependency).
  [[nodiscard]] std::unique_ptr<emu::Cpu> make_cpu(emu::VirtualMemory& mem,
                                                   std::uint32_t entry_va) const;

  // --- registry ---------------------------------------------------------
  static const Arch& x86_32() noexcept;
  static const Arch& x86_64() noexcept;
  /// Lookup by name ("x86_32", "x86_64"); nullptr when unknown.
  static const Arch* by_name(std::string_view name) noexcept;
  /// All registered architectures, registration order (x86_32 first).
  static std::span<const Arch* const> all() noexcept;
  /// The Arch whose decoder produced an instruction of the given mode.
  static const Arch& of_mode(Mode mode) noexcept;

  Arch(const Arch&) = delete;
  Arch& operator=(const Arch&) = delete;

 private:
  constexpr Arch(std::string_view name, Mode mode) : name_(name), mode_(mode) {}

  std::string_view name_;
  Mode mode_;

  friend struct ArchRegistry;
};

}  // namespace senids::arch
