// Shellcode-oriented code discovery. Network payloads carry code at
// unknown offsets, so the scanner (a) finds plausible decode runs via a
// right-to-left dynamic program over the whole buffer, (b) proposes
// candidate entry points from what that one decode recorded, and (c)
// produces the *execution-order* instruction stream from an entry point
// by following unconditional jumps — which is exactly the normalization
// that defeats the out-of-order obfuscation of Figure 1(c) in the paper.
#pragma once

#include <vector>

#include "util/bytes.hpp"
#include "arch/decoder.hpp"

namespace senids::arch {

/// A maximal linear decode run.
struct CodeRun {
  std::size_t start = 0;
  std::size_t insn_count = 0;
  std::size_t byte_len = 0;
};

/// Reusable working memory for the scanner: frame-sized arrays a worker
/// keeps across calls, so scanning allocates only when a frame is larger
/// than any before it.
struct ScanScratch {
  /// Per offset, from find_code_runs' one decode (what find_entries
  /// reads instead of decoding again): the instruction count of the
  /// linear run from it (0 when invalid), the offset after its
  /// instruction, flag bits, and the target of its backward branch
  /// (meaningful under kBackBranch).
  enum : std::uint8_t { kTail = 1, kCall = 2, kBackBranch = 4 };
  std::vector<std::uint32_t> run_len;
  std::vector<std::uint32_t> next;
  std::vector<std::uint8_t> flags;
  std::vector<std::uint32_t> back_target;
  /// Generation-stamped marks (visited offsets, listed entries): a slot
  /// is marked iff it equals mark_gen, so a new trace or entry list is
  /// one increment instead of an O(frame) clear.
  std::vector<std::uint32_t> marks;
  std::uint32_t mark_gen = 0;
};

/// One-shot forms of Arch::find_code_runs and Arch::execution_trace
/// (arch.hpp), each with a fresh ScanScratch, for tests and tools.
std::vector<CodeRun> find_code_runs(util::ByteView code, std::size_t min_insns = 6,
                                    Mode mode = Mode::k32);
std::vector<Instruction> execution_trace(util::ByteView code, std::size_t entry,
                                         std::size_t max_insns = 4096,
                                         Mode mode = Mode::k32);

}  // namespace senids::arch
