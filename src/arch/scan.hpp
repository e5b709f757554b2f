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
  /// Per offset, from find_code_runs' one decode (what find_entries and
  /// execution_trace read instead of decoding again): the decoded
  /// instruction, the instruction count of the linear run from it (0
  /// when invalid), the offset where that run ends, and the kTail bit.
  enum : std::uint8_t { kTail = 1 };
  std::vector<Instruction> insns;
  std::vector<std::uint32_t> run_len;
  std::vector<std::uint32_t> run_end;
  std::vector<std::uint8_t> flags;
  /// The frame the per-offset arrays describe: its data pointer, size
  /// and decode mode. Nothing else identifies it, so the arrays go stale
  /// when those bytes are rewritten in place: scan again after changing
  /// a buffer that this scratch has scanned.
  const std::uint8_t* frame_data = nullptr;
  std::size_t frame_size = 0;
  Mode frame_mode = Mode::k32;
  /// Generation-stamped marks (visited offsets, listed entries): a slot
  /// is marked iff it equals mark_gen, so a new trace or entry list is
  /// one increment instead of an O(frame) clear.
  std::vector<std::uint32_t> marks;
  std::uint32_t mark_gen = 0;

  /// True when the per-offset arrays were decoded from `code`'s pointer
  /// and size under `mode` (the bytes themselves are not compared).
  [[nodiscard]] bool holds(util::ByteView code, Mode mode) const noexcept {
    return frame_data == code.data() && frame_size == code.size() && frame_mode == mode;
  }
};

}  // namespace senids::arch
