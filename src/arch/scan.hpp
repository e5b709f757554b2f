// Shellcode-oriented code discovery. Network payloads carry code at
// unknown offsets, so the scanner (a) finds plausible decode runs via a
// right-to-left dynamic program over a window of the buffer, (b) proposes
// candidate entry points from what that scan recorded, and (c)
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

/// Reusable working memory for the scanner: buffer-sized arrays a worker
/// keeps across calls, so scanning allocates only when a buffer is larger
/// than any before it.
///
/// It holds one decode table: the instruction at each offset of one
/// buffer, filled lazily. A scan of the window [lo, hi) decodes only the
/// window's offsets that the table does not hold yet, so the windows of
/// one payload decode each offset they cover once. The analyzer keeps one
/// table per unit (SemanticAnalyzer::begin_unit drops it).
struct ScanScratch {
  /// The decode table: insns[i] is the instruction at offset i of the
  /// table's buffer when decoded[i] == table_gen (what find_entries and
  /// execution_trace read instead of decoding again).
  std::vector<Instruction> insns;
  std::vector<std::uint32_t> decoded;
  std::uint32_t table_gen = 0;
  /// The buffer the table describes: its data pointer, size and decode
  /// mode. Nothing else identifies it, so the table goes stale when those
  /// bytes are rewritten in place: drop() it after changing a buffer that
  /// this scratch has scanned (find_code_runs drops it itself).
  const std::uint8_t* frame_data = nullptr;
  std::size_t frame_size = 0;
  Mode frame_mode = Mode::k32;
  /// Offsets decoded into a table so far, over the scratch's lifetime.
  std::size_t decodes = 0;

  /// The window last scanned, [lo, hi), and per offset in it: the
  /// instruction count of the linear run from it inside the window (0
  /// when the instruction there is invalid or ends past hi), the offset
  /// where that run ends, and the kTail bit.
  enum : std::uint8_t { kTail = 1 };
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::vector<std::uint32_t> run_len;
  std::vector<std::uint32_t> run_end;
  std::vector<std::uint8_t> flags;

  /// Generation-stamped marks (visited offsets, listed entries): a slot
  /// is marked iff it equals mark_gen, so a new trace or entry list is
  /// one increment instead of an O(frame) clear.
  std::vector<std::uint32_t> marks;
  std::uint32_t mark_gen = 0;

  /// True when the decode table was decoded from `code`'s pointer and
  /// size under `mode` (the bytes themselves are not compared).
  [[nodiscard]] bool holds(util::ByteView code, Mode mode) const noexcept {
    return frame_data == code.data() && frame_size == code.size() && frame_mode == mode;
  }
  /// Forgets the decode table: the next scan decodes its window afresh.
  void drop() noexcept { frame_data = nullptr; }
};

}  // namespace senids::arch
