#include "arch/scan.hpp"

#include <algorithm>

#include "arch/arch.hpp"

namespace senids::arch {

namespace {

/// Starts a new generation of `stamps` covering `n` offsets and returns
/// it in `gen`: no slot below `n` holds it yet.
void new_gen(std::vector<std::uint32_t>& stamps, std::uint32_t& gen, std::size_t n) {
  if (stamps.size() < n) stamps.resize(n, 0);
  if (++gen == 0) {  // stamp wrapped: every slot looks current
    std::fill(stamps.begin(), stamps.end(), 0);
    gen = 1;
  }
}

std::uint32_t new_mark_gen(ScanScratch& scratch, std::size_t n) {
  new_gen(scratch.marks, scratch.mark_gen, n);
  return scratch.mark_gen;
}

/// Scans the window [lo, hi) of `code` into `scratch` (see ScanScratch),
/// right to left. Each window offset the decode table lacks is decoded
/// first; the table switches to `code` when it holds another buffer. An
/// instruction is valid in the window iff it is valid in the buffer and
/// ends by `hi`: the decoder reads only the bytes [offset, end), so the
/// window's bytes alone decode to the same instruction. Offset `after`
/// is a tail when some earlier window offset decodes through it: a run
/// from there is part of a longer run with the same synchronization. A
/// run ends where its successor chain first reaches an invalid offset or
/// the window end, so run_end follows the chain in the same pass.
void scan_window(util::ByteView code, std::size_t lo, std::size_t hi, Mode mode,
                 ScanScratch& scratch) {
  const std::size_t n = code.size();
  if (!scratch.holds(code, mode)) {
    scratch.frame_data = code.data();
    scratch.frame_size = n;
    scratch.frame_mode = mode;
    if (scratch.insns.size() < n) {  // no slot is decoded yet; drop, then size exactly
      scratch.insns.clear();
      scratch.insns.resize(n);
    }
    new_gen(scratch.decoded, scratch.table_gen, n);
  }
  scratch.lo = lo;
  scratch.hi = hi;
  auto& insns = scratch.insns;
  auto& decoded = scratch.decoded;
  auto& run_len = scratch.run_len;
  auto& run_end = scratch.run_end;
  auto& flags = scratch.flags;
  if (run_len.size() < n) {  // every window slot is written before it is read
    run_len.resize(n);
    run_end.resize(n);
    flags.resize(n);
  }
  const std::uint32_t gen = scratch.table_gen;
  for (std::size_t i = hi; i-- > lo;) {
    if (decoded[i] != gen) {
      insns[i] = decode(code, i, mode);
      decoded[i] = gen;
      ++scratch.decodes;
    }
    const Instruction& insn = insns[i];
    flags[i] = 0;
    const std::size_t after = insn.end_offset();
    if (!insn.valid() || after > hi) {
      run_len[i] = 0;
      continue;
    }
    const bool continues = after < hi && run_len[after] != 0;
    run_len[i] = 1 + (continues ? run_len[after] : 0);
    run_end[i] = continues ? run_end[after] : static_cast<std::uint32_t>(after);
    if (continues) flags[after] |= ScanScratch::kTail;
  }
}

/// The maximal runs of the window [lo, hi) of `code` of at least
/// `min_insns` instructions into `out`, longest first.
void window_runs(util::ByteView code, std::size_t lo, std::size_t hi, Mode mode,
                 std::size_t min_insns, std::vector<CodeRun>& out, ScanScratch& scratch) {
  out.clear();
  scan_window(code, lo, hi, mode, scratch);
  for (std::size_t i = lo; i < hi; ++i) {
    if (scratch.run_len[i] >= min_insns && !(scratch.flags[i] & ScanScratch::kTail)) {
      out.push_back(CodeRun{i, scratch.run_len[i], scratch.run_end[i] - i});
    }
  }
  // Long runs first: real code forms long coherent runs, while text and
  // noise fragment into thousands of short ones that would otherwise
  // exhaust an entry budget before the payload.
  std::stable_sort(out.begin(), out.end(), [](const CodeRun& a, const CodeRun& b) {
    return a.insn_count > b.insn_count;
  });
}

}  // namespace

void Arch::find_code_runs(util::ByteView code, std::size_t min_insns,
                          std::vector<CodeRun>& out, ScanScratch& scratch) const {
  scratch.drop();
  window_runs(code, 0, code.size(), mode_, min_insns, out, scratch);
}

bool Arch::find_entries(util::ByteView code, std::size_t lo, std::size_t hi,
                        std::size_t min_insns, std::size_t max_trace_insns,
                        std::size_t max_entries, std::vector<CodeRun>& runs,
                        std::vector<std::size_t>& entries, ScanScratch& scratch) const {
  window_runs(code, lo, hi, mode_, min_insns, runs, scratch);
  entries.clear();
  const std::uint32_t gen = new_mark_gen(scratch, code.size());
  // Lists `off` unless listed already; false when it is new but the list
  // is full, so it goes untried.
  auto propose = [&](std::size_t off) {
    if (off >= hi || scratch.marks[off] == gen) return true;
    if (entries.size() >= max_entries) return false;
    scratch.marks[off] = gen;
    entries.push_back(off);
    return true;
  };
  for (const CodeRun& run : runs) {
    if (!propose(run.start)) return true;
    std::size_t pos = run.start;
    for (std::size_t k = 0; k < max_trace_insns && pos < hi && scratch.run_len[pos] != 0; ++k) {
      const Instruction& insn = scratch.insns[pos];
      const auto target = insn.branch_target();
      if (target && *target >= lo && *target < pos && !propose(*target)) return true;
      if (insn.mnemonic == Mnemonic::kCall && !propose(insn.end_offset())) return true;
      pos = insn.end_offset();
    }
  }
  return false;
}

void Arch::execution_trace(util::ByteView code, std::size_t entry, std::size_t max_insns,
                           std::vector<Instruction>& out, ScanScratch& scratch) const {
  if (!scratch.holds(code, mode_)) scan_window(code, 0, code.size(), mode_, scratch);
  out.clear();
  const std::size_t lo = scratch.lo;
  const std::size_t hi = scratch.hi;
  const std::uint32_t gen = new_mark_gen(scratch, code.size());
  auto& visited = scratch.marks;
  std::size_t pc = entry;

  while (pc >= lo && pc < hi && out.size() < max_insns) {
    if (visited[pc] == gen) break;  // loop closed: stream complete
    visited[pc] = gen;
    if (scratch.run_len[pc] == 0) break;  // invalid in the window
    const Instruction& insn = scratch.insns[pc];
    out.push_back(insn);

    if (insn.mnemonic == Mnemonic::kJmp || insn.mnemonic == Mnemonic::kCall) {
      // Calls are followed like jumps: shellcode uses call for GetPC
      // (jmp/call/pop), and the interesting flow continues at the target.
      auto target = insn.branch_target();
      if (!target || *target < lo || *target >= hi) break;  // indirect or escaping
      pc = *target;
      continue;
    }
    if (insn.ends_flow()) break;
    pc = insn.end_offset();
  }
}

}  // namespace senids::arch
