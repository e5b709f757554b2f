#include "arch/scan.hpp"

#include <algorithm>

#include "arch/arch.hpp"

namespace senids::arch {

namespace {

/// Starts a new generation of `scratch.marks` covering `n` offsets and
/// returns its stamp: no slot below `n` is marked with it yet.
std::uint32_t new_mark_gen(ScanScratch& scratch, std::size_t n) {
  if (scratch.marks.size() < n) scratch.marks.resize(n, 0);
  if (++scratch.mark_gen == 0) {  // stamp wrapped: every slot looks marked
    std::fill(scratch.marks.begin(), scratch.marks.end(), 0);
    scratch.mark_gen = 1;
  }
  return scratch.mark_gen;
}

/// The scan's one decode: every offset of `code`, right to left, into
/// the per-offset arrays of `scratch` (see ScanScratch), which then hold
/// this frame. Offset `after` is a tail when some earlier offset decodes
/// through it: a run from there is part of a longer run with the same
/// synchronization. A run ends where its successor chain first reaches
/// an invalid offset or the buffer end, so run_end follows the chain in
/// the same pass.
void decode_frame(util::ByteView code, Mode mode, ScanScratch& scratch) {
  const std::size_t n = code.size();
  scratch.frame_data = code.data();
  scratch.frame_size = n;
  scratch.frame_mode = mode;
  auto& insns = scratch.insns;
  auto& run_len = scratch.run_len;
  auto& run_end = scratch.run_end;
  auto& flags = scratch.flags;
  if (insns.size() < n) {  // every slot below n is written; drop, then size exactly
    insns.clear();
    insns.resize(n);
  }
  run_len.assign(n, 0);
  run_end.assign(n, 0);
  flags.assign(n, 0);
  for (std::size_t i = n; i-- > 0;) {
    const Instruction& insn = insns[i] = decode(code, i, mode);
    if (!insn.valid()) continue;
    const std::size_t after = insn.end_offset();
    const bool continues = after < n && run_len[after] != 0;
    run_len[i] = 1 + (continues ? run_len[after] : 0);
    run_end[i] = continues ? run_end[after] : static_cast<std::uint32_t>(after);
    if (continues) flags[after] |= ScanScratch::kTail;
  }
}

}  // namespace

void Arch::find_code_runs(util::ByteView code, std::size_t min_insns,
                          std::vector<CodeRun>& out, ScanScratch& scratch) const {
  out.clear();
  decode_frame(code, mode_, scratch);
  for (std::size_t i = 0; i < code.size(); ++i) {
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

bool Arch::find_entries(util::ByteView code, std::size_t min_insns,
                        std::size_t max_trace_insns, std::size_t max_entries,
                        std::vector<CodeRun>& runs, std::vector<std::size_t>& entries,
                        ScanScratch& scratch) const {
  find_code_runs(code, min_insns, runs, scratch);
  entries.clear();
  const std::size_t n = code.size();
  const std::uint32_t gen = new_mark_gen(scratch, n);
  // Lists `off` unless listed already; false when it is new but the list
  // is full, so it goes untried.
  auto propose = [&](std::size_t off) {
    if (off >= n || scratch.marks[off] == gen) return true;
    if (entries.size() >= max_entries) return false;
    scratch.marks[off] = gen;
    entries.push_back(off);
    return true;
  };
  for (const CodeRun& run : runs) {
    if (!propose(run.start)) return true;
    std::size_t pos = run.start;
    for (std::size_t k = 0; k < max_trace_insns && pos < n && scratch.run_len[pos] != 0; ++k) {
      const Instruction& insn = scratch.insns[pos];
      const auto target = insn.branch_target();
      if (target && *target < pos && !propose(*target)) return true;
      if (insn.mnemonic == Mnemonic::kCall && !propose(insn.end_offset())) return true;
      pos = insn.end_offset();
    }
  }
  return false;
}

void Arch::execution_trace(util::ByteView code, std::size_t entry, std::size_t max_insns,
                           std::vector<Instruction>& out, ScanScratch& scratch) const {
  if (!scratch.holds(code, mode_)) decode_frame(code, mode_, scratch);
  out.clear();
  const std::uint32_t gen = new_mark_gen(scratch, code.size());
  auto& visited = scratch.marks;
  std::size_t pc = entry;

  while (pc < code.size() && out.size() < max_insns) {
    if (visited[pc] == gen) break;  // loop closed: stream complete
    visited[pc] = gen;
    const Instruction& insn = scratch.insns[pc];
    if (!insn.valid()) break;
    out.push_back(insn);

    if (insn.mnemonic == Mnemonic::kJmp || insn.mnemonic == Mnemonic::kCall) {
      // Calls are followed like jumps: shellcode uses call for GetPC
      // (jmp/call/pop), and the interesting flow continues at the target.
      auto target = insn.branch_target();
      if (!target || *target >= code.size()) break;  // indirect or escaping
      pc = *target;
      continue;
    }
    if (insn.ends_flow()) break;
    pc = insn.end_offset();
  }
}

}  // namespace senids::arch
