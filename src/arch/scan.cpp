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

}  // namespace

void Arch::find_code_runs(util::ByteView code, std::size_t min_insns,
                          std::vector<CodeRun>& out, ScanScratch& scratch) const {
  out.clear();
  const std::size_t n = code.size();
  if (n == 0) return;

  // One decode per offset, right to left, into the per-offset arrays
  // (see ScanScratch; assign keeps their capacity). Offset `after` is a
  // tail when some earlier offset decodes through it: a run from there
  // is part of a longer run with the same synchronization.
  auto& run_len = scratch.run_len;
  auto& next = scratch.next;
  auto& flags = scratch.flags;
  run_len.assign(n, 0);
  next.assign(n, 0);
  flags.assign(n, 0);
  if (scratch.back_target.size() < n) scratch.back_target.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    const Instruction insn = decode(code, i);
    if (!insn.valid()) continue;
    const std::size_t after = insn.end_offset();
    next[i] = static_cast<std::uint32_t>(after);
    run_len[i] = 1 + (after < n ? run_len[after] : 0);
    if (after < n && run_len[after] != 0) flags[after] |= ScanScratch::kTail;
    if (insn.mnemonic == Mnemonic::kCall) flags[i] |= ScanScratch::kCall;
    if (auto target = insn.branch_target(); target && *target < i) {
      flags[i] |= ScanScratch::kBackBranch;
      scratch.back_target[i] = static_cast<std::uint32_t>(*target);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (run_len[i] >= min_insns && !(flags[i] & ScanScratch::kTail)) {
      std::size_t end = i;  // walk to the run's end for its byte length
      while (end < n && run_len[end] != 0) end = next[end];
      out.push_back(CodeRun{i, run_len[i], end - i});
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
      const std::uint8_t f = scratch.flags[pos];
      if ((f & ScanScratch::kBackBranch) && !propose(scratch.back_target[pos])) return true;
      if ((f & ScanScratch::kCall) && !propose(scratch.next[pos])) return true;
      pos = scratch.next[pos];
    }
  }
  return false;
}

void Arch::execution_trace(util::ByteView code, std::size_t entry, std::size_t max_insns,
                           std::vector<Instruction>& out, ScanScratch& scratch) const {
  out.clear();
  const std::uint32_t gen = new_mark_gen(scratch, code.size());
  auto& visited = scratch.marks;
  std::size_t pc = entry;

  while (pc < code.size() && out.size() < max_insns) {
    if (visited[pc] == gen) break;  // loop closed: stream complete
    visited[pc] = gen;
    Instruction insn = decode(code, pc);
    if (!insn.valid()) break;
    const Instruction& placed = out.emplace_back(std::move(insn));

    if (placed.mnemonic == Mnemonic::kJmp || placed.mnemonic == Mnemonic::kCall) {
      // Calls are followed like jumps: shellcode uses call for GetPC
      // (jmp/call/pop), and the interesting flow continues at the target.
      auto target = placed.branch_target();
      if (!target || *target >= code.size()) break;  // indirect or escaping
      pc = *target;
      continue;
    }
    if (placed.ends_flow()) break;
    pc = placed.end_offset();
  }
}

std::vector<CodeRun> find_code_runs(util::ByteView code, std::size_t min_insns,
                                    Mode mode) {
  std::vector<CodeRun> runs;
  ScanScratch scratch;
  Arch::of_mode(mode).find_code_runs(code, min_insns, runs, scratch);
  return runs;
}

std::vector<Instruction> execution_trace(util::ByteView code, std::size_t entry,
                                         std::size_t max_insns, Mode mode) {
  std::vector<Instruction> trace;
  ScanScratch scratch;
  Arch::of_mode(mode).execution_trace(code, entry, max_insns, trace, scratch);
  return trace;
}

}  // namespace senids::arch
