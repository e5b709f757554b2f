#include <gtest/gtest.h>

#include <algorithm>

#include "frame_corpus.hpp"
#include "one_shot.hpp"
#include "gen/emitter.hpp"
#include "gen/poly.hpp"
#include "util/prng.hpp"
#include "arch/arch.hpp"

namespace senids::arch {
namespace {

using gen::Asm;
using gen::R32;
using gen::R8;
using util::Bytes;

/// The trace execution_trace must produce, rebuilt by decoding each
/// instruction as the walk reaches it.
std::vector<Instruction> decoding_trace(util::ByteView code, std::size_t entry,
                                        std::size_t max_insns, Mode mode) {
  std::vector<Instruction> out;
  std::vector<char> seen(code.size(), 0);
  std::size_t pc = entry;
  while (pc < code.size() && out.size() < max_insns && !seen[pc]) {
    seen[pc] = 1;
    const Instruction insn = decode(code, pc, mode);
    if (!insn.valid()) break;
    out.push_back(insn);
    if (insn.mnemonic == Mnemonic::kJmp || insn.mnemonic == Mnemonic::kCall) {
      const auto target = insn.branch_target();
      if (!target || *target >= code.size()) break;
      pc = *target;
      continue;
    }
    if (insn.ends_flow()) break;
    pc = insn.end_offset();
  }
  return out;
}

// ----------------------------------------------------------- code runs

TEST(FindCodeRuns, EmptyBuffer) {
  Bytes empty;
  EXPECT_TRUE(test::code_runs(empty).empty());
}

TEST(FindCodeRuns, AllNops) {
  Bytes code(64, 0x90);
  auto runs = test::code_runs(code, 6);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].start, 0u);
  EXPECT_EQ(runs[0].insn_count, 64u);
  EXPECT_EQ(runs[0].byte_len, 64u);
}

TEST(FindCodeRuns, SuppressesTailRuns) {
  // A run starting at offset 1 inside the offset-0 run must not be
  // reported separately.
  Bytes code(32, 0x40);  // inc eax * 32
  auto runs = test::code_runs(code, 4);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].start, 0u);
}

TEST(FindCodeRuns, FindsRunAfterInvalidBytes) {
  Bytes code;
  code.insert(code.end(), 8, 0xD8);  // x87 escapes: invalid
  code.insert(code.end(), 16, 0x90);
  auto runs = test::code_runs(code, 6);
  ASSERT_GE(runs.size(), 1u);
  bool found = false;
  for (const auto& r : runs) {
    if (r.start == 8 && r.insn_count == 16) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FindCodeRuns, MinInsnsFiltersShortRuns) {
  Bytes code;
  code.insert(code.end(), 4, 0x90);
  code.push_back(0xD8);  // invalid separator
  code.push_back(0xC0);
  auto runs = test::code_runs(code, 6);
  EXPECT_TRUE(runs.empty());
}

TEST(FindCodeRuns, LongestRunFirst) {
  // NOP runs of 6, 10, 6 and 10 instructions, split by invalid bytes:
  // longest first, and runs of equal length in start order.
  Bytes code;
  std::vector<std::size_t> starts;
  for (std::size_t len : {6u, 10u, 6u, 10u}) {
    starts.push_back(code.size());
    code.insert(code.end(), len, 0x90);
    code.push_back(0xD8);  // x87 escape: invalid
  }
  auto runs = test::code_runs(code, 6);
  ASSERT_EQ(runs.size(), 4u);
  const std::size_t want[] = {starts[1], starts[3], starts[0], starts[2]};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].start, want[i]) << "run " << i;
    EXPECT_EQ(runs[i].insn_count, i < 2 ? 10u : 6u) << "run " << i;
  }
}

TEST(FindCodeRuns, ShellcodeYieldsLongRun) {
  util::Prng prng(3);
  gen::PolyResult poly = gen::admmutate_encode(util::to_bytes("payloadpayload"), prng);
  auto runs = test::code_runs(poly.bytes, 6);
  ASSERT_FALSE(runs.empty());
  // The run starting at (or before) the sled should cover the decoder.
  EXPECT_LE(runs[0].start, poly.sled_len);
  EXPECT_GE(runs[0].insn_count, 10u);
}

// ----------------------------------------------------- execution traces

TEST(ExecutionTrace, FollowsUnconditionalJmp) {
  // jmp +2; (skipped bytes); inc eax; ret
  Asm a;
  auto l = a.new_label();
  a.jmp_short(l);
  a.raw8(0xD8);  // junk that must NOT appear in the trace
  a.raw8(0xD8);
  a.bind(l);
  a.inc_r32(R32::eax);
  a.ret();
  Bytes code = a.finish();

  auto trace = test::trace(code, 0);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].mnemonic, Mnemonic::kJmp);
  EXPECT_EQ(trace[1].mnemonic, Mnemonic::kInc);
  EXPECT_EQ(trace[2].mnemonic, Mnemonic::kRet);
}

TEST(ExecutionTrace, FollowsCallTarget) {
  // jmp get; main: pop ebx; ret; get: call main; <data>
  Asm a;
  auto lmain = a.new_label();
  auto lget = a.new_label();
  a.jmp_short(lget);
  a.bind(lmain);
  a.pop_r32(R32::ebx);
  a.ret();
  a.bind(lget);
  a.call(lmain);
  a.raw(util::to_bytes("/bin/sh"));
  Bytes code = a.finish();

  auto trace = test::trace(code, 0);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0].mnemonic, Mnemonic::kJmp);
  EXPECT_EQ(trace[1].mnemonic, Mnemonic::kCall);
  EXPECT_EQ(trace[2].mnemonic, Mnemonic::kPop);
  EXPECT_EQ(trace[3].mnemonic, Mnemonic::kRet);
}

TEST(ExecutionTrace, StopsAtLoopClosure) {
  // head: xor byte [eax], 0x95; inc eax; loop head; ret
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::eax, 0x95);
  a.inc_r32(R32::eax);
  a.loop_(head);
  a.ret();
  Bytes code = a.finish();

  auto trace = test::trace(code, 0);
  // Falls through the conditional loop once, reaching ret; no revisit.
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[2].mnemonic, Mnemonic::kLoop);
  EXPECT_EQ(trace[3].mnemonic, Mnemonic::kRet);
}

TEST(ExecutionTrace, ClosesWhenJmpRevisits) {
  // A: inc eax; jmp A  -- trace must terminate.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.inc_r32(R32::eax);
  a.jmp_short(head);
  Bytes code = a.finish();

  auto trace = test::trace(code, 0);
  EXPECT_EQ(trace.size(), 2u);
}

TEST(ExecutionTrace, OutOfOrderBlocksLinearized) {
  // Figure 1(c) shape: physical order differs from execution order.
  Asm a;
  auto one = a.new_label();
  auto two = a.new_label();
  auto three = a.new_label();
  // entry:
  a.mov_r32_imm32(R32::ecx, 0);
  a.inc_r32(R32::ecx);
  a.inc_r32(R32::ecx);
  a.jmp_short(one);
  a.bind(two);
  a.add_r32_imm(R32::eax, 1);
  a.jmp_short(three);
  a.bind(one);
  a.mov_r32_imm32(R32::ebx, 0x31);
  a.add_r32_imm(R32::ebx, 0x64);
  a.xor_mem8_r8(R32::eax, R8::bl);
  a.jmp_short(two);
  a.bind(three);
  a.ret();
  Bytes code = a.finish();

  auto trace = test::trace(code, 0);
  // Execution order: mov ecx, inc, inc, jmp, mov ebx, add ebx, xor, jmp,
  // add eax, jmp, ret.
  std::vector<Mnemonic> got;
  for (const auto& insn : trace) got.push_back(insn.mnemonic);
  std::vector<Mnemonic> want{
      Mnemonic::kMov, Mnemonic::kInc, Mnemonic::kInc, Mnemonic::kJmp,
      Mnemonic::kMov, Mnemonic::kAdd, Mnemonic::kXor, Mnemonic::kJmp,
      Mnemonic::kAdd, Mnemonic::kJmp, Mnemonic::kRet};
  EXPECT_EQ(got, want);
}

TEST(ExecutionTrace, StopsAtInvalidByte) {
  Bytes code{0x90, 0xD8, 0x90};
  auto trace = test::trace(code, 0);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(ExecutionTrace, StopsAtBufferEscape) {
  Asm a;
  auto far = a.new_label();
  a.inc_r32(R32::eax);
  a.jmp(far);  // target bound past the end? bind at end, then truncate
  a.bind(far);
  Bytes code = a.finish();
  code.resize(code.size());  // target == size: out of buffer
  auto trace = test::trace(code, 0);
  EXPECT_EQ(trace.size(), 2u);
}

TEST(ExecutionTrace, MaxInsnsRespected) {
  Bytes code(1000, 0x90);
  EXPECT_EQ(test::trace(code, 0, 100).size(), 100u);
}

TEST(ExecutionTrace, EntryBeyondBufferEmpty) {
  Bytes code(4, 0x90);
  EXPECT_TRUE(test::trace(code, 10).empty());
}

TEST(FindCodeRuns, ByteLengthMatchesWalk) {
  const auto frames = test_corpus::scan_corpus();
  for (const Arch* isa : Arch::all()) {
    for (const auto& [name, frame] : frames) {
      for (const CodeRun& run : test::code_runs(frame, 1, *isa)) {
        std::size_t end = run.start, count = 0;
        for (Instruction insn; end < frame.size() &&
                               (insn = decode(frame, end, isa->mode())).valid();
             ++count) {
          end = insn.end_offset();
        }
        const std::string where =
            std::string(isa->name()) + ", " + name + " @" + std::to_string(run.start);
        ASSERT_EQ(run.byte_len, end - run.start) << where;
        ASSERT_EQ(run.insn_count, count) << where;
      }
    }
  }
}

TEST(ScanTable, EqualsDecodeAtEveryOffset) {
  const auto frames = test_corpus::scan_corpus();
  ScanScratch scratch;  // reused across frames of different sizes
  std::vector<CodeRun> runs;
  for (const Arch* isa : Arch::all()) {
    for (const auto& [name, frame] : frames) {
      isa->find_code_runs(frame, 6, runs, scratch);
      ASSERT_TRUE(scratch.holds(frame, isa->mode())) << name;
      for (std::size_t i = 0; i < frame.size(); ++i) {
        ASSERT_EQ(scratch.insns[i], decode(frame, i, isa->mode()))
            << isa->name() << ", " << name << " @" << i;
      }
    }
  }
}

TEST(ScanTable, RescanSeesBytesRewrittenInPlace) {
  // The table is matched to a buffer by pointer, size and mode only, so
  // after rewriting scanned bytes in place it is scanning again that
  // brings it up to date.
  Bytes code(8, 0x40);  // inc eax * 8
  const Arch& isa = Arch::x86_32();
  ScanScratch scratch;
  std::vector<CodeRun> runs;
  std::vector<Instruction> trace;
  isa.find_code_runs(code, 6, runs, scratch);
  std::fill(code.begin(), code.end(), 0x90);  // nop * 8, same storage
  isa.find_code_runs(code, 6, runs, scratch);
  isa.execution_trace(code, 0, 4096, trace, scratch);
  ASSERT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.front().mnemonic, Mnemonic::kNop);
  EXPECT_EQ(trace, test::trace(code, 0));
}

/// `trace`, walked in a window that starts at buffer offset `lo`, in the
/// window's own offsets.
std::vector<Instruction> rebased(std::vector<Instruction> trace, std::size_t lo) {
  for (Instruction& insn : trace) {
    insn.offset -= static_cast<std::uint32_t>(lo);
    if (insn.ops[0].kind == OperandKind::kRel) {
      insn.ops[0] = Operand::make_rel(insn.ops[0].imm() - static_cast<std::int64_t>(lo));
    }
  }
  return trace;
}

TEST(ScanTable, WindowOfABufferEqualsTheCopiedFrame) {
  // Each corpus frame inside a payload of noise: an E8 (call rel32) or D9
  // (x87 escape) just before it decodes across the window start, and a
  // `mov eax, imm32` cut after its third byte crosses the window end. The
  // windows [lo, hi) (the cut mov), [lo, n) (to the payload end) and
  // [0, hi) (from the payload start, the return-region shape) are scanned
  // in one decode table, in that order. Each gives the runs, entries and
  // traces of a copy of its bytes, in payload offsets; together they
  // decode each payload offset once.
  const auto frames = test_corpus::scan_corpus();
  ScanScratch table;  // reused across payloads, dropped for each as a new unit does
  std::vector<CodeRun> runs, copy_runs;
  std::vector<std::size_t> entries, copy_entries;
  std::vector<Instruction> trace, copy_trace;
  util::Prng prng(23);
  std::size_t traces = 0;
  for (const Arch* isa : Arch::all()) {
    for (const std::size_t max_insns : {std::size_t{4096}, std::size_t{8}}) {
      for (std::size_t k = 0; k < frames.size(); ++k) {
        const auto& [name, frame] = frames[k];
        Bytes payload = prng.bytes(16);
        payload.push_back(k % 2 ? 0xD9 : 0xE8);
        const std::size_t lo = payload.size();
        payload.insert(payload.end(), frame.begin(), frame.end());
        payload.insert(payload.end(), {0xB8, 0x90, 0x90});
        const std::size_t hi = payload.size();
        payload.insert(payload.end(), {0x90, 0x90});
        const Bytes noise = prng.bytes(16);
        payload.insert(payload.end(), noise.begin(), noise.end());
        const std::size_t n = payload.size();

        table.drop();
        const std::size_t decodes_before = table.decodes;
        for (const auto& [wlo, whi] : {std::pair{lo, hi}, std::pair{lo, n},
                                       std::pair{std::size_t{0}, hi}}) {
          const std::string where = std::string(isa->name()) + ", max " +
                                    std::to_string(max_insns) + ", " + name + " in [" +
                                    std::to_string(wlo) + ", " + std::to_string(whi) + ")";
          const Bytes copy(payload.begin() + static_cast<std::ptrdiff_t>(wlo),
                           payload.begin() + static_cast<std::ptrdiff_t>(whi));
          ScanScratch copy_scratch;
          const bool cut = isa->find_entries(payload, wlo, whi, 6, max_insns, 8192, runs,
                                             entries, table);
          const bool copy_cut = isa->find_entries(copy, 0, copy.size(), 6, max_insns, 8192,
                                                  copy_runs, copy_entries, copy_scratch);
          ASSERT_EQ(cut, copy_cut) << where;
          ASSERT_EQ(runs.size(), copy_runs.size()) << where;
          for (std::size_t i = 0; i < runs.size(); ++i) {
            ASSERT_EQ(runs[i].start - wlo, copy_runs[i].start) << where;
            ASSERT_EQ(runs[i].insn_count, copy_runs[i].insn_count) << where;
            ASSERT_EQ(runs[i].byte_len, copy_runs[i].byte_len) << where;
          }
          ASSERT_EQ(entries.size(), copy_entries.size()) << where;
          for (std::size_t i = 0; i < entries.size(); ++i) {
            ASSERT_EQ(entries[i] - wlo, copy_entries[i]) << where;
            isa->execution_trace(payload, entries[i], max_insns, trace, table);
            isa->execution_trace(copy, copy_entries[i], max_insns, copy_trace, copy_scratch);
            ASSERT_EQ(rebased(trace, wlo), copy_trace) << where << " @" << copy_entries[i];
            ++traces;
          }
        }
        EXPECT_EQ(table.decodes - decodes_before, n) << isa->name() << ", " << name;
      }
    }
  }
  EXPECT_GT(traces, 1000u);
}

TEST(ExecutionTrace, MatchesDecodingReference) {
  const auto frames = test_corpus::scan_corpus();
  ScanScratch scratch;  // reused across frames of different sizes
  std::vector<CodeRun> runs;
  std::vector<std::size_t> entries;
  std::vector<Instruction> trace;
  std::size_t traces = 0;
  for (const Arch* isa : Arch::all()) {
    for (const std::size_t max_insns : {std::size_t{4096}, std::size_t{8}}) {
      for (const auto& [name, frame] : frames) {
        (void)isa->find_entries(frame, 0, frame.size(), 6, max_insns, 8192, runs, entries,
                                  scratch);
        for (std::size_t entry : entries) {
          isa->execution_trace(frame, entry, max_insns, trace, scratch);
          ASSERT_EQ(trace, decoding_trace(frame, entry, max_insns, isa->mode()))
              << isa->name() << ", max " << max_insns << ", " << name << " @" << entry;
          ++traces;
        }
      }
    }
  }
  EXPECT_GT(traces, 1000u);

  // A scratch that holds another frame's decode (or the same bytes under
  // the other mode) is brought up to date before the walk.
  const Bytes& a = frames.front().second;
  const Bytes& b = frames.back().second;
  for (const Arch* isa : Arch::all()) {
    Arch::x86_32().find_code_runs(a, 6, runs, scratch);
    isa->execution_trace(b, 0, 4096, trace, scratch);
    EXPECT_EQ(trace, decoding_trace(b, 0, 4096, isa->mode())) << isa->name();
    EXPECT_TRUE(scratch.holds(b, isa->mode()));
    Arch::x86_32().find_code_runs(b, 6, runs, scratch);
    isa->execution_trace(b, 0, 4096, trace, scratch);
    EXPECT_EQ(trace, decoding_trace(b, 0, 4096, isa->mode())) << isa->name();
  }
}

TEST(ExecutionTrace, ConditionalBranchFallsThrough) {
  Asm a;
  auto skip = a.new_label();
  a.test_r32_r32(R32::eax, R32::eax);
  a.jnz(skip);
  a.inc_r32(R32::ebx);  // fall-through path: must be in the trace
  a.bind(skip);
  a.ret();
  Bytes code = a.finish();
  auto trace = test::trace(code, 0);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[2].mnemonic, Mnemonic::kInc);
}

}  // namespace
}  // namespace senids::arch
