// google-benchmark microbenchmarks for the pipeline stages, backing the
// "our implementation is more efficient than [5]" claim with per-stage
// numbers: decode, scan, lift, match, extract, signature scan, pcap parse.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>

#include "extract/extractor.hpp"
#include "emu/shellemu.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/emitter.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "ir/lifter.hpp"
#include "pcap/pcap.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"
#include "sig/rules.hpp"
#include "arch/arch.hpp"

using namespace senids;

namespace {

util::Bytes poly_sample() {
  util::Prng prng(1);
  return gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, prng).bytes;
}

util::Bytes benign_blob(std::size_t size) {
  util::Prng prng(2);
  util::Bytes out;
  while (out.size() < size) {
    auto p = gen::make_benign_payload(prng);
    out.insert(out.end(), p.data.begin(), p.data.end());
  }
  out.resize(size);
  return out;
}

/// `mov eax, 0x90909090` repeated: every block's nops start a run that
/// converges onto the same chain, the scanner's worst case for run count.
util::Bytes convergent_blob(std::size_t size) {
  util::Bytes out;
  while (out.size() < size) out.insert(out.end(), {0xB8, 0x90, 0x90, 0x90, 0x90});
  out.resize(size);
  return out;
}

void BM_DecodeLinear(benchmark::State& state) {
  const util::Bytes code = poly_sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(arch::linear_sweep(code));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * code.size()));
}
BENCHMARK(BM_DecodeLinear);

/// One decode at every offset of a 4 KB benign blob: the candidate
/// scan's access pattern, without its tables or any allocation.
void BM_DecodeEveryOffset(benchmark::State& state) {
  const util::Bytes blob = benign_blob(4 << 10);
  for (auto _ : state) {
    for (std::size_t i = 0; i < blob.size(); ++i) {
      benchmark::DoNotOptimize(arch::decode(blob, i));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_DecodeEveryOffset);

/// Candidate scan of arg 0 bytes of benign payloads (arg 1 = 0) or of
/// the convergent pattern (arg 1 = 1), with one reused scratch as the
/// analyzer keeps it. Per-byte cost stays flat from 4 to 64 KB while the
/// scan is linear.
void BM_FindCodeRuns(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const bool convergent = state.range(1) == 1;
  const util::Bytes blob = convergent ? convergent_blob(size) : benign_blob(size);
  arch::ScanScratch scratch;
  std::vector<arch::CodeRun> runs;
  for (auto _ : state) {
    arch::Arch::x86_32().find_code_runs(blob, 6, runs, scratch);
    benchmark::DoNotOptimize(runs.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
  state.SetLabel(convergent ? "convergent" : "benign");
}
BENCHMARK(BM_FindCodeRuns)
    ->Args({4 << 10, 0})
    ->Args({64 << 10, 0})
    ->Args({4 << 10, 1})
    ->Args({64 << 10, 1});

/// Execution traces from every candidate entry of a 1.4 KB benign frame,
/// with one scratch that holds the frame's scan. Items are traced
/// instructions.
void BM_ExecutionTrace(benchmark::State& state) {
  const arch::Arch& isa = arch::Arch::x86_32();
  const util::Bytes frame = benign_blob(1400);
  arch::ScanScratch scratch;
  std::vector<arch::CodeRun> runs;
  std::vector<std::size_t> entries;
  (void)isa.find_entries(frame, 0, frame.size(), 6, 4096, 8192, runs, entries, scratch);
  std::vector<arch::Instruction> trace;
  std::size_t insns = 0;
  for (auto _ : state) {
    for (std::size_t entry : entries) {
      isa.execution_trace(frame, entry, 4096, trace, scratch);
      insns += trace.size();
      benchmark::DoNotOptimize(trace.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}
BENCHMARK(BM_ExecutionTrace);

void BM_ExecutionTraceAndLift(benchmark::State& state) {
  const util::Bytes code = poly_sample();
  ir::LiftResult lifted;
  for (auto _ : state) {
    arch::ScanScratch scratch;  // fresh: the trace decodes the frame first
    std::vector<arch::Instruction> trace;
    arch::Arch::x86_32().execution_trace(code, 0, 4096, trace, scratch);
    ir::lift(trace, lifted);
    benchmark::DoNotOptimize(lifted.events.data());
  }
}
BENCHMARK(BM_ExecutionTraceAndLift);

/// Lift alone, over the execution traces of every candidate run of one
/// frame (arg 0: an ADMmutate exploit, arg 1: a 1.4 KB benign payload).
/// Items are lifted instructions.
void BM_Lift(benchmark::State& state) {
  const bool benign = state.range(0) == 1;
  const util::Bytes frame = benign ? benign_blob(1400) : poly_sample();
  const arch::Arch& isa = arch::Arch::x86_32();
  arch::ScanScratch scratch;
  std::vector<arch::CodeRun> runs;
  isa.find_code_runs(frame, 6, runs, scratch);
  std::vector<std::vector<arch::Instruction>> traces;
  std::size_t insns = 0;
  for (const arch::CodeRun& run : runs) {
    std::vector<arch::Instruction> trace;
    isa.execution_trace(frame, run.start, 4096, trace, scratch);
    if (trace.size() < 6) continue;
    insns += trace.size();
    traces.push_back(std::move(trace));
  }
  ir::LiftResult lifted;
  for (auto _ : state) {
    for (const auto& trace : traces) {
      ir::lift(trace, lifted);
      benchmark::DoNotOptimize(lifted.events.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * insns));
  state.SetLabel(benign ? "benign 1.4 KB" : "admmutate");
}
BENCHMARK(BM_Lift)->Arg(0)->Arg(1);

void BM_TemplateMatch(benchmark::State& state) {
  const util::Bytes code = poly_sample();
  arch::ScanScratch scratch;
  std::vector<arch::Instruction> trace;
  arch::Arch::x86_32().execution_trace(code, 0, 4096, trace, scratch);
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  semantic::LiftedCode lc{&trace, &lifted.events, code};
  const auto& t = semantic::builtin_template("xor-decrypt-loop");
  for (auto _ : state) {
    benchmark::DoNotOptimize(semantic::match_template(t, lc));
  }
}
BENCHMARK(BM_TemplateMatch);

/// Every standard template, anchor-filtered as analyze() does, over the
/// lifted traces of every candidate entry of 12 generated exploits
/// (ADMmutate, Clet and plain shellcode, each in an overflow frame).
/// Items are match tries.
void BM_MatchLibrary(benchmark::State& state) {
  const arch::Arch& isa = arch::Arch::x86_32();
  const auto shells = gen::make_shell_spawn_corpus();
  struct Lifted {
    util::Bytes frame;
    std::vector<arch::Instruction> trace;
    ir::LiftResult lifted;
  };
  std::vector<std::unique_ptr<Lifted>> traces;
  arch::ScanScratch scan;
  std::vector<arch::CodeRun> runs;
  std::vector<std::size_t> entries;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Prng prng(seed);
    const util::Bytes& shell = shells[seed % shells.size()].code;
    const util::Bytes code = seed % 3 == 0   ? shell
                             : seed % 3 == 1 ? gen::admmutate_encode(shell, prng).bytes
                                             : gen::clet_encode(shell, prng).bytes;
    const util::Bytes frame = gen::wrap_in_overflow(code, prng);
    (void)isa.find_entries(frame, 0, frame.size(), 6, 4096, 8192, runs, entries, scan);
    for (std::size_t entry : entries) {
      auto t = std::make_unique<Lifted>();
      t->frame = frame;
      isa.execution_trace(frame, entry, 4096, t->trace, scan);
      if (t->trace.size() < 6) continue;
      ir::lift(t->trace, t->lifted);
      traces.push_back(std::move(t));
    }
  }
  std::vector<semantic::MatchPlan> plans;
  for (const auto& t : semantic::make_standard_library()) plans.emplace_back(t);
  semantic::TraceFacts facts;
  std::size_t tries = 0;
  for (auto _ : state) {
    for (const auto& t : traces) {
      facts.reset(semantic::LiftedCode{&t->trace, &t->lifted.events, t->frame});
      for (const auto& plan : plans) {
        if (!semantic::anchors_admit(plan.anchors, facts.features)) continue;
        ++tries;
        benchmark::DoNotOptimize(semantic::match_template(plan, facts));
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tries));
  state.SetLabel(std::to_string(traces.size()) + " traces");
}
BENCHMARK(BM_MatchLibrary);

/// analyze() on a DAG-shaped hostile frame (arg 0: 0 = two equal or/not
/// ladders xored, 1 = a decoder loop storing an or/not ladder) with arg
/// 1 ladder steps. Exponential code doubles its time with every step.
void BM_HostileDag(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(1));
  util::Bytes frame;
  if (state.range(0) == 0) {
    frame = {0x8B, 0x06, 0x89, 0xC3};  // mov eax, [esi]; mov ebx, eax
    for (std::size_t i = 0; i < n; ++i) frame.insert(frame.end(), {0x89, 0xC2, 0xF7, 0xD2, 0x09, 0xD0});
    for (std::size_t i = 0; i < n; ++i) frame.insert(frame.end(), {0x89, 0xDA, 0xF7, 0xD2, 0x09, 0xD3});
    frame.insert(frame.end(), {0x31, 0xD8});  // xor eax, ebx
    frame.insert(frame.end(), 6, 0x90);
  } else {
    frame = {0x8A, 0x06};  // mov al, [esi]
    for (std::size_t i = 0; i < n; ++i) frame.insert(frame.end(), {0x88, 0xC3, 0xF6, 0xD3, 0x08, 0xD8});
    frame.insert(frame.end(), {0x88, 0x06, 0x46, 0x49, 0x0F, 0x85});  // mov [esi], al ... jnz
    const auto rel = static_cast<std::uint32_t>(-static_cast<std::int64_t>(frame.size() + 4));
    for (int shift = 0; shift < 32; shift += 8) frame.push_back(static_cast<std::uint8_t>(rel >> shift));
  }
  semantic::SemanticAnalyzer analyzer(semantic::make_standard_library());
  semantic::AnalyzerScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(frame, nullptr, scratch));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * frame.size()));
  state.SetLabel(state.range(0) == 0 ? "equal ladders" : "ladder decoder");
}
BENCHMARK(BM_HostileDag)->ArgsProduct({{0, 1}, {16, 24, 40}});

/// analyze() on one ADMmutate exploit, and below on one 1.4 KB benign
/// payload, each call with a fresh scratch: the cost of a frame
/// analyzed cold, buffers allocated included.
void BM_AnalyzeExploitFrame(benchmark::State& state) {
  semantic::SemanticAnalyzer analyzer(semantic::make_standard_library());
  const util::Bytes code = poly_sample();
  for (auto _ : state) {
    semantic::AnalyzerScratch scratch;
    benchmark::DoNotOptimize(analyzer.analyze(code, nullptr, scratch));
  }
}
BENCHMARK(BM_AnalyzeExploitFrame);

void BM_AnalyzeBenignFrame(benchmark::State& state) {
  semantic::SemanticAnalyzer analyzer(semantic::make_standard_library());
  const util::Bytes blob = benign_blob(1400);  // one MTU-sized payload
  for (auto _ : state) {
    semantic::AnalyzerScratch scratch;
    benchmark::DoNotOptimize(analyzer.analyze(blob, nullptr, scratch));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_AnalyzeBenignFrame);

/// One wrapped ADMmutate exploit analyzed as NidsEngine::analyze_payload
/// runs a unit: extract, begin_unit, then every frame, the raw ones as
/// windows of the payload that share its decode and their traces. Bytes
/// are payload bytes.
void BM_AnalyzeUnit(benchmark::State& state) {
  util::Prng prng(3);
  const util::Bytes payload = gen::wrap_in_overflow(
      gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, prng).bytes, prng);
  const extract::BinaryExtractor extractor;
  const semantic::SemanticAnalyzer analyzer(semantic::make_standard_library());
  semantic::AnalyzerScratch scratch;
  std::vector<extract::BinaryFrame> frames;
  for (auto _ : state) {
    extractor.extract(payload, frames);
    analyzer.begin_unit(scratch, payload);
    for (const extract::BinaryFrame& frame : frames) {
      const std::optional<std::size_t> window =
          extract::is_payload_window(frame.reason) ? std::optional(frame.src_offset)
                                                   : std::nullopt;
      benchmark::DoNotOptimize(analyzer.analyze(frame.data, window, nullptr, scratch));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * payload.size()));
  state.SetLabel(std::to_string(frames.size()) + " frames");
}
BENCHMARK(BM_AnalyzeUnit);

void BM_ExtractCodeRed(benchmark::State& state) {
  extract::BinaryExtractor extractor;
  const util::Bytes req = gen::make_code_red_ii_request();
  for (auto _ : state) {
    // A fresh vector per pass: each pass pays the vector allocation.
    std::vector<extract::BinaryFrame> frames;
    extractor.extract(req, frames);
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * req.size()));
}
BENCHMARK(BM_ExtractCodeRed);

void BM_ExtractBenign(benchmark::State& state) {
  extract::BinaryExtractor extractor;
  const util::Bytes blob = benign_blob(1400);
  for (auto _ : state) {
    // A fresh vector per pass: each pass pays the vector allocation.
    std::vector<extract::BinaryFrame> frames;
    extractor.extract(blob, frames);
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_ExtractBenign);

void BM_SignatureScan(benchmark::State& state) {
  sig::SignatureEngine engine(sig::make_default_rules());
  const util::Bytes blob = benign_blob(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.scan(blob, 80));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_SignatureScan)->Arg(64 << 10);

void BM_EmulateDecoder(benchmark::State& state) {
  const util::Bytes code = poly_sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(emu::emulate_frame(code));
  }
}
BENCHMARK(BM_EmulateDecoder);

void BM_EmulatorSteps(benchmark::State& state) {
  // Raw interpreter speed: a tight counted loop.
  const util::Bytes code = [] {
    gen::Asm a;
    auto head = a.new_label();
    a.mov_r32_imm32(gen::R32::ecx, 10000);
    a.bind(head);
    a.inc_r32(gen::R32::eax);
    a.loop_(head);
    a.raw8(0xF4);
    return a.finish();
  }();
  std::size_t steps = 0;
  for (auto _ : state) {
    emu::VirtualMemory mem(code);
    emu::Cpu cpu(mem, emu::kFrameBase);
    cpu.run(1 << 20);
    steps += cpu.steps();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_EmulatorSteps);

void BM_PcapParse(benchmark::State& state) {
  pcap::Capture cap;
  util::Prng prng(3);
  for (int i = 0; i < 1000; ++i) cap.add(i, 0, prng.bytes(600));
  const util::Bytes data = pcap::serialize(cap);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcap::parse(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_PcapParse);

}  // namespace

BENCHMARK_MAIN();
