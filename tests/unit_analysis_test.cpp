// A unit's frames analyzed as one unit: raw frames are windows of the
// payload that share their traces, a fired template is not retried, and
// the work budgets hold for the whole unit, and the windows scan one
// decode of the payload. The alerts must be those of the per-frame
// semantics (test::per_frame_alerts), the budgets must bound the unit, a
// frame's verdicts must not depend on where in the payload its window
// starts, and each payload offset a window covers is decoded once.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/senids.hpp"
#include "frame_corpus.hpp"
#include "gen/mailworm.hpp"
#include "gen/poly.hpp"
#include "one_shot.hpp"

namespace senids::core {
namespace {

/// An overflow whose shellcode points ebx back at "/bin/sh" in the
/// request line, before the filler: `call $+5; pop ebx; sub ebx, d;
/// xor ecx, ecx; xor edx, edx; xor eax, eax; mov al, 0x0b; int 0x80`. The
/// frames after the filler hold the code but not the string; the
/// return-region frame, from the payload's start, holds both.
util::Bytes path_before_filler() {
  gen::OverflowOptions layout;
  layout.preamble = "GET /bin/sh?arg=";
  const std::size_t code_at = layout.preamble.size() + layout.filler_len + layout.sled_len;
  gen::Asm a;
  a.raw(util::Bytes{0xE8, 0x00, 0x00, 0x00, 0x00});  // call $+5
  a.pop_r32(gen::R32::ebx);
  a.sub_r32_imm(gen::R32::ebx, static_cast<std::int32_t>(code_at + 5 - 4));
  a.xor_r32_r32(gen::R32::ecx, gen::R32::ecx);
  a.xor_r32_r32(gen::R32::edx, gen::R32::edx);
  a.xor_r32_r32(gen::R32::eax, gen::R32::eax);
  a.mov_r8_imm8(gen::R8::al, 0x0b);
  a.int_imm(0x80);
  util::Prng prng(11);
  return gen::wrap_in_overflow(a.finish(), prng, layout);
}

/// Payloads of every shape the reference test runs: the scan corpus,
/// more ADMmutate and Clet instances, the shell-spawn corpus and the
/// ExploitBuilder64 corpus (bare and wrapped), Code Red II raw and
/// %u-decoded, and the hostile frames wrapped in an overflow so that
/// they yield at least four frames.
std::vector<std::pair<std::string, util::Bytes>> unit_corpus() {
  auto out = test_corpus::scan_corpus();
  const auto shells = gen::make_shell_spawn_corpus();
  util::Prng prng(77);
  for (int i = 0; i < 4; ++i) {
    const auto& code = shells[static_cast<std::size_t>(i) % shells.size()].code;
    out.emplace_back("wrapped admmutate " + std::to_string(i),
                     gen::wrap_in_overflow(gen::admmutate_encode(code, prng).bytes, prng));
    out.emplace_back("wrapped clet " + std::to_string(i),
                     gen::wrap_in_overflow(gen::clet_encode(code, prng).bytes, prng));
  }
  for (const auto& s : shells) out.emplace_back("shell " + s.name, s.code);
  for (const auto& s : gen::ExploitBuilder64::corpus()) {
    out.emplace_back("exploit64 " + s.name, gen::ExploitBuilder64::wrap(s.code, prng));
  }
  const util::Bytes code_red = gen::make_code_red_ii_request();
  out.emplace_back("code red ii", code_red);
  out.emplace_back("code red ii %u frame", extract::decode_u_escapes(code_red).decoded);
  out.emplace_back("path before filler", path_before_filler());
  out.emplace_back("wrapped bomb", gen::wrap_in_overflow(test_corpus::analyzer_bomb(2048), prng));
  out.emplace_back("wrapped ladders",
                   gen::wrap_in_overflow(test_corpus::equal_ladders(100), prng));
  out.emplace_back("wrapped convergent",
                   gen::wrap_in_overflow(test_corpus::convergent_pattern(2048), prng));
  return out;
}

std::vector<test::UnitAlert> engine_alerts(const NidsEngine& nids, util::ByteView payload,
                                           NidsStats* stats = nullptr) {
  AnalysisContext ctx = nids.make_analysis_context();
  std::vector<test::UnitAlert> out;
  for (const Alert& a : nids.analyze_payload(ctx, payload, Alert{}, stats)) {
    out.push_back({a.template_name, a.frame_reason, a.frame_offset});
  }
  return out;
}

std::string render(const std::vector<test::UnitAlert>& alerts) {
  std::string out;
  for (const auto& a : alerts) {
    out += a.template_name + "@" + std::string(extract::frame_reason_name(a.frame_reason)) +
           "+" + std::to_string(a.frame_offset) + " ";
  }
  return out;
}

TEST(UnitAnalysis, AlertsEqualPerFrameReference) {
  const auto corpus = unit_corpus();
  std::size_t alerts = 0, multi_frame = 0, shared = 0;
  for (const arch::Arch* isa : arch::Arch::all()) {
    NidsOptions options;
    options.arch = isa;
    const NidsEngine nids(options);
    const extract::BinaryExtractor extractor(nids.options().extractor);
    AnalysisContext ctx = nids.make_analysis_context();  // reused across units
    for (const auto& [name, payload] : corpus) {
      NidsStats stats;
      std::vector<test::UnitAlert> got;
      for (const Alert& a : nids.analyze_payload(ctx, payload, Alert{}, &stats)) {
        got.push_back({a.template_name, a.frame_reason, a.frame_offset});
      }
      const auto want = test::per_frame_alerts(extractor, nids.analyzer(), payload);
      EXPECT_EQ(render(got), render(want)) << name << " under " << isa->name();
      alerts += got.size();
      multi_frame += stats.frames_extracted >= 4;
      shared += stats.analyzer.traces_shared;
    }
  }
  // The comparison is only as strong as the alerts and the sharing behind it.
  EXPECT_GT(alerts, 40u);
  EXPECT_GT(multi_frame, 10u);
  EXPECT_GT(shared, 1000u);
}

TEST(UnitAnalysis, PathOutsideAnEarlierWindowStillMatches) {
  // The earlier windows trace the shellcode but find the path outside
  // them; the return-region window runs the same trace and finds it.
  const util::Bytes payload = path_before_filler();
  for (const arch::Arch* isa : arch::Arch::all()) {
    NidsOptions options;
    options.arch = isa;
    const NidsEngine nids(options);
    const auto got = engine_alerts(nids, payload);
    const auto want = test::per_frame_alerts(
        extract::BinaryExtractor(nids.options().extractor), nids.analyzer(), payload);
    EXPECT_EQ(render(got), render(want)) << isa->name();
    EXPECT_NE(render(got).find("shell-spawn-embedded-string@return-region+0"),
              std::string::npos)
        << isa->name() << ": " << render(got);
  }
}

TEST(UnitAnalysis, LongerTraceOfALaterWindowIsAnalyzed) {
  // A counted xor decoder: `mov ecx, 64; mov edx, 0; 4 x nop; xor byte
  // [esi], 0x95; inc esi; loop; inc edx`. A window that ends before the
  // loop instruction traces 8 instructions from offset 0 and cannot
  // match; the whole frame, as the unit's next window, traces further
  // from the same offset and must lift and match that trace again.
  gen::Asm a;
  a.mov_r32_imm32(gen::R32::ecx, 64);
  a.mov_r32_imm32(gen::R32::edx, 0);
  for (int i = 0; i < 4; ++i) a.nop();
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(gen::R32::esi, 0x95);
  a.inc_r32(gen::R32::esi);
  a.loop_(head);
  a.inc_r32(gen::R32::edx);
  const util::Bytes frame = a.finish();
  const util::ByteView cut(frame.data(), frame.size() - 3);

  const semantic::SemanticAnalyzer analyzer(semantic::make_standard_library());
  semantic::AnalyzerScratch scratch;
  analyzer.begin_unit(scratch, frame);
  EXPECT_TRUE(analyzer.analyze(cut, 0, nullptr, scratch).empty());
  const auto later = analyzer.analyze(frame, 0, nullptr, scratch);
  const auto whole = test::analyze(analyzer, frame);
  ASSERT_EQ(later.size(), 1u);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(later[0].template_name, "xor-decrypt-loop");
  EXPECT_EQ(later[0].entry_offset, whole[0].entry_offset);
  EXPECT_EQ(later[0].match_offset, whole[0].match_offset);
}

TEST(UnitAnalysis, InstructionBudgetHoldsForTheWholeUnit) {
  // The wrapped bomb yields at least four frames; each would lift far more
  // than the budget on its own.
  util::Prng prng(5);
  const util::Bytes payload =
      gen::wrap_in_overflow(test_corpus::analyzer_bomb(4096), prng);
  for (const std::size_t budget : {500u, 5000u, 50000u}) {
    NidsOptions options;
    options.analyzer.max_total_insns = budget;
    const NidsEngine nids(options);
    NidsStats stats;
    engine_alerts(nids, payload, &stats);
    ASSERT_GE(stats.frames_extracted, 4u);
    EXPECT_EQ(stats.analyzer.frames, stats.frames_extracted);
    EXPECT_LE(stats.analyzer.instructions_lifted, budget) << "budget " << budget;
    EXPECT_GT(stats.analyzer.instructions_lifted, budget / 2) << "budget " << budget;
    EXPECT_EQ(stats.analyzer.insn_budget_exhausted, 1u) << "budget " << budget;
  }
}

TEST(UnitAnalysis, EntryBudgetHoldsForTheWholeUnit) {
  util::Prng prng(6);
  const util::Bytes payload =
      gen::wrap_in_overflow(test_corpus::convergent_pattern(4096), prng);
  NidsOptions options;
  options.analyzer.max_entries = 40;
  const NidsEngine nids(options);
  NidsStats stats;
  engine_alerts(nids, payload, &stats);
  ASSERT_GE(stats.frames_extracted, 4u);
  EXPECT_LE(stats.analyzer.traces + stats.analyzer.traces_shared, 40u);
  EXPECT_EQ(stats.analyzer.entry_budget_exhausted, 1u);
}

/// `frame` at payload offset `origin` of a payload of noise around it.
util::Bytes embed(util::ByteView frame, std::size_t origin, util::Prng& prng) {
  util::Bytes payload = prng.bytes(origin);
  payload.insert(payload.end(), frame.begin(), frame.end());
  const util::Bytes tail = prng.bytes(64);
  payload.insert(payload.end(), tail.begin(), tail.end());
  return payload;
}

TEST(UnitAnalysis, WindowVerdictsDoNotDependOnTheOrigin) {
  // A frame analyzed as a window at payload offset s > 0 of a payload
  // with other bytes around it traces in payload offsets; its
  // detections, in frame offsets, are the ones the frame gets on its own.
  std::size_t detections = 0;
  util::Prng prng(8);
  for (const arch::Arch* isa : arch::Arch::all()) {
    semantic::SemanticAnalyzer::Options opt;
    opt.arch = isa;
    const semantic::SemanticAnalyzer analyzer(semantic::make_standard_library(), opt);
    semantic::AnalyzerScratch scratch;
    for (const auto& [name, frame] : unit_corpus()) {
      const auto want = test::analyze(analyzer, frame);
      for (const std::size_t origin : {std::size_t{1}, std::size_t{0x1000}, std::size_t{77777}}) {
        const util::Bytes payload = embed(frame, origin, prng);
        analyzer.begin_unit(scratch, payload);
        const auto got = analyzer.analyze(util::ByteView(payload).subspan(origin, frame.size()),
                                          origin, nullptr, scratch);
        const std::string where = name + " at " + std::to_string(origin) + " under " +
                                  std::string(isa->name());
        ASSERT_EQ(got.size(), want.size()) << where;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].template_name, want[i].template_name) << where;
          EXPECT_EQ(got[i].entry_offset, want[i].entry_offset) << where;
          EXPECT_EQ(got[i].match_offset, want[i].match_offset) << where;
        }
      }
      detections += want.size();
    }
  }
  EXPECT_GT(detections, 40u);
}

TEST(UnitAnalysis, ScratchReusedAtTheSameAddress) {
  // The next unit's payload written in place over the last one's: same
  // storage, same size. Its alerts are those of a fresh scratch, so no
  // decode of the earlier bytes survives into the new unit.
  util::Prng prng(12);
  const auto shells = gen::make_shell_spawn_corpus();
  util::Bytes first = gen::wrap_in_overflow(gen::admmutate_encode(shells[1].code, prng).bytes,
                                            prng);
  util::Bytes second = gen::wrap_in_overflow(shells[0].code, prng);
  const std::size_t size = std::max(first.size(), second.size());
  first.resize(size, 0x41);
  second.resize(size, 0x41);
  for (const arch::Arch* isa : arch::Arch::all()) {
    NidsOptions options;
    options.arch = isa;
    const NidsEngine nids(options);
    ASSERT_NE(render(engine_alerts(nids, first)), render(engine_alerts(nids, second)))
        << isa->name();
    AnalysisContext ctx = nids.make_analysis_context();
    util::Bytes buffer(size);
    const std::uint8_t* storage = buffer.data();
    for (const util::Bytes* unit : {&first, &second, &first}) {
      std::copy(unit->begin(), unit->end(), buffer.begin());
      ASSERT_EQ(buffer.data(), storage);
      std::vector<test::UnitAlert> got;
      for (const Alert& a : nids.analyze_payload(ctx, buffer, Alert{})) {
        got.push_back({a.template_name, a.frame_reason, a.frame_offset});
      }
      EXPECT_EQ(render(got), render(engine_alerts(nids, *unit))) << isa->name();
    }
  }
}

/// The bytes a unit's candidate scan must decode: the union of its
/// window frames' payload ranges, plus every transformed frame whole.
std::size_t window_union_plus_transformed(const std::vector<extract::BinaryFrame>& frames,
                                          std::size_t payload_size) {
  std::vector<char> covered(payload_size, 0);
  std::size_t bytes = 0;
  for (const extract::BinaryFrame& f : frames) {
    if (!extract::is_payload_window(f.reason)) {
      bytes += f.data.size();
      continue;
    }
    std::fill_n(covered.begin() + static_cast<std::ptrdiff_t>(f.src_offset), f.data.size(), 1);
  }
  return bytes + static_cast<std::size_t>(std::count(covered.begin(), covered.end(), 1));
}

TEST(UnitAnalysis, EachWindowOffsetDecodedOnce) {
  auto corpus = unit_corpus();
  // Overflow filler, an email whose base64 attachment is an exploit, then
  // raw exploit bytes: the base64 frame sits between two windows.
  util::Prng prng(21);
  util::Bytes mail(300, 'A');
  mail.push_back('\n');
  const auto worm = gen::make_email_worm(prng).smtp_payload;
  mail.insert(mail.end(), worm.begin(), worm.end());
  const util::Bytes tail = gen::wrap_in_overflow(
      gen::clet_encode(gen::make_shell_spawn_corpus()[2].code, prng).bytes, prng);
  mail.insert(mail.end(), tail.begin(), tail.end());
  corpus.emplace_back("base64 between windows", mail);

  std::size_t between = 0, below_frame_bytes = 0;
  for (const arch::Arch* isa : arch::Arch::all()) {
    NidsOptions options;
    options.arch = isa;
    const NidsEngine nids(options);
    const extract::BinaryExtractor extractor(nids.options().extractor);
    AnalysisContext ctx = nids.make_analysis_context();
    for (const auto& [name, payload] : corpus) {
      const auto frames = test::extract(extractor, payload);
      NidsStats stats;
      nids.analyze_payload(ctx, payload, Alert{}, &stats);
      EXPECT_EQ(stats.analyzer.bytes_decoded, window_union_plus_transformed(frames, payload.size()))
          << name << " under " << isa->name();
      EXPECT_LE(stats.analyzer.bytes_decoded, stats.bytes_analyzed) << name;
      below_frame_bytes += stats.analyzer.bytes_decoded < stats.bytes_analyzed;
      for (std::size_t i = 1; i + 1 < frames.size(); ++i) {
        between += !extract::is_payload_window(frames[i].reason) &&
                   extract::is_payload_window(frames[i - 1].reason) &&
                   extract::is_payload_window(frames[i + 1].reason);
      }
    }
  }
  EXPECT_GT(between, 0u);
  EXPECT_GT(below_frame_bytes, 10u);
}

TEST(UnitAnalysis, ForgottenTemplateIsTriedAgain) {
  // A caller that withdraws a template's alert (the engine's decoder
  // confirmation) makes it triable again, on windows too.
  const semantic::SemanticAnalyzer analyzer(semantic::make_standard_library());
  util::Prng prng(3);
  const util::Bytes frame =
      gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, prng).bytes;
  semantic::AnalyzerScratch scratch;
  analyzer.begin_unit(scratch, frame);
  const auto first = analyzer.analyze(frame, 0, nullptr, scratch);
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(analyzer.analyze(frame, 0, nullptr, scratch).empty());
  analyzer.forget_fired(first[0].template_name, scratch);
  const auto again = analyzer.analyze(frame, 0, nullptr, scratch);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].template_name, first[0].template_name);
}

}  // namespace
}  // namespace senids::core
