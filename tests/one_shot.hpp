// One-shot scan, trace, extraction, pattern match and analysis for tests:
// each call runs the one API form of its operation (the arch::Arch members
// with an arch::ScanScratch, BinaryExtractor::extract into a frame vector,
// PatternSet::match with a DagScratch, SemanticAnalyzer::analyze with an
// AnalyzerScratch) on fresh working memory, so nothing carries over from
// an earlier call. Also the reference for a unit's alerts: every frame
// analyzed on its own.
#pragma once

#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "extract/extractor.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/pattern.hpp"
#include "util/bytes.hpp"

namespace senids::test {

/// Decode runs of `code` of at least `min_insns` instructions, longest
/// first (arch::Arch::find_code_runs).
inline std::vector<arch::CodeRun> code_runs(util::ByteView code, std::size_t min_insns = 6,
                                            const arch::Arch& isa = arch::Arch::x86_32()) {
  std::vector<arch::CodeRun> runs;
  arch::ScanScratch scratch;
  isa.find_code_runs(code, min_insns, runs, scratch);
  return runs;
}

/// Execution-order trace of `code` from `entry`. Scans `code` first, as
/// the analyzer does, so the trace reads the decodes of these bytes.
inline std::vector<arch::Instruction> trace(util::ByteView code, std::size_t entry,
                                            std::size_t max_insns = 4096,
                                            const arch::Arch& isa = arch::Arch::x86_32()) {
  std::vector<arch::CodeRun> runs;
  std::vector<arch::Instruction> out;
  arch::ScanScratch scratch;
  isa.find_code_runs(code, 1, runs, scratch);
  isa.execution_trace(code, entry, max_insns, out, scratch);
  return out;
}

/// The frames `extractor` cuts from `payload`.
inline std::vector<extract::BinaryFrame> extract(const extract::BinaryExtractor& extractor,
                                                 util::ByteView payload) {
  std::vector<extract::BinaryFrame> frames;
  extractor.extract(payload, frames);
  return frames;
}

/// Match `e` against `p`, extending `env` by name: a one-pattern
/// semantic::PatternSet, its slots seeded from `env`. On failure `env` is
/// left unchanged.
inline bool match_expr(const semantic::PatPtr& p, ir::ExprPtr e, semantic::Env& env) {
  semantic::PatternSet set;
  const std::uint32_t root = set.add(p);
  if (set.vars().size() > semantic::kMaxTemplateVars) {
    throw std::invalid_argument("pattern uses more than " +
                                std::to_string(semantic::kMaxTemplateVars) + " variables");
  }
  semantic::Slots slots{};
  for (std::size_t i = 0; i < set.vars().size(); ++i) {
    if (auto it = env.find(set.vars()[i]); it != env.end()) slots[i] = it->second;
  }
  semantic::DagScratch dag;
  if (!set.match(root, e, slots, dag)) return false;
  for (std::size_t i = 0; i < set.vars().size(); ++i) {
    if (slots[i]) env.insert_or_assign(set.vars()[i], slots[i]);
  }
  return true;
}

/// `analyzer.analyze(frame, stats, scratch)` with a fresh scratch.
inline std::vector<semantic::Detection> analyze(const semantic::SemanticAnalyzer& analyzer,
                                                util::ByteView frame,
                                                semantic::AnalyzerStats* stats = nullptr) {
  semantic::AnalyzerScratch scratch;
  return analyzer.analyze(frame, stats, scratch);
}

/// The fields of a unit's alert that its frames decide.
struct UnitAlert {
  std::string template_name;
  extract::FrameReason frame_reason{};
  std::size_t frame_offset = 0;
};

/// Reference for a unit's static alerts, the per-frame semantics: every
/// frame `extractor` cuts from `payload` analyzed on its own (a one-frame
/// unit at offset 0, on fresh working memory), the detections kept in
/// frame order, each template name once.
inline std::vector<UnitAlert> per_frame_alerts(const extract::BinaryExtractor& extractor,
                                               const semantic::SemanticAnalyzer& analyzer,
                                               util::ByteView payload) {
  std::vector<UnitAlert> out;
  std::set<std::string> fired;
  for (const extract::BinaryFrame& frame : extract(extractor, payload)) {
    for (semantic::Detection& d : analyze(analyzer, frame.data)) {
      if (fired.insert(d.template_name).second) {
        out.push_back({std::move(d.template_name), frame.reason, frame.src_offset});
      }
    }
  }
  return out;
}

}  // namespace senids::test
