// One-shot scan, trace and analysis for tests: each call runs the one API
// form of its operation (the arch::Arch members with an arch::ScanScratch,
// SemanticAnalyzer::analyze with an AnalyzerScratch) on fresh working
// memory, so nothing carries over from an earlier call. Also the
// reference for a unit's alerts: every frame analyzed on its own.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "extract/extractor.hpp"
#include "semantic/analyzer.hpp"
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
  for (const extract::BinaryFrame& frame : extractor.extract(payload)) {
    for (semantic::Detection& d : analyze(analyzer, frame.data)) {
      if (fired.insert(d.template_name).second) {
        out.push_back({std::move(d.template_name), frame.reason, frame.src_offset});
      }
    }
  }
  return out;
}

}  // namespace senids::test
