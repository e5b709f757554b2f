// The semantic-analysis stage (stages c-e of Figure 3): takes a binary
// frame, finds candidate code, lifts it, and matches the template set.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/lifter.hpp"
#include "semantic/template.hpp"
#include "util/bytes.hpp"
#include "arch/scan.hpp"

namespace senids::arch {
class Arch;
}  // namespace senids::arch

namespace senids::semantic {

struct Detection {
  std::string template_name;
  ThreatClass threat{};
  std::size_t entry_offset = 0;  // code entry within the frame
  std::size_t match_offset = 0;  // first matched instruction
  Env bindings;
};

/// A count field of a stats struct: its name and where it lives. The
/// count fields of AnalyzerStats and core::NidsStats are each declared
/// once, as an X-macro list, and every merge, rendering and parity check
/// loops over the matching array of these.
template <class Stats>
struct CountField {
  const char* name;
  std::size_t Stats::*field;
};

#define SENIDS_DECLARE_COUNT_FIELD(name) std::size_t name = 0;

/// The count fields of AnalyzerStats, declared once.
#define SENIDS_ANALYZER_COUNT_FIELDS(X)                                        \
  X(frames)                                                                    \
  X(candidate_runs)                                                            \
  X(traces)                                                                    \
  X(instructions_lifted)                                                       \
  X(template_matches_tried)                                                    \
  /* Work-budget bailouts: frames that filled the candidate-entry budget       \
     (max_entries) or burned the per-frame instruction budget                  \
     (max_total_insns). A spike is itself a signal — adversarial frames        \
     shaped to exhaust the analyzer look exactly like this. */                 \
  X(entry_budget_exhausted)                                                    \
  X(insn_budget_exhausted)

struct AnalyzerStats {
  SENIDS_ANALYZER_COUNT_FIELDS(SENIDS_DECLARE_COUNT_FIELD)
  /// Per-stage wall time inside analyze(): candidate scan + execution
  /// tracing (disasm), x86 -> IR (lift), template matching (match).
  /// Only accumulated while obs::metrics_enabled(); zero otherwise.
  double disasm_seconds = 0.0;
  double lift_seconds = 0.0;
  double match_seconds = 0.0;
};

#define SENIDS_ANALYZER_COUNT_ENTRY(name) \
  CountField<AnalyzerStats>{#name, &AnalyzerStats::name},
inline constexpr std::array kAnalyzerCountFields{
    SENIDS_ANALYZER_COUNT_FIELDS(SENIDS_ANALYZER_COUNT_ENTRY)};
#undef SENIDS_ANALYZER_COUNT_ENTRY

/// Reusable per-worker working memory for analyze(). Every buffer the
/// frame loop fills — candidate runs, entry offsets, the execution
/// trace, the lifted IR events, plus the scanner's internal arrays —
/// lives here, so a worker that keeps one scratch across calls analyzes
/// frames without per-frame heap churn (buffers grow to the high-water
/// mark and are then reused). Not thread-safe; one per worker thread.
/// Passing no scratch (the classic analyze() signature) allocates a
/// transient one per call, which is the old behaviour exactly.
struct AnalyzerScratch {
  arch::ScanScratch scan;
  std::vector<arch::CodeRun> runs;
  std::vector<std::size_t> entries;
  std::vector<arch::Instruction> entry_sweep;  // linear sweep per run
  std::vector<arch::Instruction> trace;
  ir::LiftResult lifted;
  std::vector<char> entry_seen;   // offset dedup bitmap, frame-sized
  std::vector<char> fired;        // per-template "already fired" flags
};

/// Thread-compatible analyzer: `analyze` is const and side-effect free
/// apart from the stats/scratch objects the caller passes in. The
/// template library is held behind a shared_ptr, so per-worker analyzer
/// clones (make per-worker instances via the sharing constructor) all
/// read one immutable template set — cloning an analyzer never copies
/// the templates.
class SemanticAnalyzer {
 public:
  struct Options {
    /// Architecture whose decoder/scanner rules govern the candidate
    /// scan and execution tracing (the lifter and def/use tables key off
    /// Instruction::mode, so everything downstream follows). nullptr =
    /// arch::Arch::x86_32(), the classic pipeline.
    const arch::Arch* arch = nullptr;
    std::size_t min_run_insns = 6;     // candidate-run threshold
    /// Entry points tried per frame. Large by default: the paper's system
    /// disassembles whole samples; per-entry cost here is microseconds,
    /// and the loop exits early once every template has fired.
    std::size_t max_entries = 8192;
    std::size_t max_trace_insns = 4096;
    /// Hard per-frame work budget: total instructions lifted across all
    /// entries. Bounds the worst case on pathological frames (the entry
    /// count alone does not, since each entry may trace thousands of
    /// instructions).
    std::size_t max_total_insns = 1u << 20;
    /// Verification hook invoked after every lift with the traced
    /// instructions and the lifted result. Empty = disabled (the default;
    /// NidsEngine installs senids::verify::verify_ir here in debug
    /// builds). Must be thread-safe: with threads > 1 every worker calls
    /// it concurrently. Runs outside the lift stage clock.
    std::function<void(const std::vector<arch::Instruction>&, const ir::LiftResult&)>
        post_lift_hook;
  };

  explicit SemanticAnalyzer(std::vector<Template> templates)
      : SemanticAnalyzer(std::move(templates), Options{}) {}
  SemanticAnalyzer(std::vector<Template> templates, Options options);
  /// Sharing constructor: the per-worker clone path. The new analyzer
  /// reads the same immutable template set as every sibling.
  SemanticAnalyzer(std::shared_ptr<const std::vector<Template>> templates, Options options);

  /// Analyze one binary frame; returns at most one detection per template.
  std::vector<Detection> analyze(util::ByteView frame, AnalyzerStats* stats = nullptr) const;
  /// Scratch-reusing form for the worker hot loop (see AnalyzerScratch).
  std::vector<Detection> analyze(util::ByteView frame, AnalyzerStats* stats,
                                 AnalyzerScratch& scratch) const;

  [[nodiscard]] const std::vector<Template>& templates() const noexcept { return *templates_; }
  /// The shared template set, for constructing per-worker clones.
  [[nodiscard]] const std::shared_ptr<const std::vector<Template>>& shared_templates()
      const noexcept {
    return templates_;
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  std::shared_ptr<const std::vector<Template>> templates_;
  Options options_;
};

}  // namespace senids::semantic
