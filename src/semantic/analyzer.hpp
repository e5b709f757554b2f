// The semantic-analysis stage (stages c-e of Figure 3): takes a binary
// frame, finds candidate code, lifts it, and matches the template set.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
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
  /// Each template variable rendered by ir::to_string when the detection
  /// was made. Owned strings, so they outlive the lift they came from.
  std::map<std::string, std::string, std::less<>> bindings;
};

/// A count field of a stats struct: its name and where it lives. The
/// count fields of AnalyzerStats and core::NidsStats are each declared
/// once, as an X-macro list, and every merge, rendering and parity check
/// loops over the matching array of these. A field that has its own
/// registry series also names it (`metric`, `help`).
template <class Stats>
struct CountField {
  const char* name;
  std::size_t Stats::*field;
  const char* metric = nullptr;
  const char* help = nullptr;
};

#define SENIDS_DECLARE_COUNT_FIELD(name, ...) std::size_t name = 0;

/// The count fields of AnalyzerStats, declared once, each with the
/// suffix and help text of its senids_analyzer_<suffix>_total series.
#define SENIDS_ANALYZER_COUNT_FIELDS(X)                                        \
  X(frames, frames, "Frames run through the semantic analyzer")               \
  X(candidate_runs, runs, "Candidate decode runs found")                       \
  X(bytes_decoded, bytes_decoded,                                              \
    "Offsets the candidate scan decoded, each window offset once per unit")    \
  /* A unit's raw frames are windows of its payload: a trace an earlier      \
     window of the unit already lifted and matched counts as shared, and is    \
     neither lifted nor counted in traces / instructions_lifted again. */      \
  X(traces, traces,                                                            \
    "Execution traces lifted to IR, each payload trace once per unit")         \
  X(traces_shared, traces_shared,                                              \
    "Traces skipped because an earlier window of the unit analyzed the same "  \
    "payload trace")                                                           \
  X(instructions_lifted, insns_lifted,                                         \
    "Instructions lifted to IR, at most max_total_insns per unit")             \
  /* match_template calls that ran, and templates left untried on a trace     \
     because the trace lacks a feature the template's anchors require. On a    \
     frame where nothing fires, tried + skipped = traces x templates. */       \
  X(template_matches_tried, matches_tried, "Template match attempts")          \
  X(templates_skipped, templates_skipped,                                      \
    "Templates not tried on a trace that lacks their anchor features")         \
  /* Work-budget bailouts, at most one of each per unit: units that left a   \
     candidate entry untried because the unit's entry budget (max_entries)     \
     was full, or burned the unit's instruction budget (max_total_insns). A    \
     spike is itself a signal — adversarial payloads shaped to exhaust the     \
     analyzer look exactly like this. */                                       \
  X(entry_budget_exhausted, entry_budget_exhausted,                            \
    "Units that filled the per-unit candidate-entry budget")                   \
  X(insn_budget_exhausted, insn_budget_exhausted,                              \
    "Units that burned the per-unit instruction budget")

struct AnalyzerStats {
  SENIDS_ANALYZER_COUNT_FIELDS(SENIDS_DECLARE_COUNT_FIELD)
  /// Per-stage wall time inside analyze(): candidate scan + execution
  /// tracing (disasm), x86 -> IR (lift), template matching (match).
  /// Only accumulated while obs::metrics_enabled(); zero otherwise.
  double disasm_seconds = 0.0;
  double lift_seconds = 0.0;
  double match_seconds = 0.0;
};

#define SENIDS_ANALYZER_COUNT_ENTRY(name, metric, help)                 \
  CountField<AnalyzerStats>{#name, &AnalyzerStats::name,                 \
                            "senids_analyzer_" #metric "_total", help},
inline constexpr std::array kAnalyzerCountFields{
    SENIDS_ANALYZER_COUNT_FIELDS(SENIDS_ANALYZER_COUNT_ENTRY)};
#undef SENIDS_ANALYZER_COUNT_ENTRY

/// Adds every count and stage time of `from` into `into`.
void merge_analyzer(AnalyzerStats& into, const AnalyzerStats& from);

/// Reusable per-worker working memory for analyze(). Every buffer the
/// frame loop fills — candidate runs, entry offsets, the execution
/// trace, the lifted IR events and their expression arena, plus the
/// scanner's internal arrays — lives here, so a worker that keeps one
/// scratch across calls analyzes frames without per-frame heap churn
/// (buffers grow to the high-water mark and are then reused). Not
/// thread-safe; one per worker thread, so no expression node is ever
/// shared between threads. A one-off caller passes a fresh scratch.
/// `scan` holds the unit's payload decode table, filled as its windows
/// are scanned and dropped by begin_unit, so reusing a scratch on a
/// payload buffer rewritten in place is safe once the new unit begins.
/// A transformed frame is scanned afresh in `frame_scan`, so it never
/// evicts the payload's table in the middle of a unit.
struct AnalyzerScratch {
  arch::ScanScratch scan;
  arch::ScanScratch frame_scan;
  std::vector<arch::CodeRun> runs;
  std::vector<std::size_t> entries;
  std::vector<arch::Instruction> trace;
  ir::LiftResult lifted;
  TraceFacts facts;  // the lifted trace's, shared by every template

  /// The analysis unit the frames belong to (SemanticAnalyzer::begin_unit
  /// starts one; the buffers are kept across units).
  struct Unit {
    util::ByteView payload;  // the bytes its windows are cut from
    std::vector<char> fired;  // per template: fired on this unit
    std::size_t fired_count = 0;
    /// The key (payload offset, length, capped) of every trace an earlier
    /// window of the unit analyzed, sorted; the current window's are in
    /// `fresh` until it ends, and `merged` is the buffer that merges them.
    std::vector<std::uint64_t> seen, fresh, merged;
    std::size_t entries_left = 0;  // of max_entries
    std::size_t insns_left = 0;    // of max_total_insns
    bool entry_budget_hit = false;
    bool insn_budget_hit = false;
  } unit;
};

/// Thread-safe analyzer: `analyze` is const and writes only the
/// stats/scratch objects the caller passes in and the process-wide
/// senids_analyzer_*_total counters, so one instance serves every thread
/// (the engine keeps exactly one), each thread with its own scratch.
///
/// Each template is compiled once into a MatchPlan, which carries its
/// anchor word (template_anchors): the event features its statements
/// require. After lifting a trace, analyze() derives the trace's facts
/// once (TraceFacts) and runs match_template only for the templates whose
/// anchors the trace's features cover; any other template would fail the
/// first test of some statement on every event, so skipping it cannot
/// change the detections.
///
/// Frames are analyzed as parts of a unit (one payload): a frame cut
/// straight out of the payload is a window of it, analyzed in payload
/// coordinates, and a trace an earlier window of the unit already lifted
/// and matched is not lifted again; a template that fired on the unit is
/// not tried again; and the work budgets hold for the whole unit
/// (DESIGN.md, "A unit's frames are windows of its payload").
class SemanticAnalyzer {
 public:
  struct Options {
    /// Architecture whose decoder/scanner rules govern the candidate
    /// scan and execution tracing (the lifter and def/use tables key off
    /// Instruction::mode, so everything downstream follows). nullptr =
    /// arch::Arch::x86_32(), the classic pipeline.
    const arch::Arch* arch = nullptr;
    std::size_t min_run_insns = 6;     // candidate-run threshold
    /// Entry points listed per unit, over all its frames. Large by
    /// default: the paper's system disassembles whole samples; per-entry
    /// cost here is microseconds, and the loop exits early once every
    /// template has fired.
    std::size_t max_entries = 8192;
    std::size_t max_trace_insns = 4096;
    /// Hard per-unit work budget: total instructions lifted across all
    /// entries of all its frames. Bounds the worst case on pathological
    /// payloads (the entry count alone does not, since each entry may
    /// trace thousands of instructions), however many frames they yield.
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

  /// Starts a new unit of `payload` in `scratch`: no template has fired
  /// on it, no trace or offset of it has been analyzed (the payload's
  /// decode table is dropped: the buffer may be an earlier unit's storage
  /// rewritten), and its budgets are full. `payload` must stay alive and
  /// unchanged until the unit's last analyze() call.
  void begin_unit(AnalyzerScratch& scratch, util::ByteView payload) const;

  /// Analyze one frame of the unit begun in `scratch`; returns at most
  /// one detection per template, and none for a template that already
  /// fired on the unit. `window` is the payload offset of the frame's
  /// first byte when the frame is a raw substring of the unit's payload
  /// (`frame` then equals payload[*window, *window + frame.size())),
  /// and nullopt for a transformed buffer (decoded or emulated), whose
  /// offsets are its own and whose traces are shared with no other
  /// frame. A window is scanned in the payload's decode table, so each
  /// payload offset is decoded at most once per unit. Detection offsets
  /// are frame offsets either way.
  /// The frame must be smaller than 4 GiB: instruction offsets and the
  /// scanner's per-offset arrays are 32-bit. Units are capped far below
  /// that by NidsOptions::max_stream_bytes.
  /// The frame's counts go out once, on the way out: merged into `*stats`
  /// when given, and added to the senids_analyzer_*_total counters.
  /// `scratch` is the caller's working memory (see AnalyzerScratch).
  std::vector<Detection> analyze(util::ByteView frame, std::optional<std::size_t> window,
                                 AnalyzerStats* stats, AnalyzerScratch& scratch) const;

  /// Analyze a standalone frame: a one-frame unit at payload offset 0.
  std::vector<Detection> analyze(util::ByteView frame, AnalyzerStats* stats,
                                 AnalyzerScratch& scratch) const {
    begin_unit(scratch, frame);
    return analyze(frame, 0, stats, scratch);
  }

  /// Makes the templates named `name` triable again on the unit in
  /// `scratch` (a caller that withdraws their alert).
  void forget_fired(std::string_view name, AnalyzerScratch& scratch) const;

  [[nodiscard]] const std::vector<Template>& templates() const noexcept { return templates_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  std::vector<Template> templates_;
  /// The compiled form of each template, parallel to templates_.
  std::vector<MatchPlan> plans_;
  Options options_;
};

}  // namespace senids::semantic
