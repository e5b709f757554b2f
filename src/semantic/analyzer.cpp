#include "semantic/analyzer.hpp"

#include <algorithm>
#include <chrono>

#include "ir/lifter.hpp"
#include "obs/metrics.hpp"
#include "arch/arch.hpp"
#include "arch/scan.hpp"

namespace senids::semantic {

namespace {

/// Process-wide analyzer counters, registered once. Sharded increments:
/// every worker thread funnels through here.
struct AnalyzerMetrics {
  obs::Counter& frames;
  obs::Counter& runs;
  obs::Counter& traces;
  obs::Counter& insns_lifted;
  obs::Counter& matches_tried;
  obs::Counter& templates_skipped;
  obs::Counter& entry_budget_exhausted;
  obs::Counter& insn_budget_exhausted;
};

AnalyzerMetrics& analyzer_metrics() {
  auto& r = obs::Registry::instance();
  static AnalyzerMetrics m{
      r.counter("senids_analyzer_frames_total", "Frames run through the semantic analyzer"),
      r.counter("senids_analyzer_runs_total", "Candidate decode runs found"),
      r.counter("senids_analyzer_traces_total", "Execution traces lifted to IR"),
      r.counter("senids_analyzer_insns_lifted_total", "Instructions lifted to IR"),
      r.counter("senids_analyzer_matches_tried_total", "Template match attempts"),
      r.counter("senids_analyzer_templates_skipped_total",
                "Templates not tried on a trace that lacks their anchor features"),
      r.counter("senids_analyzer_entry_budget_exhausted_total",
                "Frames that filled the candidate-entry budget"),
      r.counter("senids_analyzer_insn_budget_exhausted_total",
                "Frames that burned the per-frame instruction budget"),
  };
  return m;
}

/// Accumulating stopwatch that reads the clock only while metrics are on.
class StageClock {
 public:
  explicit StageClock(bool active) : active_(active) {}
  void start() noexcept {
    if (active_) t0_ = std::chrono::steady_clock::now();
  }
  void stop(double& into) noexcept {
    if (active_) {
      into += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
    }
  }

 private:
  bool active_;
  std::chrono::steady_clock::time_point t0_{};
};

std::vector<AnchorWord> anchors_of(const std::vector<Template>& templates) {
  std::vector<AnchorWord> anchors;
  anchors.reserve(templates.size());
  for (const Template& t : templates) anchors.push_back(template_anchors(t));
  return anchors;
}

}  // namespace

SemanticAnalyzer::SemanticAnalyzer(std::vector<Template> templates, Options options)
    : SemanticAnalyzer(
          std::make_shared<const std::vector<Template>>(std::move(templates)),
          std::move(options)) {}

SemanticAnalyzer::SemanticAnalyzer(std::shared_ptr<const std::vector<Template>> templates,
                                   Options options)
    : templates_(std::move(templates)),
      anchors_(anchors_of(*templates_)),
      options_(std::move(options)) {}

std::vector<Detection> SemanticAnalyzer::analyze(util::ByteView frame,
                                                 AnalyzerStats* stats) const {
  AnalyzerScratch scratch;
  return analyze(frame, stats, scratch);
}

std::vector<Detection> SemanticAnalyzer::analyze(util::ByteView frame, AnalyzerStats* stats,
                                                 AnalyzerScratch& scratch) const {
  const std::vector<Template>& templates = *templates_;
  const arch::Arch& isa = options_.arch ? *options_.arch : arch::Arch::x86_32();
  std::vector<Detection> detections;
  if (frame.empty()) return detections;
  AnalyzerMetrics& metrics = analyzer_metrics();
  metrics.frames.add();
  if (stats) ++stats->frames;
  StageClock clock(obs::metrics_enabled());

  // 1. Candidate entry points: starts of maximal decode runs, plus the
  //    targets of backward branches inside them (loop heads — needed when
  //    a run begins inside an already-unrolled loop body).
  clock.start();
  std::vector<std::size_t>& entries = scratch.entries;
  entries.clear();
  std::vector<arch::CodeRun>& runs = scratch.runs;
  isa.find_code_runs(frame, options_.min_run_insns, runs, scratch.scan);
  metrics.runs.add(runs.size());
  if (stats) stats->candidate_runs += runs.size();
  // Long decode runs first: real code (decoders, shellcode bodies) forms
  // long coherent runs, while text/noise fragments into thousands of
  // short ones. Without this ordering a large frame can exhaust the
  // entry budget on noise before reaching the payload.
  std::stable_sort(runs.begin(), runs.end(), [](const arch::CodeRun& a,
                                                const arch::CodeRun& b) {
    return a.insn_count > b.insn_count;
  });
  std::vector<char>& seen = scratch.entry_seen;
  seen.assign(frame.size(), 0);
  bool entry_budget_hit = false;
  auto add_entry = [&](std::size_t off) {
    if (off >= frame.size() || seen[off]) return;
    seen[off] = 1;
    if (entries.size() >= options_.max_entries) {
      entry_budget_hit = true;
      return;
    }
    entries.push_back(off);
  };
  for (const auto& run : runs) {
    if (entries.size() >= options_.max_entries) break;
    add_entry(run.start);
    isa.linear_sweep(frame, run.start, options_.max_trace_insns, scratch.entry_sweep);
    for (const auto& insn : scratch.entry_sweep) {
      if (auto target = insn.branch_target(); target && *target < insn.offset) {
        add_entry(*target);
      }
      // The byte after a call is the classic GetPC data/payload location;
      // once a decoder has been unrolled (or emulated away) it is also
      // where the real payload's code begins.
      if (insn.mnemonic == arch::Mnemonic::kCall) {
        add_entry(insn.end_offset());
      }
    }
  }
  double disasm_seconds = 0.0;
  clock.stop(disasm_seconds);

  // 2. Trace + lift + match. Stop trying a template once it has fired on
  //    this frame (one detection per template per frame).
  double lift_seconds = 0.0;
  double match_seconds = 0.0;
  bool insn_budget_hit = false;
  std::vector<char>& fired = scratch.fired;
  fired.assign(templates.size(), 0);
  std::size_t fired_count = 0;
  std::size_t lifted_budget = options_.max_total_insns;
  std::vector<arch::Instruction>& trace = scratch.trace;
  ir::LiftResult& lifted = scratch.lifted;
  for (std::size_t entry : entries) {
    if (fired_count == templates.size()) break;
    if (lifted_budget == 0) {  // per-frame work cap reached
      insn_budget_hit = true;
      break;
    }
    clock.start();
    isa.execution_trace(frame, entry, std::min(options_.max_trace_insns, lifted_budget),
                        trace, scratch.scan);
    clock.stop(disasm_seconds);
    if (trace.size() < options_.min_run_insns) continue;
    lifted_budget -= std::min(lifted_budget, trace.size());
    metrics.traces.add();
    metrics.insns_lifted.add(trace.size());
    if (stats) {
      ++stats->traces;
      stats->instructions_lifted += trace.size();
    }
    clock.start();
    ir::lift(trace, lifted);
    clock.stop(lift_seconds);
    if (options_.post_lift_hook) options_.post_lift_hook(trace, lifted);
    LiftedCode code{&trace, &lifted.events, frame};
    clock.start();
    const AnchorWord features = trace_anchors(lifted.events);
    std::size_t tried = 0, skipped = 0;
    for (std::size_t ti = 0; ti < templates.size(); ++ti) {
      if (fired[ti]) continue;
      if (!anchors_admit(anchors_[ti], features)) {
        ++skipped;
        continue;
      }
      ++tried;
      const Template& t = templates[ti];
      if (auto m = match_template(t, code)) {
        fired[ti] = 1;
        ++fired_count;
        Detection d;
        d.template_name = t.name;
        d.threat = t.threat;
        d.entry_offset = entry;
        d.match_offset = m->start_offset;
        for (const auto& [var, value] : m->bindings) {
          d.bindings.emplace(var, ir::to_string(value));
        }
        detections.push_back(std::move(d));
      }
    }
    clock.stop(match_seconds);
    metrics.matches_tried.add(tried);
    metrics.templates_skipped.add(skipped);
    if (stats) {
      stats->template_matches_tried += tried;
      stats->templates_skipped += skipped;
    }
  }

  if (entry_budget_hit) {
    metrics.entry_budget_exhausted.add();
    if (stats) ++stats->entry_budget_exhausted;
  }
  if (insn_budget_hit) {
    metrics.insn_budget_exhausted.add();
    if (stats) ++stats->insn_budget_exhausted;
  }
  if (stats) {
    stats->disasm_seconds += disasm_seconds;
    stats->lift_seconds += lift_seconds;
    stats->match_seconds += match_seconds;
  }
  return detections;
}

}  // namespace senids::semantic
