#include "semantic/analyzer.hpp"

#include <algorithm>
#include <chrono>

#include "ir/lifter.hpp"
#include "obs/metrics.hpp"
#include "arch/arch.hpp"

namespace senids::semantic {

namespace {

/// The senids_analyzer_*_total series, parallel to kAnalyzerCountFields.
using AnalyzerCounters = std::array<obs::Counter*, kAnalyzerCountFields.size()>;

const AnalyzerCounters& analyzer_counters() {
  static const AnalyzerCounters counters = [] {
    AnalyzerCounters c{};
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = &obs::Registry::instance().counter(kAnalyzerCountFields[i].metric,
                                                kAnalyzerCountFields[i].help);
    }
    return c;
  }();
  return counters;
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

std::vector<MatchPlan> plans_of(const std::vector<Template>& templates) {
  std::vector<MatchPlan> plans;
  plans.reserve(templates.size());
  for (const Template& t : templates) plans.emplace_back(t);
  return plans;
}

}  // namespace

void merge_analyzer(AnalyzerStats& into, const AnalyzerStats& from) {
  for (const auto& f : kAnalyzerCountFields) into.*f.field += from.*f.field;
  into.disasm_seconds += from.disasm_seconds;
  into.lift_seconds += from.lift_seconds;
  into.match_seconds += from.match_seconds;
}

SemanticAnalyzer::SemanticAnalyzer(std::vector<Template> templates, Options options)
    : templates_(std::move(templates)),
      plans_(plans_of(templates_)),
      options_(std::move(options)) {}

std::vector<Detection> SemanticAnalyzer::analyze(util::ByteView frame, AnalyzerStats* stats,
                                                 AnalyzerScratch& scratch) const {
  const arch::Arch& isa = options_.arch ? *options_.arch : arch::Arch::x86_32();
  std::vector<Detection> detections;
  // This call's counts and stage times. They are written out once, at
  // the end; an empty frame finds no runs and counts as no frame.
  AnalyzerStats counts;
  counts.frames = frame.empty() ? 0 : 1;
  StageClock clock(obs::metrics_enabled());

  // 1. Candidate entry points, from one decode of the frame: starts of
  //    maximal decode runs, longest first, plus the loop heads and
  //    post-call offsets inside them (arch::Arch::find_entries).
  clock.start();
  std::vector<std::size_t>& entries = scratch.entries;
  counts.entry_budget_exhausted =
      isa.find_entries(frame, options_.min_run_insns, options_.max_trace_insns,
                       options_.max_entries, scratch.runs, entries, scratch.scan);
  counts.candidate_runs = scratch.runs.size();
  clock.stop(counts.disasm_seconds);

  // 2. Trace + lift + match. Stop trying a template once it has fired on
  //    this frame (one detection per template per frame).
  std::vector<char>& fired = scratch.fired;
  fired.assign(templates_.size(), 0);
  std::size_t fired_count = 0;
  std::size_t lifted_budget = options_.max_total_insns;
  std::vector<arch::Instruction>& trace = scratch.trace;
  ir::LiftResult& lifted = scratch.lifted;
  for (std::size_t entry : entries) {
    if (fired_count == templates_.size()) break;
    if (lifted_budget == 0) {  // per-frame work cap reached
      counts.insn_budget_exhausted = 1;
      break;
    }
    clock.start();
    isa.execution_trace(frame, entry, std::min(options_.max_trace_insns, lifted_budget),
                        trace, scratch.scan);
    clock.stop(counts.disasm_seconds);
    if (trace.size() < options_.min_run_insns) continue;
    lifted_budget -= std::min(lifted_budget, trace.size());
    ++counts.traces;
    counts.instructions_lifted += trace.size();
    clock.start();
    ir::lift(trace, lifted);
    clock.stop(counts.lift_seconds);
    if (options_.post_lift_hook) options_.post_lift_hook(trace, lifted);
    clock.start();
    TraceFacts& facts = scratch.facts;
    facts.reset(LiftedCode{&trace, &lifted.events, frame});
    for (std::size_t ti = 0; ti < templates_.size(); ++ti) {
      if (fired[ti]) continue;
      if (!anchors_admit(plans_[ti].anchors, facts.features)) {
        ++counts.templates_skipped;
        continue;
      }
      ++counts.template_matches_tried;
      const Template& t = templates_[ti];
      if (auto m = match_template(plans_[ti], facts)) {
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
    clock.stop(counts.match_seconds);
  }

  const AnalyzerCounters& counters = analyzer_counters();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (const std::size_t n = counts.*kAnalyzerCountFields[i].field) counters[i]->add(n);
  }
  if (stats) merge_analyzer(*stats, counts);
  return detections;
}

}  // namespace senids::semantic
