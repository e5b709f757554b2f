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

/// A window's trace, as the unit remembers it: payload offset << 32 |
/// length << 1 | whether a search on it gave up at kMatchAttemptCap.
std::uint64_t trace_key(std::uint32_t start, std::size_t length, bool capped) {
  return std::uint64_t{start} << 32 | std::uint64_t{length} << 1 | (capped ? 1u : 0u);
}

/// Did an earlier window analyze the trace from `start` of `length`
/// instructions, or a longer one from `start`? A window's trace is a
/// prefix of the payload's trace from the same offset, so the shorter of
/// two is a prefix of the longer, and its events are the longer one's
/// first events: a template with no match on the longer trace has none
/// on the shorter, unless that search gave up at the attempt cap.
bool analyzed_before(const std::vector<std::uint64_t>& seen, std::uint32_t start,
                     std::size_t length) {
  for (auto it = std::lower_bound(seen.begin(), seen.end(), trace_key(start, length, false));
       it != seen.end() && *it >> 32 == start; ++it) {
    if ((*it & 1) == 0 || (*it & 0xffffffffu) >> 1 == length) return true;
  }
  return false;
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

void SemanticAnalyzer::begin_unit(AnalyzerScratch& scratch, util::ByteView payload) const {
  AnalyzerScratch::Unit& unit = scratch.unit;
  unit.payload = payload;
  scratch.scan.drop();
  unit.fired.assign(templates_.size(), 0);
  unit.fired_count = 0;
  unit.seen.clear();
  unit.entries_left = options_.max_entries;
  unit.insns_left = options_.max_total_insns;
  unit.entry_budget_hit = false;
  unit.insn_budget_hit = false;
}

void SemanticAnalyzer::forget_fired(std::string_view name, AnalyzerScratch& scratch) const {
  AnalyzerScratch::Unit& unit = scratch.unit;
  for (std::size_t ti = 0; ti < templates_.size(); ++ti) {
    if (unit.fired[ti] && templates_[ti].name == name) {
      unit.fired[ti] = 0;
      --unit.fired_count;
      // The traces analyzed so far were not tried against it.
      unit.seen.clear();
    }
  }
}

std::vector<Detection> SemanticAnalyzer::analyze(util::ByteView frame,
                                                 std::optional<std::size_t> window,
                                                 AnalyzerStats* stats,
                                                 AnalyzerScratch& scratch) const {
  const arch::Arch& isa = options_.arch ? *options_.arch : arch::Arch::x86_32();
  AnalyzerScratch::Unit& unit = scratch.unit;
  const std::size_t origin = window.value_or(0);
  std::vector<Detection> detections;
  // This call's counts and stage times. They are written out once, at
  // the end; an empty frame finds no runs and counts as no frame.
  AnalyzerStats counts;
  counts.frames = frame.empty() ? 0 : 1;
  StageClock clock(obs::metrics_enabled());

  // 1. Candidate entry points: starts of maximal decode runs, longest
  //    first, plus the loop heads and post-call offsets inside them
  //    (arch::Arch::find_entries), as many as the unit's entry budget has
  //    left. A window is scanned in the unit's payload decode table, in
  //    payload offsets, so an offset an earlier window decoded is not
  //    decoded again; a transformed frame is decoded afresh.
  clock.start();
  arch::ScanScratch& scan = window ? scratch.scan : scratch.frame_scan;
  const util::ByteView buffer = window ? unit.payload : frame;
  if (!window) scan.drop();  // the frame may reuse an earlier frame's storage
  const std::size_t decodes_before = scan.decodes;
  std::vector<std::size_t>& entries = scratch.entries;
  const bool entries_cut = isa.find_entries(
      buffer, origin, origin + frame.size(), options_.min_run_insns, options_.max_trace_insns,
      unit.entries_left, scratch.runs, entries, scan);
  counts.bytes_decoded = scan.decodes - decodes_before;
  unit.entries_left -= entries.size();
  if (entries_cut && !unit.entry_budget_hit) {
    unit.entry_budget_hit = true;
    counts.entry_budget_exhausted = 1;
  }
  counts.candidate_runs = scratch.runs.size();
  clock.stop(counts.disasm_seconds);

  // 2. Trace + lift + match, in payload offsets. A window's trace from
  //    payload offset p is the payload's trace from p cut where it leaves
  //    the window, so a trace that an earlier window analyzed, whole or
  //    as a prefix of a longer trace from p, cannot match a template that
  //    has not fired yet: it is skipped. Stop trying a template once it
  //    has fired on this unit (one detection per template per unit).
  unit.fresh.clear();
  std::vector<arch::Instruction>& trace = scratch.trace;
  ir::LiftResult& lifted = scratch.lifted;
  for (std::size_t entry : entries) {
    if (unit.fired_count == templates_.size()) break;
    if (unit.insns_left == 0) {  // per-unit work cap reached
      if (!unit.insn_budget_hit) {
        unit.insn_budget_hit = true;
        counts.insn_budget_exhausted = 1;
      }
      break;
    }
    clock.start();
    isa.execution_trace(buffer, entry, std::min(options_.max_trace_insns, unit.insns_left),
                        trace, scan);
    clock.stop(counts.disasm_seconds);
    if (trace.size() < options_.min_run_insns) continue;
    if (window && analyzed_before(unit.seen, trace[0].offset, trace.size())) {
      ++counts.traces_shared;
      continue;
    }
    unit.insns_left -= std::min(unit.insns_left, trace.size());
    ++counts.traces;
    counts.instructions_lifted += trace.size();
    clock.start();
    ir::lift(trace, lifted);
    clock.stop(counts.lift_seconds);
    if (options_.post_lift_hook) options_.post_lift_hook(trace, lifted);
    clock.start();
    TraceFacts& facts = scratch.facts;
    facts.reset(LiftedCode{&trace, &lifted.events, frame, origin});
    for (std::size_t ti = 0; ti < templates_.size(); ++ti) {
      if (unit.fired[ti]) continue;
      if (!anchors_admit(plans_[ti].anchors, facts.features)) {
        ++counts.templates_skipped;
        continue;
      }
      ++counts.template_matches_tried;
      const Template& t = templates_[ti];
      if (auto m = match_template(plans_[ti], facts)) {
        unit.fired[ti] = 1;
        ++unit.fired_count;
        Detection d;
        d.template_name = t.name;
        d.threat = t.threat;
        d.entry_offset = entry - origin;
        d.match_offset = m->start_offset - origin;
        for (const auto& [var, value] : m->bindings) {
          d.bindings.emplace(var, ir::to_string(value));
        }
        detections.push_back(std::move(d));
      }
    }
    clock.stop(counts.match_seconds);
    // A trace on which an ebx_points_to test found its pointer outside
    // the window is not shared: another window may hold the string.
    if (window && !facts.read_outside) {
      unit.fresh.push_back(trace_key(trace[0].offset, trace.size(), facts.capped));
    }
  }
  // The window's traces join the unit's, still sorted.
  if (!unit.fresh.empty()) {
    std::sort(unit.fresh.begin(), unit.fresh.end());
    unit.merged.resize(unit.seen.size() + unit.fresh.size());
    std::merge(unit.seen.begin(), unit.seen.end(), unit.fresh.begin(), unit.fresh.end(),
               unit.merged.begin());
    unit.seen.swap(unit.merged);
  }

  const AnalyzerCounters& counters = analyzer_counters();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (const std::size_t n = counts.*kAnalyzerCountFields[i].field) counters[i]->add(n);
  }
  if (stats) merge_analyzer(*stats, counts);
  return detections;
}

}  // namespace senids::semantic
