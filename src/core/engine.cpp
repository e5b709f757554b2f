#include "core/engine.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "arch/arch.hpp"
#include "cache/fingerprint.hpp"
#include "core/pipeline_obs.hpp"
#include "core/shard.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/workers.hpp"
#include "util/log.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"
#include "verify/ir_verify.hpp"
#include "verify/table_check.hpp"

namespace senids::core {

namespace {

/// Self-modified frame bytes a sandbox run must show for a static
/// decoder alert to count as confirmed (confirm_decoders_by_emulation).
constexpr std::size_t kMinDecodedBytes = 8;

/// Saturating seconds -> microseconds for flight-recorder fields.
std::uint32_t to_flight_us(double seconds) {
  const double us = seconds * 1e6;
  if (us <= 0) return 0;
  if (us >= 4294967295.0) return 0xffffffffu;
  return static_cast<std::uint32_t>(us);
}

std::uint32_t clamp_u32(std::size_t v) {
  return static_cast<std::uint32_t>(std::min<std::size_t>(v, 0xffffffffu));
}

/// printf into a growing string: measures first, then formats into the
/// exact space. No fixed buffer, so long template names never truncate.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void append_format(std::string& out, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list measured;
  va_copy(measured, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, measured);
  va_end(measured);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt, args);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(args);
}

// Folds both worker-local analysis stats and per-shard stage-(a) stats
// into the report; a worker's stage-(a) fields are simply zero (and vice
// versa), so one helper serves both. dispatch_seconds is deliberately
// not merged — it is caller-thread wall the engine sets directly.
void merge_stats(NidsStats& into, const NidsStats& from) {
  for (const auto& f : kNidsCountFields) into.*f.field += from.*f.field;
  semantic::merge_analyzer(into.analyzer, from.analyzer);
  for (std::size_t i = 0; i < into.stages.size(); ++i) {
    into.stages[i].count += from.stages[i].count;
    into.stages[i].seconds += from.stages[i].seconds;
    into.stages[i].max_seconds =
        std::max(into.stages[i].max_seconds, from.stages[i].max_seconds);
  }
  into.classify_seconds += from.classify_seconds;
  into.analysis_seconds += from.analysis_seconds;
}

/// What one analysis unit cost and decided. Every branch of
/// analyze_payload writes into one on its stack, and finish_unit writes
/// it out.
struct UnitAccumulator {
  UnitAccumulator(util::ByteView unit_payload, const Alert& unit_meta, std::uint64_t id)
      : payload(unit_payload), meta(unit_meta), unit_id(id) {
    counts.units_analyzed = 1;
  }

  [[nodiscard]] SteadyClock::time_point now() const {
    return clocked ? SteadyClock::now() : SteadyClock::time_point{};
  }
  [[nodiscard]] double since(SteadyClock::time_point t) const {
    return clocked ? seconds_since(t) : 0.0;
  }
  /// One stage execution of this unit. Its spans are laid out back to
  /// back from the unit's start using the measured stage durations (see
  /// trace.hpp: exact costs, synthesized placement).
  void stage(obs::Stage s, double seconds, std::uint64_t bytes) {
    const StageSpan span{unit_id, bytes, &span_cursor_us};
    record_stage(counts, s, seconds, tracing ? &span : nullptr);
  }

  const util::ByteView payload;
  const Alert& meta;
  const std::uint64_t unit_id;
  const bool tracing = obs::Tracer::enabled();
  const bool clocked = obs::metrics_enabled() || tracing;
  /// Read even when not `clocked`: the unit's wall is its analysis_seconds.
  const SteadyClock::time_point start = SteadyClock::now();
  std::uint64_t span_cursor_us = tracing ? obs::Tracer::instance().now_us() : 0;
  /// This unit's share of NidsStats; stages[].seconds are its per-stage
  /// totals (many frames can contribute to one stage).
  NidsStats counts;
  std::vector<Alert> alerts;
  obs::CacheDisposition cache = obs::CacheDisposition::kNone;
};

/// The one exit of analyze_payload, whichever way the unit went: the
/// only place a unit gets its analysis_seconds and reaches the unit,
/// frame, alert, triage and cache counters, the unit-latency histogram,
/// the flight recorder and the caller's stats.
std::vector<Alert> finish_unit(UnitAccumulator& unit, NidsStats* stats) {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  NidsStats& c = unit.counts;
  const double total = seconds_since(unit.start);
  c.analysis_seconds = total;
  const std::pair<obs::Counter*, std::size_t> published[] = {
      {pm.units, 1},
      {pm.frames, c.frames_extracted},
      {pm.bytes_analyzed, c.bytes_analyzed},
      {pm.alerts, unit.alerts.size()},
      {pm.triage_screened, c.triage_screened},
      {pm.triage_escalated, c.triage_escalated},
      {pm.triage_rejected, c.triage_rejected},
      {pm.triage_rejected_bytes, c.triage_rejected_bytes},
      {pm.cache_bypass, c.cache_bypass},
      {pm.cache_bytes_saved, c.cache_bytes_saved},
  };
  for (const auto& [counter, n] : published) {
    if (n) counter->add(n);
  }
  if (stats) merge_stats(*stats, c);
  if (unit.clocked) {
    pm.unit_seconds->observe(total);
    if (unit.tracing && unit.cache == obs::CacheDisposition::kHit) {
      obs::Tracer::instance().record({"cache-hit", unit.unit_id, unit.span_cursor_us,
                                      static_cast<std::uint64_t>(total * 1e6),
                                      unit.payload.size(), 0});
    }
    if (obs::FlightRecorder::enabled()) {
      const auto stage_us = [&c](obs::Stage s) {
        return to_flight_us(c.stages[static_cast<std::size_t>(s)].seconds);
      };
      obs::UnitRecord fr;
      fr.unit_id = unit.unit_id;
      fr.src = unit.meta.src.value;
      fr.payload_bytes = clamp_u32(unit.payload.size());
      fr.frames = clamp_u32(c.frames_extracted);
      fr.alerts = clamp_u32(unit.alerts.size());
      fr.cache = unit.cache;
      fr.extract_us = stage_us(obs::Stage::kExtract);
      fr.disasm_us = stage_us(obs::Stage::kDisasm);
      fr.lift_us = stage_us(obs::Stage::kLift);
      fr.match_us = stage_us(obs::Stage::kMatch);
      fr.emulate_us = stage_us(obs::Stage::kEmulate);
      fr.total_us = to_flight_us(total);
      obs::FlightRecorder::instance().record(fr);
    }
  }
  return std::move(unit.alerts);
}

}  // namespace

bool alert_less(const Alert& a, const Alert& b) noexcept {
  return std::tie(a.ts_sec, a.src.value, a.dst.value, a.src_port, a.dst_port,
                  a.template_name, a.threat, a.frame_reason, a.frame_offset) <
         std::tie(b.ts_sec, b.src.value, b.dst.value, b.src_port, b.dst_port,
                  b.template_name, b.threat, b.frame_reason, b.frame_offset);
}

std::string Alert::str() const {
  std::string out;
  append_format(out, "[%s] %s:%u -> %s:%u template=%s frame=%s+%zu",
                std::string(semantic::threat_class_name(threat)).c_str(), src.str().c_str(),
                src_port, dst.str().c_str(), dst_port, template_name.c_str(),
                std::string(extract::frame_reason_name(frame_reason)).c_str(), frame_offset);
  return out;
}

bool Report::detected(semantic::ThreatClass threat) const {
  return std::any_of(alerts.begin(), alerts.end(),
                     [threat](const Alert& a) { return a.threat == threat; });
}

std::string Report::str() const {
  std::string out;
  auto line = [&out](const char* fmt, auto... args) {
    append_format(out, fmt, args...);
    out.push_back('\n');
  };
  line("packets            : %zu (%zu non-IP)", stats.packets, stats.non_ip);
  line("suspicious packets : %zu", stats.suspicious_packets);
  line("analysis units     : %zu", stats.units_analyzed);
  line("frames extracted   : %zu (%zu emulated)", stats.frames_extracted,
       stats.frames_emulated);
  line("bytes disassembled : %zu", stats.bytes_analyzed);
  line("flow evictions     : %zu idle, %zu overflow, %zu streams truncated",
       stats.flows_evicted_idle, stats.flows_evicted_overflow, stats.streams_truncated);
  if (stats.defrag_dropped) {
    line("defrag drops       : %zu pending datagrams (buffer cap)", stats.defrag_dropped);
  }
  if (stats.dark_sources_evicted) {
    line("dark-src evictions : %zu counter entries (table cap)",
         stats.dark_sources_evicted);
  }
  if (stats.cache_hits || stats.cache_misses || stats.cache_bypass) {
    line("verdict cache      : %zu hits, %zu misses, %zu bypassed (%zu bytes saved)",
         stats.cache_hits, stats.cache_misses, stats.cache_bypass,
         stats.cache_bytes_saved);
  }
  if (stats.triage_screened) {
    const auto share = [this](std::size_t n) {
      return 100.0 * static_cast<double>(n) / static_cast<double>(stats.triage_screened);
    };
    line("triage tiers       : %10s %12s %12s", "units", "share", "bytes");
    line("  stage-0 rejected : %10zu %11.1f%% %12zu", stats.triage_rejected,
         share(stats.triage_rejected), stats.triage_rejected_bytes);
    line("  escalated        : %10zu %11.1f%%", stats.triage_escalated,
         share(stats.triage_escalated));
  }
  // The wall totals measure different things on purpose (see NidsStats):
  // summed per-shard stage-(a) producer wall, caller-thread dispatch
  // wall, and summed per-unit analysis wall across workers. They overlap
  // in time and must not be added together.
  line("classify wall      : %.3f s (stage (a), summed across shards)",
       stats.classify_seconds);
  if (stats.dispatch_seconds > 0.0) {
    line("dispatch wall      : %.3f s (source-hash routing, caller thread)",
         stats.dispatch_seconds);
  }
  line("analysis work      : %.3f s (summed per-unit wall, all workers)",
       stats.analysis_seconds);
  const bool any_stage = std::any_of(stats.stages.begin(), stats.stages.end(),
                                     [](const StageStat& s) { return s.count > 0; });
  if (any_stage) {
    line("stage latency      : %10s %12s %12s %12s", "runs", "total(s)", "mean(us)",
         "max(us)");
    for (std::size_t i = 0; i < stats.stages.size(); ++i) {
      const StageStat& s = stats.stages[i];
      if (s.count == 0) continue;
      line("  %-17s: %10zu %12.4f %12.2f %12.2f",
           std::string(obs::stage_name(static_cast<obs::Stage>(i))).c_str(), s.count,
           s.seconds, s.seconds / static_cast<double>(s.count) * 1e6, s.max_seconds * 1e6);
    }
  }
  line("alerts             : %zu", alerts.size());
  for (const Alert& a : alerts) {
    out += "  ";
    out += a.str();
    out.push_back('\n');
  }
  // Per-source rollup, rendered in first-appearance order (the alerts
  // are sorted, so that is ascending source order). The hash map only
  // deduplicates; an alert-sized report must not pay O(n^2) scans here.
  std::vector<std::pair<std::uint32_t, std::size_t>> sources;
  std::unordered_map<std::uint32_t, std::size_t> source_index;
  source_index.reserve(alerts.size());
  for (const Alert& a : alerts) {
    const auto [it, inserted] = source_index.try_emplace(a.src.value, sources.size());
    if (inserted) {
      sources.emplace_back(a.src.value, 1);
    } else {
      ++sources[it->second].second;
    }
  }
  if (!sources.empty()) {
    out += "offending sources  :\n";
    for (const auto& [src, n] : sources) {
      line("  %-18s %zu alert(s)", net::Ipv4Addr{src}.str().c_str(), n);
    }
  }
  return out;
}

std::string stats_json(const NidsStats& stats) {
  std::string out = "{";
  for (const auto& f : kNidsCountFields) {
    append_format(out, "\"%s\": %zu, ", f.name, stats.*f.field);
  }
  out += "\"analyzer\": {";
  for (const auto& f : semantic::kAnalyzerCountFields) {
    if (&f != semantic::kAnalyzerCountFields.data()) out += ", ";
    append_format(out, "\"%s\": %zu", f.name, stats.analyzer.*f.field);
  }
  out += "}}";
  return out;
}

namespace {

/// Resolve the architecture knob: nullptr means the classic x86_32
/// pipeline. The resolved Arch is pushed into the analyzer's scanner
/// options, so the analyzer agrees on the ISA without consulting
/// NidsOptions::arch again.
NidsOptions with_arch_defaults(NidsOptions options) {
  if (!options.arch) options.arch = &arch::Arch::x86_32();
  options.analyzer.arch = options.arch;
  return options;
}

/// Debug builds self-verify: every lifted unit runs through the IR
/// verifier (SemanticAnalyzer::Options::post_lift_hook), and the
/// decoder/def-use cross-check runs once per process at engine
/// construction. Both abort loudly on a violation — a malformed IR node
/// or an inconsistent opcode table is a silent missed detection in
/// release, and the whole point of the debug hook is to refuse to limp
/// past it. Release builds skip both (the hook slot stays available for
/// tests and tools to install their own).
NidsOptions with_debug_verification(NidsOptions options) {
#ifndef NDEBUG
  static const bool tables_ok = [] {
    verify::Report r = verify::verify_decoder_tables();
    if (!r.ok()) {
      util::log_error() << "decoder/def-use table cross-check failed:\n" << r.str();
    }
    return r.ok();
  }();
  if (!tables_ok) std::abort();
  if (!options.analyzer.post_lift_hook) {
    options.analyzer.post_lift_hook = [](const std::vector<arch::Instruction>& trace,
                                         const ir::LiftResult& lifted) {
      verify::Report r = verify::verify_ir(trace, lifted);
      if (!r.ok()) {
        util::log_error() << "IR verifier found " << r.errors()
                          << " violation(s) in a lifted unit:\n"
                          << r.str();
        std::abort();
      }
    };
  }
#endif
  return options;
}

/// SHA-256 over every input that can change a unit's verdict: the
/// template set plus extractor/analyzer/emulation options (the extractor
/// minimums and the sandbox budgets are constants, so no option carries
/// them). Prefixed to
/// every cache key, so reconfiguring the engine can never serve a stale
/// hit. post_lift_hook is deliberately excluded — it verifies, it does
/// not decide. The triage mode is excluded too: like the threading and
/// cache knobs it is behaviour-preserving (rejected units skip the cache
/// entirely, so a triage-off run can never replay a triage-on verdict it
/// should not have, and vice versa — the stored verdicts themselves are
/// identical by the differential contract).
cache::Digest compute_config_fingerprint(const NidsOptions& o,
                                         const std::vector<semantic::Template>& templates) {
  cache::Sha256 ctx;
  cache::hash_templates(ctx, templates);
  auto opt = [&ctx](std::string_view label, std::uint64_t v) {
    cache::hash_option(ctx, label, v);
  };
  opt("ex.extract_all", o.extractor.extract_all ? 1 : 0);
  // The ISA changes how the same bytes decode, lift, and emulate, so it
  // is verdict-affecting. o.arch is already normalized (never null here).
  opt("arch.mode", static_cast<std::uint64_t>(o.arch->mode()));
  const semantic::SemanticAnalyzer::Options& a = o.analyzer;
  opt("an.min_run_insns", a.min_run_insns);
  opt("an.max_entries", a.max_entries);
  opt("an.max_trace_insns", a.max_trace_insns);
  opt("an.max_total_insns", a.max_total_insns);
  opt("enable_emulation", o.enable_emulation ? 1 : 0);
  opt("confirm_decoders", o.confirm_decoders_by_emulation ? 1 : 0);
  return ctx.finish();
}

}  // namespace

NidsEngine::NidsEngine(NidsOptions options)
    : NidsEngine(std::move(options), semantic::make_standard_library()) {}

// Out of line: PipelineShard is incomplete in the header.
NidsEngine::NidsEngine(NidsEngine&&) noexcept = default;
NidsEngine& NidsEngine::operator=(NidsEngine&&) noexcept = default;
NidsEngine::~NidsEngine() = default;

void NidsEngine::ensure_shards() {
  if (!shards_.empty()) return;
  const std::size_t n = std::max<std::size_t>(1, options_.shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // A lone shard feeds the unlabelled series only.
    const std::optional<std::size_t> label = n > 1 ? std::optional(i) : std::nullopt;
    shards_.push_back(std::make_unique<PipelineShard>(options_, classifier_, label));
  }
}

bool NidsEngine::is_tainted(net::Ipv4Addr src) const {
  return std::any_of(shards_.begin(), shards_.end(),
                     [src](const auto& shard) { return shard->is_tainted(src); });
}

NidsEngine::NidsEngine(NidsOptions options, std::vector<semantic::Template> templates)
    : options_(with_debug_verification(with_arch_defaults(std::move(options)))),
      classifier_(options_.classifier),
      extractor_(options_.extractor),
      analyzer_(std::move(templates), options_.analyzer) {
  config_fingerprint_ = compute_config_fingerprint(options_, analyzer_.templates());
  if (options_.verdict_cache_bytes) {
    verdict_cache_ = std::make_unique<cache::VerdictCache>(
        cache::VerdictCache::Options{options_.verdict_cache_bytes, 16});
    verdict_cache_->set_metrics(&cache_metrics());
  }
  if (options_.triage.mode != triage::TriageMode::kOff) {
    triage_ = std::make_unique<triage::TriageFilter>(options_.triage, options_.extractor,
                                                     analyzer_.templates());
  }
}

AnalysisContext NidsEngine::make_analysis_context() const { return AnalysisContext(); }

std::vector<Alert> NidsEngine::analyze_payload(AnalysisContext& ctx, util::ByteView payload,
                                               const Alert& meta_prototype,
                                               NidsStats* stats,
                                               std::uint64_t unit_id) const {
  UnitAccumulator unit(payload, meta_prototype, unit_id);
  NidsStats& counts = unit.counts;

  // ---------------------------------------------------- stage-0 triage
  // The screen runs *before* the cache key is hashed: a rejected unit
  // skips the SHA-256 along with stages (b)-(e), so stage-0 cost is the
  // scan itself. Rejected units never touch the cache (no lookup, no
  // insert), hence cache_hits + cache_misses + cache_bypass ==
  // units_analyzed - triage_rejected.
  bool escalated = true;
  if (triage_) {
    const SteadyClock::time_point t0 = unit.now();
    escalated = triage_->screen(payload, meta_prototype.dst_port).escalate;
    unit.stage(obs::Stage::kTriage, unit.since(t0), payload.size());
    ++counts.triage_screened;
    if (escalated) {
      ++counts.triage_escalated;
    } else {
      ++counts.triage_rejected;
      counts.triage_rejected_bytes += payload.size();
    }
  }

  // ------------------------------------------------- verdict cache lookup
  // Every escalated unit is exactly one of hit / miss / bypass. A hit
  // replays the stored flow-independent verdict under the *current*
  // unit's metadata and skips stages (b)-(e); a miss falls through to
  // full analysis and populates the cache on the way out.
  cache::VerdictCache* vcache = escalated ? verdict_cache_.get() : nullptr;
  const bool cacheable = vcache && payload.size() <= options_.cache_max_unit_bytes;
  cache::Digest cache_key{};
  std::optional<cache::Verdict> verdict;
  if (vcache && !cacheable) {
    unit.cache = obs::CacheDisposition::kBypass;
    ++counts.cache_bypass;
  }
  if (cacheable) {
    cache::Sha256 key_ctx;
    key_ctx.update(config_fingerprint_.data(), config_fingerprint_.size());
    key_ctx.update(payload);
    cache_key = key_ctx.finish();
    verdict = vcache->lookup(cache_key);
    unit.cache = verdict ? obs::CacheDisposition::kHit : obs::CacheDisposition::kMiss;
  }
  if (verdict) {
    ++counts.cache_hits;
    counts.cache_bytes_saved = verdict->bytes_analyzed;
    // Logical-work counters are replayed from the verdict so the report
    // describes the same detection work whether the cache served it or
    // not (see NidsStats). bytes_analyzed stays fresh-only; the replayed
    // bytes are in cache_bytes_saved.
    counts.frames_extracted = verdict->frames_extracted;
    counts.frames_emulated = verdict->frames_emulated;
    counts.emulated_steps = verdict->emulated_steps;
    unit.alerts.reserve(verdict->alerts.size());
    for (const cache::CachedAlert& ca : verdict->alerts) {
      Alert a = meta_prototype;
      a.threat = ca.threat;
      a.template_name = ca.template_name;
      a.frame_reason = ca.frame_reason;
      a.frame_offset = ca.frame_offset;
      unit.alerts.push_back(std::move(a));
    }
  } else if (escalated) {
    if (cacheable) ++counts.cache_misses;
    const SteadyClock::time_point t0 = unit.now();
    extractor_.extract(payload, ctx.frames_);
    unit.stage(obs::Stage::kExtract, unit.since(t0), payload.size());
    const std::vector<extract::BinaryFrame>& frames = ctx.frames_;
    counts.frames_extracted = frames.size();

    // Per-frame disasm/lift/match costs come out of the analyzer's own
    // stats deltas rather than a wrapper clock: the three stages
    // interleave inside analyze(), so only the analyzer can attribute
    // time correctly.
    // The frames are analyzed as one unit: raw frames as windows of the
    // payload, sharing its decode and their traces, and every frame
    // within one budget.
    semantic::AnalyzerStats& an = counts.analyzer;
    analyzer_.begin_unit(ctx.scratch_, payload);
    auto analyze_frame = [&](util::ByteView data, std::optional<std::size_t> window) {
      const semantic::AnalyzerStats before = an;
      auto detections = analyzer_.analyze(data, window, &an, ctx.scratch_);
      if (an.frames > before.frames) {
        unit.stage(obs::Stage::kDisasm, an.disasm_seconds - before.disasm_seconds, data.size());
        unit.stage(obs::Stage::kLift, an.lift_seconds - before.lift_seconds, data.size());
        unit.stage(obs::Stage::kMatch, an.match_seconds - before.match_seconds, data.size());
      }
      return detections;
    };
    // One sandbox run per frame per unit: the decoder-confirmation pass
    // and the deep-analysis pass below both emulate frames, so results
    // are memoized by frame index (an emulated frame is counted once).
    ctx.emu_memo_.assign(frames.size(), std::nullopt);
    auto emulate = [&](std::size_t frame_idx) -> const emu::EmulationResult& {
      std::optional<emu::EmulationResult>& memo = ctx.emu_memo_[frame_idx];
      if (!memo) {
        util::ByteView data = frames[frame_idx].data;
        const SteadyClock::time_point e0 = unit.now();
        memo = emu::emulate_frame(data, options_.arch->mode());
        unit.stage(obs::Stage::kEmulate, unit.since(e0), data.size());
        ++counts.frames_emulated;
        counts.emulated_steps += memo->steps;
      }
      return *memo;
    };
    // Report each name once per unit. The analyzer already returns a
    // template at most once per unit; the emulator's behaviour alerts can
    // repeat on every frame, and two templates may share a name.
    ctx.fired_names_.clear();
    auto add_alert = [&](semantic::ThreatClass threat, std::string name,
                         extract::FrameReason reason, std::size_t offset) {
      if (!ctx.fired_names_.insert(name).second) return;
      Alert a = meta_prototype;
      a.threat = threat;
      a.template_name = std::move(name);
      a.frame_reason = reason;
      a.frame_offset = offset;
      unit.alerts.push_back(std::move(a));
    };

    for (const auto& frame : frames) {
      counts.bytes_analyzed += frame.data.size();
      const std::optional<std::size_t> window =
          extract::is_payload_window(frame.reason) ? std::optional(frame.src_offset)
                                                   : std::nullopt;
      for (auto& det : analyze_frame(frame.data, window)) {
        add_alert(det.threat, std::move(det.template_name), frame.reason, frame.src_offset);
      }
    }
    // Optional dynamic confirmation: a static decryption-loop alert must
    // correspond to code that, when actually run, decodes something.
    const auto is_decoder = [](const Alert& a) {
      return a.threat == semantic::ThreatClass::kDecryptionLoop;
    };
    if (options_.confirm_decoders_by_emulation &&
        std::any_of(unit.alerts.begin(), unit.alerts.end(), is_decoder)) {
      bool confirmed = false;
      for (std::size_t fi = 0; fi < frames.size() && !confirmed; ++fi) {
        confirmed = emulate(fi).frame_bytes_modified >= kMinDecodedBytes;
      }
      if (!confirmed) {
        // Forget the erased names too, here and in the analyzer: the deep
        // pass below may rediscover the same template on an
        // emulation-decoded frame, and that confirmed re-detection must
        // not be suppressed.
        for (const Alert& a : unit.alerts) {
          if (!is_decoder(a)) continue;
          ctx.fired_names_.erase(a.template_name);
          analyzer_.forget_fired(a.template_name, ctx.scratch_);
        }
        std::erase_if(unit.alerts, is_decoder);
      }
    }

    // Deep analysis: run each frame in the sandbox. A decoder decrypts
    // itself there, so the second static pass sees the plaintext
    // behaviour that the on-wire bytes hid; the syscall trace
    // independently exposes behaviour even when no static template
    // covers it.
    if (options_.enable_emulation) {
      for (std::size_t fi = 0; fi < frames.size(); ++fi) {
        const extract::BinaryFrame& frame = frames[fi];
        const emu::EmulationResult& emu_result = emulate(fi);
        if (emu_result.spawned_shell()) {
          add_alert(semantic::ThreatClass::kShellSpawn, "emulated:spawned-shell",
                    extract::FrameReason::kEmulatedBehavior, frame.src_offset);
        }
        if (emu_result.bound_port()) {
          add_alert(semantic::ThreatClass::kPortBindShell, "emulated:bound-port",
                    extract::FrameReason::kEmulatedBehavior, frame.src_offset);
        }
        if (!emu_result.decoded_frame.empty()) {
          for (auto& det : analyze_frame(emu_result.decoded_frame, std::nullopt)) {
            add_alert(det.threat, std::move(det.template_name),
                      extract::FrameReason::kEmulatedDecode, frame.src_offset);
          }
        }
      }
    }

    if (cacheable) {
      // Strip the alerts down to their flow-independent fields,
      // preserving emission order exactly — replay must produce a
      // byte-identical list.
      cache::Verdict fresh;
      fresh.alerts.reserve(unit.alerts.size());
      for (const Alert& a : unit.alerts) {
        fresh.alerts.push_back(
            cache::CachedAlert{a.threat, a.template_name, a.frame_reason, a.frame_offset});
      }
      fresh.frames_extracted = counts.frames_extracted;
      fresh.bytes_analyzed = counts.bytes_analyzed;
      fresh.frames_emulated = counts.frames_emulated;
      fresh.emulated_steps = counts.emulated_steps;
      vcache->insert(cache_key, std::move(fresh));
    }
  }
  return finish_unit(unit, stats);
}

namespace {

/// One payload (or reassembled stream) bound for stages (b)-(e).
struct Unit {
  util::Bytes payload;
  Alert meta;
  std::uint64_t unit_id = 0;
};

/// Records the caller routed to one shard. An empty batch is the shard's
/// last: its thread flushes the shard's flows.
using Batch = std::vector<const pcap::Record*>;
constexpr std::size_t kBatchRecords = 64;
/// Batches a shard may have waiting before the caller blocks, so a slow
/// shard backpressures the dispatcher instead of buffering the capture.
constexpr std::size_t kQueueBatches = 16;

/// What next() hands a thread: a batch of its shard's records, a unit to
/// analyze, or neither once all work is done.
struct Task {
  std::optional<Batch> records;
  std::optional<Unit> unit;
};

/// The work process_capture's threads share, behind one lock: each
/// shard's waiting record batches and one queue of at most one unit per
/// thread. Each
/// thread waits on its own condition variable, which wakes it for either
/// its shard's records or a unit.
class WorkBoard {
 public:
  /// `threads` threads call next(); the first `shards` of them each own
  /// a shard's batches. `producers` parties form units until each calls
  /// producer_done().
  WorkBoard(std::size_t threads, std::size_t shards, std::size_t producers)
      : wake_(threads), batches_(shards), producers_(producers) {
    for (std::size_t si = 0; si < shards; ++si) shard_gauges_.push_back(obs::shard_metrics(si));
  }

  /// The caller routes `batch` to `shard`'s thread, blocking while that
  /// shard has kQueueBatches waiting.
  void push_batch(std::size_t shard, Batch batch) EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    std::deque<Batch>& q = batches_[shard];
    while (q.size() >= kQueueBatches) room_.wait(mu_);
    q.push_back(std::move(batch));
    publish_batches(shard);
    wake_[shard].notify_one();
  }

  /// A producer hands over a unit it formed while the queue holds fewer
  /// units than there are threads. Refused otherwise, and the unit left
  /// for the producer to analyze itself, so it never blocks. With no
  /// threads every unit is refused without taking the lock.
  bool offer_unit(util::Bytes& payload, const Alert& meta, std::uint64_t unit_id)
      EXCLUDES(mu_) {
    if (wake_.empty()) return false;
    util::MutexLock lock(mu_);
    if (units_.size() >= wake_.size()) return false;
    unit_bytes_ += payload.size();
    units_.push_back(Unit{std::move(payload), meta, unit_id});
    pm_.queue_pushed->add();
    publish_units();
    wake_idle();
    return true;
  }

  /// One producer formed its last unit. After the last, threads finish
  /// the queue and stop.
  void producer_done() EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (--producers_ > 0) return;
    for (std::size_t t : idle_) wake_[t].notify_one();
    idle_.clear();
  }

  /// Thread `thread`'s next task: its shard's next batch, else a queued
  /// unit, else nothing once every producer is done. Blocks while there
  /// is no task.
  Task next(std::size_t thread) EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    for (;;) {
      if (thread < batches_.size() && !batches_[thread].empty()) {
        std::deque<Batch>& q = batches_[thread];
        Task task{std::move(q.front()), std::nullopt};
        q.pop_front();
        publish_batches(thread);
        room_.notify_one();
        // A thread woken for a unit that takes its records instead passes
        // the wake-up on.
        if (!units_.empty()) wake_idle();
        return task;
      }
      if (!units_.empty()) {
        Task task{std::nullopt, std::move(units_.front())};
        unit_bytes_ -= task.unit->payload.size();
        units_.pop_front();
        publish_units();
        return task;
      }
      if (producers_ == 0) return Task{};
      idle_.push_back(thread);
      wake_[thread].wait(mu_);
      std::erase(idle_, thread);  // still listed when woken for records
    }
  }

 private:
  void wake_idle() REQUIRES(mu_) {
    if (idle_.empty()) return;
    wake_[idle_.back()].notify_one();
    idle_.pop_back();
  }

  void publish_units() REQUIRES(mu_) {
    const auto depth = static_cast<std::int64_t>(units_.size());
    pm_.queue_depth->set(depth);
    pm_.queue_depth_peak->set_max(depth);
    pm_.queue_bytes->set(static_cast<std::int64_t>(unit_bytes_));
  }

  void publish_batches(std::size_t shard) REQUIRES(mu_) {
    const auto depth = static_cast<std::int64_t>(batches_[shard].size());
    shard_gauges_[shard].queue_depth->set(depth);
    shard_gauges_[shard].queue_depth_peak->set_max(depth);
  }

  obs::PipelineMetrics& pm_ = obs::pipeline_metrics();
  std::vector<obs::ShardMetrics> shard_gauges_;
  util::Mutex mu_{"Engine.work"};
  std::vector<util::CondVar> wake_;  // one per thread
  util::CondVar room_;               // the caller: room for a batch
  std::vector<std::deque<Batch>> batches_ GUARDED_BY(mu_);
  std::deque<Unit> units_ GUARDED_BY(mu_);
  std::size_t unit_bytes_ GUARDED_BY(mu_) = 0;
  /// Threads waiting for a task that no one has woken yet.
  std::vector<std::size_t> idle_ GUARDED_BY(mu_);
  std::size_t producers_ GUARDED_BY(mu_);
};

/// One thread's share of a capture: its working memory and what it
/// analyzed, merged into the report after the threads join.
struct ThreadSlot {
  AnalysisContext ctx;
  NidsStats stats;
  std::vector<Alert> alerts;

  void analyze(const NidsEngine& engine, util::ByteView payload, const Alert& meta,
               std::uint64_t unit_id) {
    std::vector<Alert> found = engine.analyze_payload(ctx, payload, meta, &stats, unit_id);
    alerts.insert(alerts.end(), std::make_move_iterator(found.begin()),
                  std::make_move_iterator(found.end()));
  }
};

}  // namespace

Report NidsEngine::process_capture(const pcap::Capture& capture) {
  Report report;
  ensure_shards();
  const std::size_t nshards = shards_.size();
  // With one shard the caller runs stage (a) and `threads` threads (none
  // at threads <= 1) analyze. With more, the caller routes records by
  // source hash and max(threads, shards) threads run; thread i < shards
  // owns shard i.
  const std::size_t nthreads = nshards > 1            ? std::max(options_.threads, nshards)
                               : options_.threads > 1 ? options_.threads
                                                      : 0;
  const std::size_t shard_threads = nshards > 1 ? nshards : 0;
  // Publish the limits the readiness checks divide by (/healthz treats a
  // 0 capacity gauge as "check disabled"): the unit queue never holds
  // more than one unit per thread.
  obs::pipeline_metrics().queue_capacity->set(static_cast<std::int64_t>(nthreads));
  obs::pipeline_metrics().flow_table_max_flows->set(
      static_cast<std::int64_t>(options_.max_flows));
  for (auto& shard : shards_) shard->begin_capture();

  // One hand-off rule for every unit producer (the caller with one
  // shard, else each shard thread): offer the unit to the queue while it
  // holds fewer units than there are threads, and analyze it yourself
  // otherwise. Busy producers keep their units, threads that run dry take
  // the overflow of a dominant source, and with no threads the caller
  // analyzes every unit as it forms. Every thread analyzes queued units
  // whenever it has no records.
  WorkBoard board(nthreads, shard_threads, std::max<std::size_t>(shard_threads, 1));
  // One slot per thread, then the caller's when it produces.
  std::vector<ThreadSlot> slots;
  const std::size_t nslots = nthreads + (shard_threads == 0 ? 1 : 0);
  slots.reserve(nslots);
  for (std::size_t i = 0; i < nslots; ++i) {
    slots.push_back(ThreadSlot{make_analysis_context(), {}, {}});
  }
  auto sink_for = [this, &board](ThreadSlot& slot) -> PipelineShard::UnitSink {
    return [this, &board, &slot](util::Bytes payload, const Alert& meta,
                                 std::uint64_t unit_id) {
      if (payload.empty() || board.offer_unit(payload, meta, unit_id)) return;
      slot.analyze(*this, payload, meta, unit_id);
    };
  };

  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i) {
    threads.emplace_back([this, i, &board, &slot = slots[i], &sink_for, shard_threads] {
      obs::WorkerSlot& wslot = obs::WorkerTable::instance().slot("worker", i);
      wslot.begin_run();
      const PipelineShard::UnitSink sink = sink_for(slot);
      // Stage-(a) wall of this thread's shard: its batches' wall minus
      // the analysis it ran itself, as on the caller.
      double classify = 0.0;
      for (;;) {
        util::WallTimer idle_timer;  // waiting for records or a unit
        Task task = board.next(i);
        wslot.add_idle(idle_timer.seconds());
        if (!task.records && !task.unit) break;
        wslot.heartbeat();
        util::WallTimer busy_timer;
        const double analysis_before = slot.stats.analysis_seconds;
        const std::size_t units_before = slot.stats.units_analyzed;
        if (task.unit) {
          slot.analyze(*this, task.unit->payload, task.unit->meta, task.unit->unit_id);
        } else if (!task.records->empty()) {
          for (const pcap::Record* rec : *task.records) {
            shards_[i]->process_record(rec->data, rec->ts_sec, rec->ts_usec, sink);
          }
        } else {
          shards_[i]->finish_capture(sink);
          board.producer_done();
        }
        const double busy = busy_timer.seconds();
        wslot.add_busy(busy);
        wslot.add_units(slot.stats.units_analyzed - units_before);
        if (task.records) classify += busy - (slot.stats.analysis_seconds - analysis_before);
      }
      if (i < shard_threads) shards_[i]->stats().classify_seconds = classify;
      wslot.end_run();
    });
  }

  if (shard_threads == 0) {
    ThreadSlot& slot = slots.back();
    const PipelineShard::UnitSink sink = sink_for(slot);
    util::WallTimer timer;
    for (const pcap::Record& rec : capture.records) {
      shards_[0]->process_record(rec.data, rec.ts_sec, rec.ts_usec, sink);
    }
    shards_[0]->finish_capture(sink);
    // Classify wall excludes the analysis the caller ran itself.
    shards_[0]->stats().classify_seconds = timer.seconds() - slot.stats.analysis_seconds;
    board.producer_done();
  } else {
    // The caller only peeks each frame's IPv4 source and routes the
    // record in batches; frames whose source cannot be peeked (non-IP,
    // which any shard classifies alike) ride to shard 0.
    obs::shard_queue_capacity_gauge().set(kQueueBatches);
    util::WallTimer dispatch_timer;
    std::vector<Batch> pending(nshards);
    for (const pcap::Record& rec : capture.records) {
      const auto src = net::peek_src(rec.data);
      const std::size_t si = src ? shard_index_for(*src, nshards) : 0;
      Batch& batch = pending[si];
      if (batch.empty()) batch.reserve(kBatchRecords);
      batch.push_back(&rec);
      if (batch.size() >= kBatchRecords) board.push_batch(si, std::exchange(batch, {}));
    }
    for (std::size_t si = 0; si < nshards; ++si) {
      if (!pending[si].empty()) board.push_batch(si, std::move(pending[si]));
      board.push_batch(si, Batch{});
    }
    report.stats.dispatch_seconds = dispatch_timer.seconds();
  }
  for (std::thread& t : threads) t.join();

  for (const auto& shard : shards_) merge_stats(report.stats, shard->stats());
  for (ThreadSlot& slot : slots) {
    merge_stats(report.stats, slot.stats);
    report.alerts.insert(report.alerts.end(), std::make_move_iterator(slot.alerts.begin()),
                         std::make_move_iterator(slot.alerts.end()));
  }

  // Deterministic alert order regardless of shard routing or thread
  // scheduling: the sort key covers every alert field (a partial key left
  // alerts differing only in frame_offset/ports in schedule-dependent
  // order), so 1-shard and N-shard runs render byte-identical alerts.
  std::sort(report.alerts.begin(), report.alerts.end(), alert_less);
  return report;
}

}  // namespace senids::core
