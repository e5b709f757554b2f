#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_map>

#include "arch/arch.hpp"
#include "cache/fingerprint.hpp"
#include "core/pipeline_obs.hpp"
#include "core/shard.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/workers.hpp"
#include "util/log.hpp"
#include "util/queue.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "verify/ir_verify.hpp"
#include "verify/table_check.hpp"

namespace senids::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

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

void merge_analyzer(semantic::AnalyzerStats& into, const semantic::AnalyzerStats& from) {
  into.frames += from.frames;
  into.candidate_runs += from.candidate_runs;
  into.traces += from.traces;
  into.instructions_lifted += from.instructions_lifted;
  into.template_matches_tried += from.template_matches_tried;
  into.entry_budget_exhausted += from.entry_budget_exhausted;
  into.insn_budget_exhausted += from.insn_budget_exhausted;
  into.disasm_seconds += from.disasm_seconds;
  into.lift_seconds += from.lift_seconds;
  into.match_seconds += from.match_seconds;
}

// Folds both worker-local analysis stats and per-shard stage-(a) stats
// into the report; a worker's stage-(a) fields are simply zero (and vice
// versa), so one helper serves both. dispatch_seconds is deliberately
// not merged — it is caller-thread wall the engine sets directly.
void merge_stats(NidsStats& into, const NidsStats& from) {
  into.packets += from.packets;
  into.non_ip += from.non_ip;
  into.suspicious_packets += from.suspicious_packets;
  into.units_analyzed += from.units_analyzed;
  into.frames_extracted += from.frames_extracted;
  into.bytes_analyzed += from.bytes_analyzed;
  into.frames_emulated += from.frames_emulated;
  into.emulated_steps += from.emulated_steps;
  into.flows_evicted_idle += from.flows_evicted_idle;
  into.flows_evicted_overflow += from.flows_evicted_overflow;
  into.streams_truncated += from.streams_truncated;
  into.dark_sources_evicted += from.dark_sources_evicted;
  into.defrag_dropped += from.defrag_dropped;
  into.triage_screened += from.triage_screened;
  into.triage_escalated += from.triage_escalated;
  into.triage_rejected += from.triage_rejected;
  into.triage_rejected_bytes += from.triage_rejected_bytes;
  merge_analyzer(into.analyzer, from.analyzer);
  for (std::size_t i = 0; i < into.stages.size(); ++i) {
    into.stages[i].count += from.stages[i].count;
    into.stages[i].seconds += from.stages[i].seconds;
    into.stages[i].max_seconds =
        std::max(into.stages[i].max_seconds, from.stages[i].max_seconds);
  }
  into.cache_hits += from.cache_hits;
  into.cache_misses += from.cache_misses;
  into.cache_bypass += from.cache_bypass;
  into.cache_bytes_saved += from.cache_bytes_saved;
  into.classify_seconds += from.classify_seconds;
  into.analysis_seconds += from.analysis_seconds;
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

namespace {

/// Debug builds self-verify: every lifted unit runs through the IR
/// verifier (SemanticAnalyzer::Options::post_lift_hook), and the
/// decoder/def-use cross-check runs once per process at engine
/// construction. Both abort loudly on a violation — a malformed IR node
/// or an inconsistent opcode table is a silent missed detection in
/// release, and the whole point of the debug hook is to refuse to limp
/// past it. Release builds skip both (the hook slot stays available for
/// tests and tools to install their own).
/// Resolve the architecture knob: nullptr means the classic x86_32
/// pipeline. The resolved Arch is pushed into the analyzer's scanner
/// options and the emulator's CPU mode, so every stage agrees on the ISA
/// without consulting NidsOptions::arch again.
NidsOptions with_arch_defaults(NidsOptions options) {
  if (!options.arch) options.arch = &arch::Arch::x86_32();
  options.analyzer.arch = options.arch;
  options.emulator.mode = options.arch->mode();
  return options;
}

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

}  // namespace

namespace {

/// SHA-256 over every input that can change a unit's verdict: the
/// template set plus extractor/analyzer/emulation options. Prefixed to
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
  const extract::ExtractorOptions& e = o.extractor;
  opt("ex.min_unicode_escapes", e.min_unicode_escapes);
  opt("ex.min_repetition", e.min_repetition);
  opt("ex.min_sled", e.min_sled);
  opt("ex.min_binary_region", e.min_binary_region);
  opt("ex.min_return_addresses", e.min_return_addresses);
  opt("ex.min_base64_encoded", e.min_base64_encoded);
  opt("ex.min_base64_decoded", e.min_base64_decoded);
  opt("ex.extract_all", e.extract_all ? 1 : 0);
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
  opt("min_decoded_bytes", o.min_decoded_bytes);
  opt("emu.max_steps", o.emulator.max_steps);
  opt("emu.max_syscalls", o.emulator.max_syscalls);
  opt("emu.max_entries", o.emulator.max_entries);
  opt("emu.min_run_insns", o.emulator.min_run_insns);
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

AnalysisContext::AnalysisContext(
    const NidsOptions& options,
    std::shared_ptr<const std::vector<semantic::Template>> templates)
    : extractor_(options.extractor), analyzer_(std::move(templates), options.analyzer) {}

AnalysisContext NidsEngine::make_analysis_context() const {
  return AnalysisContext(options_, analyzer_.shared_templates());
}

std::vector<Alert> NidsEngine::analyze_payload(util::ByteView payload,
                                               const Alert& meta_prototype, NidsStats* stats,
                                               std::uint64_t unit_id) const {
  AnalysisContext ctx = make_analysis_context();
  return analyze_payload(ctx, payload, meta_prototype, stats, unit_id);
}

std::vector<Alert> NidsEngine::analyze_payload(AnalysisContext& ctx, util::ByteView payload,
                                               const Alert& meta_prototype,
                                               NidsStats* stats,
                                               std::uint64_t unit_id) const {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool tracing = obs::Tracer::enabled();
  const bool clocked = obs::metrics_enabled() || tracing;
  const SteadyClock::time_point unit_start =
      clocked ? SteadyClock::now() : SteadyClock::time_point{};
  // This unit's spans are laid out sequentially from its start time using
  // the measured stage durations (see trace.hpp: exact costs, synthesized
  // placement).
  std::uint64_t span_cursor_us = tracing ? tracer.now_us() : 0;

  // ---------------------------------------------------- stage-0 triage
  // The screen runs *before* the cache key is hashed: a rejected unit
  // skips the SHA-256 along with stages (b)-(e), so stage-0 cost is the
  // scan itself. Rejected units never touch the cache (no lookup, no
  // insert), hence cache_hits + cache_misses + cache_bypass ==
  // units_analyzed - triage_rejected.
  if (triage_) {
    const SteadyClock::time_point triage_start =
        clocked ? SteadyClock::now() : SteadyClock::time_point{};
    const triage::TriageDecision decision =
        triage_->screen(payload, meta_prototype.dst_port);
    const double triage_seconds = clocked ? seconds_since(triage_start) : 0.0;
    constexpr auto kTriageIdx = static_cast<std::size_t>(obs::Stage::kTriage);
    pm.stage_seconds[kTriageIdx]->observe(triage_seconds);
    pm.triage_screened->add();
    if (stats) {
      ++stats->triage_screened;
      fold_stage(stats->stages[kTriageIdx], triage_seconds);
    }
    if (tracing) {
      const auto dur = static_cast<std::uint64_t>(triage_seconds * 1e6);
      tracer.record({obs::stage_name(obs::Stage::kTriage).data(), unit_id, span_cursor_us,
                     dur, payload.size(), 0});
      span_cursor_us += dur;
    }
    if (!decision.escalate) {
      pm.units->add();
      pm.triage_rejected->add();
      pm.triage_rejected_bytes->add(payload.size());
      if (stats) {
        ++stats->units_analyzed;
        ++stats->triage_rejected;
        stats->triage_rejected_bytes += payload.size();
      }
      if (clocked) {
        const double total = seconds_since(unit_start);
        pm.unit_seconds->observe(total);
        if (obs::FlightRecorder::enabled()) {
          obs::UnitRecord fr;
          fr.unit_id = unit_id;
          fr.src = meta_prototype.src.value;
          fr.payload_bytes = clamp_u32(payload.size());
          fr.frames = 0;
          fr.alerts = 0;
          fr.cache = obs::CacheDisposition::kNone;
          fr.total_us = to_flight_us(total);
          obs::FlightRecorder::instance().record(fr);
        }
      }
      return {};
    }
    pm.triage_escalated->add();
    if (stats) ++stats->triage_escalated;
  }

  // ------------------------------------------------- verdict cache lookup
  // Every unit is exactly one of hit / miss / bypass. A hit replays the
  // stored flow-independent verdict under the *current* unit's metadata
  // and skips stages (b)-(e); a miss falls through to full analysis and
  // populates the cache on the way out.
  cache::VerdictCache* vcache = verdict_cache_.get();
  const bool cacheable = vcache && payload.size() <= options_.cache_max_unit_bytes;
  if (vcache && !cacheable) {
    pm.cache_bypass->add();
    if (stats) ++stats->cache_bypass;
  }
  cache::Digest cache_key{};
  if (cacheable) {
    cache::Sha256 key_ctx;
    key_ctx.update(config_fingerprint_.data(), config_fingerprint_.size());
    key_ctx.update(payload);
    cache_key = key_ctx.finish();
    if (auto verdict = vcache->lookup(cache_key)) {
      pm.units->add();
      pm.frames->add(verdict->frames_extracted);
      pm.cache_bytes_saved->add(verdict->bytes_analyzed);
      if (stats) {
        ++stats->units_analyzed;
        ++stats->cache_hits;
        stats->cache_bytes_saved += verdict->bytes_analyzed;
        // Logical-work counters are replayed from the verdict so the
        // report describes the same detection work whether the cache
        // served it or not (see NidsStats). bytes_analyzed stays
        // fresh-only; the replayed bytes are in cache_bytes_saved.
        stats->frames_extracted += verdict->frames_extracted;
        stats->frames_emulated += verdict->frames_emulated;
        stats->emulated_steps += verdict->emulated_steps;
      }
      std::vector<Alert> alerts;
      alerts.reserve(verdict->alerts.size());
      for (const cache::CachedAlert& ca : verdict->alerts) {
        Alert a = meta_prototype;
        a.threat = ca.threat;
        a.template_name = ca.template_name;
        a.frame_reason = ca.frame_reason;
        a.frame_offset = ca.frame_offset;
        alerts.push_back(std::move(a));
      }
      pm.alerts->add(alerts.size());
      if (clocked) {
        const double seconds = seconds_since(unit_start);
        pm.unit_seconds->observe(seconds);
        if (tracing) {
          tracer.record({"cache-hit", unit_id, span_cursor_us,
                         static_cast<std::uint64_t>(seconds * 1e6), payload.size(), 0});
        }
        if (obs::FlightRecorder::enabled()) {
          obs::UnitRecord fr;
          fr.unit_id = unit_id;
          fr.src = meta_prototype.src.value;
          fr.payload_bytes = clamp_u32(payload.size());
          fr.frames = clamp_u32(verdict->frames_extracted);
          fr.alerts = clamp_u32(alerts.size());
          fr.cache = obs::CacheDisposition::kHit;
          fr.total_us = to_flight_us(seconds);
          obs::FlightRecorder::instance().record(fr);
        }
      }
      return alerts;
    }
    if (stats) ++stats->cache_misses;
  }

  // Per-unit stage totals: folded into the flight-recorder record at the
  // unit's exit (many frames can contribute to one stage per unit).
  std::array<double, obs::kStageCount> unit_stage_seconds{};
  auto record_stage = [&](obs::Stage stage, double seconds, std::uint64_t bytes) {
    const auto idx = static_cast<std::size_t>(stage);
    pm.stage_seconds[idx]->observe(seconds);
    unit_stage_seconds[idx] += seconds;
    if (stats) fold_stage(stats->stages[idx], seconds);
    if (tracing) {
      const auto dur = static_cast<std::uint64_t>(seconds * 1e6);
      tracer.record({obs::stage_name(stage).data(), unit_id, span_cursor_us, dur, bytes, 0});
      span_cursor_us += dur;
    }
  };
  SteadyClock::time_point mark{};
  auto tic = [&] {
    if (clocked) mark = SteadyClock::now();
  };
  auto toc = [&]() -> double { return clocked ? seconds_since(mark) : 0.0; };

  std::vector<Alert> alerts;
  tic();
  ctx.extractor_.extract(payload, ctx.frames_);
  const std::vector<extract::BinaryFrame>& frames = ctx.frames_;
  record_stage(obs::Stage::kExtract, toc(), payload.size());
  pm.units->add();
  pm.frames->add(frames.size());

  semantic::AnalyzerStats astats;
  if (stats) {
    ++stats->units_analyzed;
    stats->frames_extracted += frames.size();
  }
  // Per-frame disasm/lift/match costs come out of the analyzer's own
  // stats deltas rather than a wrapper clock: the three stages interleave
  // inside analyze(), so only the analyzer can attribute time correctly.
  auto analyze_frame = [&](util::ByteView data) {
    const semantic::AnalyzerStats before = astats;
    auto detections = ctx.analyzer_.analyze(data, &astats, ctx.scratch_);
    if (astats.frames > before.frames) {
      record_stage(obs::Stage::kDisasm, astats.disasm_seconds - before.disasm_seconds,
                   data.size());
      record_stage(obs::Stage::kLift, astats.lift_seconds - before.lift_seconds,
                   data.size());
      record_stage(obs::Stage::kMatch, astats.match_seconds - before.match_seconds,
                   data.size());
    }
    return detections;
  };
  // Unit-local work totals: folded into `stats` as before, and captured
  // into the cached verdict so hits can report the work they skipped.
  std::uint64_t unit_bytes_analyzed = 0;
  std::uint64_t unit_frames_emulated = 0;
  std::uint64_t unit_emulated_steps = 0;
  // One sandbox run per frame per unit: the decoder-confirmation pass and
  // the deep-analysis pass below both emulate frames, so results are
  // memoized by frame index (an emulated frame is counted once).
  ctx.emu_memo_.assign(frames.size(), std::nullopt);
  auto emulate = [&](std::size_t frame_idx) -> const emu::EmulationResult& {
    std::optional<emu::EmulationResult>& memo = ctx.emu_memo_[frame_idx];
    if (!memo) {
      util::ByteView data = frames[frame_idx].data;
      tic();
      memo = emu::emulate_frame(data, options_.emulator);
      record_stage(obs::Stage::kEmulate, toc(), data.size());
      ++unit_frames_emulated;
      unit_emulated_steps += memo->steps;
      if (stats) {
        ++stats->frames_emulated;
        stats->emulated_steps += memo->steps;
      }
    }
    return *memo;
  };

  // A template may fire on several frames of the same payload (e.g. the
  // sled frame and the after-repetition frame overlap); report it once.
  ctx.fired_names_.clear();
  auto already = [&ctx](const std::string& name) {
    return ctx.fired_names_.count(name) != 0;
  };
  for (const auto& frame : frames) {
    unit_bytes_analyzed += frame.data.size();
    if (stats) stats->bytes_analyzed += frame.data.size();
    pm.bytes_analyzed->add(frame.data.size());
    for (auto& det : analyze_frame(frame.data)) {
      if (already(det.template_name)) continue;
      ctx.fired_names_.insert(det.template_name);
      Alert a = meta_prototype;
      a.threat = det.threat;
      a.template_name = std::move(det.template_name);
      a.frame_reason = frame.reason;
      a.frame_offset = frame.src_offset;
      alerts.push_back(std::move(a));
    }
  }
  // Optional dynamic confirmation: a static decryption-loop alert must
  // correspond to code that, when actually run, decodes something.
  if (options_.confirm_decoders_by_emulation) {
    const bool has_decoder_alert =
        std::any_of(alerts.begin(), alerts.end(), [](const Alert& a) {
          return a.threat == semantic::ThreatClass::kDecryptionLoop;
        });
    if (has_decoder_alert) {
      bool confirmed = false;
      for (std::size_t fi = 0; fi < frames.size(); ++fi) {
        if (emulate(fi).frame_bytes_modified >= options_.min_decoded_bytes) {
          confirmed = true;
          break;
        }
      }
      if (!confirmed) {
        // Forget the erased names too: the deep pass below may rediscover
        // the same template on an emulation-decoded frame, and that
        // confirmed re-detection must not be suppressed.
        for (const Alert& a : alerts) {
          if (a.threat == semantic::ThreatClass::kDecryptionLoop) {
            ctx.fired_names_.erase(a.template_name);
          }
        }
        std::erase_if(alerts, [](const Alert& a) {
          return a.threat == semantic::ThreatClass::kDecryptionLoop;
        });
      }
    }
  }

  // Deep analysis: run each frame in the sandbox. A decoder decrypts
  // itself there, so the second static pass sees the plaintext behaviour
  // that the on-wire bytes hid; the syscall trace independently exposes
  // behaviour even when no static template covers it.
  if (options_.enable_emulation) {
    auto add_alert = [&](semantic::ThreatClass threat, std::string name,
                         extract::FrameReason reason, std::size_t offset) {
      if (already(name)) return;
      ctx.fired_names_.insert(name);
      Alert a = meta_prototype;
      a.threat = threat;
      a.template_name = std::move(name);
      a.frame_reason = reason;
      a.frame_offset = offset;
      alerts.push_back(std::move(a));
    };
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
        for (auto& det : analyze_frame(emu_result.decoded_frame)) {
          add_alert(det.threat, std::move(det.template_name),
                    extract::FrameReason::kEmulatedDecode, frame.src_offset);
        }
      }
    }
  }

  pm.alerts->add(alerts.size());
  if (stats) merge_analyzer(stats->analyzer, astats);

  if (cacheable) {
    // Strip the alerts down to their flow-independent fields, preserving
    // emission order exactly — replay must produce a byte-identical list.
    cache::Verdict verdict;
    verdict.alerts.reserve(alerts.size());
    for (const Alert& a : alerts) {
      verdict.alerts.push_back(
          cache::CachedAlert{a.threat, a.template_name, a.frame_reason, a.frame_offset});
    }
    verdict.frames_extracted = frames.size();
    verdict.bytes_analyzed = unit_bytes_analyzed;
    verdict.frames_emulated = unit_frames_emulated;
    verdict.emulated_steps = unit_emulated_steps;
    vcache->insert(cache_key, std::move(verdict));
  }
  if (clocked) {
    const double total = seconds_since(unit_start);
    pm.unit_seconds->observe(total);
    if (obs::FlightRecorder::enabled()) {
      obs::UnitRecord fr;
      fr.unit_id = unit_id;
      fr.src = meta_prototype.src.value;
      fr.payload_bytes = clamp_u32(payload.size());
      fr.frames = clamp_u32(frames.size());
      fr.alerts = clamp_u32(alerts.size());
      fr.cache = cacheable ? obs::CacheDisposition::kMiss
                 : vcache  ? obs::CacheDisposition::kBypass
                           : obs::CacheDisposition::kNone;
      fr.extract_us =
          to_flight_us(unit_stage_seconds[static_cast<std::size_t>(obs::Stage::kExtract)]);
      fr.disasm_us =
          to_flight_us(unit_stage_seconds[static_cast<std::size_t>(obs::Stage::kDisasm)]);
      fr.lift_us =
          to_flight_us(unit_stage_seconds[static_cast<std::size_t>(obs::Stage::kLift)]);
      fr.match_us =
          to_flight_us(unit_stage_seconds[static_cast<std::size_t>(obs::Stage::kMatch)]);
      fr.emulate_us =
          to_flight_us(unit_stage_seconds[static_cast<std::size_t>(obs::Stage::kEmulate)]);
      fr.total_us = to_flight_us(total);
      obs::FlightRecorder::instance().record(fr);
    }
  }
  return alerts;
}

Report NidsEngine::process_capture(const pcap::Capture& capture) {
  Report report;
  ensure_shards();
  const std::size_t nshards = shards_.size();

  /// One payload (or reassembled stream) bound for stages (b)-(e).
  struct Unit {
    util::Bytes payload;
    Alert meta;
    std::uint64_t unit_id = 0;
  };

  // Handoff queue and worker pool for stages (b)-(e). With threads <= 1
  // the queue/pool are bypassed entirely and units are analyzed inline
  // on the shard that formed them.
  const std::size_t workers = options_.threads > 1 ? options_.threads : 0;
  util::BoundedQueue<Unit> queue(options_.max_queued_units, options_.max_queued_bytes);
  queue.set_metrics(&queue_metrics());
  // Publish the configured limits the readiness checks divide by
  // (/healthz treats a 0 capacity gauge as "check disabled").
  obs::pipeline_metrics().queue_capacity->set(
      static_cast<std::int64_t>(options_.max_queued_units));
  obs::pipeline_metrics().flow_table_max_flows->set(
      static_cast<std::int64_t>(options_.max_flows));
  // Merge point for worker-local results. A named struct (rather than a
  // bare local mutex) so the shared report is GUARDED_BY its mutex and
  // the thread-safety analysis enforces that workers only reach it
  // through merge().
  struct MergePoint {
    util::Mutex mu{"Engine.report"};
    Report& report GUARDED_BY(mu);
    explicit MergePoint(Report& r) : report(r) {}
    void merge(std::vector<Alert>&& alerts, const NidsStats& local) {
      util::MutexLock lock(mu);
      report.alerts.insert(report.alerts.end(), std::make_move_iterator(alerts.begin()),
                           std::make_move_iterator(alerts.end()));
      merge_stats(report.stats, local);
    }
  } merge_point{report};

  std::optional<util::ThreadPool> pool;
  if (workers) {
    pool.emplace(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      pool->submit([this, i, &queue, &merge_point] {
        // Long-running consumer: drain units until the producers close
        // the queue, then merge local results once. Each worker owns a
        // private AnalysisContext (no shared extractor/analyzer state on
        // the hot path); verdicts are per-unit and the report is fully
        // sorted, so scheduling cannot change the output.
        obs::WorkerSlot& wslot = obs::WorkerTable::instance().slot("worker", i);
        wslot.begin_run();
        NidsStats local;
        std::vector<Alert> alerts;
        AnalysisContext ctx = make_analysis_context();
        for (;;) {
          // Blocked in pop is *idle* (starved for input); everything
          // between dequeue and the next pop is *busy*.
          util::WallTimer idle_timer;
          std::optional<Unit> unit = queue.pop();
          wslot.add_idle(idle_timer.seconds());
          if (!unit) break;
          wslot.heartbeat();
          util::WallTimer unit_timer;
          auto found = analyze_payload(ctx, unit->payload, unit->meta, &local, unit->unit_id);
          const double unit_seconds = unit_timer.seconds();
          local.analysis_seconds += unit_seconds;
          alerts.insert(alerts.end(), std::make_move_iterator(found.begin()),
                        std::make_move_iterator(found.end()));
          wslot.add_busy(unit_seconds);
          wslot.add_units(1);
        }
        merge_point.merge(std::move(alerts), local);
        wslot.end_run();
      });
    }
  }

  // Per-shard unit sinks. With workers the unit goes through the shared
  // queue; without, it is analyzed inline on the emitting shard's thread
  // — shard-local stages (b)-(e): each shard gets its own
  // AnalysisContext, and results land in that shard's stats and alert
  // list (merged after the shards join — analyze_payload is const and
  // safe to call concurrently). With threads == 0, shards == N this is
  // how the whole pipeline scales N ways with no global queue.
  std::vector<double> inline_analysis(nshards, 0.0);
  std::vector<std::vector<Alert>> inline_alerts(nshards);
  std::vector<AnalysisContext> inline_ctx;
  if (!workers) {
    inline_ctx.reserve(nshards);
    for (std::size_t si = 0; si < nshards; ++si) inline_ctx.push_back(make_analysis_context());
  }
  std::vector<PipelineShard::UnitSink> sinks;
  sinks.reserve(nshards);
  for (std::size_t si = 0; si < nshards; ++si) {
    sinks.push_back([this, si, workers, &queue, &inline_analysis, &inline_alerts,
                     &inline_ctx](util::Bytes payload, const Alert& meta,
                                  std::uint64_t unit_id) {
      if (payload.empty()) return;
      if (workers) {
        const std::size_t weight = payload.size();
        queue.push(Unit{std::move(payload), meta, unit_id}, weight);
      } else {
        util::WallTimer unit_timer;
        NidsStats& sstats = shards_[si]->stats();
        auto alerts = analyze_payload(inline_ctx[si], payload, meta, &sstats, unit_id);
        const double unit_seconds = unit_timer.seconds();
        inline_analysis[si] += unit_seconds;
        sstats.analysis_seconds += unit_seconds;
        auto& out = inline_alerts[si];
        out.insert(out.end(), std::make_move_iterator(alerts.begin()),
                   std::make_move_iterator(alerts.end()));
      }
    });
  }

  for (auto& shard : shards_) shard->begin_capture();

  if (nshards == 1) {
    // ------------------------------- stage (a), single shard (no dispatcher)
    // Classification runs directly on the caller thread; classify wall is
    // the caller's stage-(a) wall minus any inline analysis it triggered.
    util::WallTimer classify_timer;
    for (const pcap::Record& rec : capture.records) {
      shards_[0]->process_record(rec.data, rec.ts_sec, rec.ts_usec, sinks[0]);
    }
    shards_[0]->finish_capture(sinks[0]);
    shards_[0]->stats().classify_seconds = classify_timer.seconds() - inline_analysis[0];
  } else {
    // --------------------------------- stage (a), source-affine shard fanout
    // The caller thread only peeks each frame's IPv4 source and routes the
    // record; every shard thread runs the full stage (a) for its sources.
    // Records are batched to amortize queue locking, and the per-shard
    // queues are shallow so a slow shard backpressures the dispatcher
    // instead of buffering the capture.
    using Batch = std::vector<const pcap::Record*>;
    constexpr std::size_t kBatchRecords = 64;
    constexpr std::size_t kQueueBatches = 16;
    std::vector<std::unique_ptr<util::BoundedQueue<Batch>>> shard_queues;
    std::vector<util::QueueMetrics> shard_queue_metrics(nshards);
    shard_queues.reserve(nshards);
    obs::shard_queue_capacity_gauge().set(kQueueBatches);
    for (std::size_t si = 0; si < nshards; ++si) {
      auto q = std::make_unique<util::BoundedQueue<Batch>>(kQueueBatches);
      const obs::ShardMetrics sm = obs::shard_metrics(si);
      shard_queue_metrics[si].depth = sm.queue_depth;
      shard_queue_metrics[si].depth_peak = sm.queue_depth_peak;
      q->set_metrics(&shard_queue_metrics[si]);
      shard_queues.push_back(std::move(q));
    }
    {
      util::ThreadPool shard_pool(nshards);
      for (std::size_t si = 0; si < nshards; ++si) {
        shard_pool.submit([this, si, &shard_queues, &sinks, &inline_analysis] {
          PipelineShard& shard = *shards_[si];
          auto& q = *shard_queues[si];
          obs::WorkerSlot& sslot = obs::WorkerTable::instance().slot("shard", si);
          sslot.begin_run();
          double wall = 0.0;
          for (;;) {
            util::WallTimer idle_timer;  // blocked on the dispatch queue
            auto batch = q.pop();
            sslot.add_idle(idle_timer.seconds());
            if (!batch) break;
            sslot.heartbeat();
            util::WallTimer batch_timer;
            for (const pcap::Record* rec : *batch) {
              shard.process_record(rec->data, rec->ts_sec, rec->ts_usec, sinks[si]);
            }
            const double busy = batch_timer.seconds();
            wall += busy;
            sslot.add_busy(busy);
            sslot.add_units(batch->size());
          }
          util::WallTimer drain_timer;
          shard.finish_capture(sinks[si]);
          const double drain = drain_timer.seconds();
          wall += drain;
          sslot.add_busy(drain);
          // Same stage-(a) definition the caller thread uses at
          // shards == 1: producer wall minus inline analysis.
          shard.stats().classify_seconds = wall - inline_analysis[si];
          sslot.end_run();
        });
      }

      util::WallTimer dispatch_timer;
      std::vector<Batch> pending(nshards);
      for (const pcap::Record& rec : capture.records) {
        // Frames whose source cannot be peeked (non-IP — any shard would
        // classify them identically) all ride to shard 0.
        const auto src = net::peek_src(rec.data);
        const std::size_t si = src ? shard_index_for(*src, nshards) : 0;
        Batch& batch = pending[si];
        if (batch.empty()) batch.reserve(kBatchRecords);
        batch.push_back(&rec);
        if (batch.size() >= kBatchRecords) {
          shard_queues[si]->push(std::move(batch));
          batch = Batch{};
        }
      }
      for (std::size_t si = 0; si < nshards; ++si) {
        if (!pending[si].empty()) shard_queues[si]->push(std::move(pending[si]));
        shard_queues[si]->close();
      }
      report.stats.dispatch_seconds = dispatch_timer.seconds();
      shard_pool.wait_idle();
    }
  }

  // Fold per-shard stage-(a) results. The shard threads are joined, and
  // the worker queue is still open, so nothing else touches report here.
  for (std::size_t si = 0; si < nshards; ++si) {
    merge_stats(report.stats, shards_[si]->stats());
    auto& found = inline_alerts[si];
    report.alerts.insert(report.alerts.end(), std::make_move_iterator(found.begin()),
                         std::make_move_iterator(found.end()));
  }

  // Streaming drain: close the queue so the consumers finish the backlog
  // and merge their results, then join them. analysis_seconds accrues
  // per-unit in the workers and arrives via merge_stats (the inline path
  // added it to the shard's stats in the sink).
  queue.close();
  if (pool) {
    pool->wait_idle();
    pool.reset();
  }

  // Deterministic alert order regardless of shard routing or worker
  // scheduling: the sort key covers every alert field (a partial key left
  // alerts differing only in frame_offset/ports in schedule-dependent
  // order), so 1-shard and N-shard runs render byte-identical alerts.
  std::sort(report.alerts.begin(), report.alerts.end(), alert_less);
  return report;
}

}  // namespace senids::core
