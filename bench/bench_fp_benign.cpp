// Section 5.4 reproduction: false-positive evaluation, now per triage
// tier. Classification is disabled (every payload analyzed) over a
// benign corpus of web, DNS and SMTP traffic including base64 and
// high-entropy binary payloads. The paper examined a month of traffic
// (566 MB) and saw zero template matches; default scale here is 16 MB
// (SENIDS_FP_MB overrides; 566 at paper scale).
//
// The same corpus is run three ways:
//   1. full pipeline, triage off   -> baseline end-to-end throughput
//   2. full pipeline, triage on    -> tiered end-to-end throughput
//   3. stage-0 screen only, 1 core -> pure prefilter throughput
//
// The three tiers run interleaved, five times over. The exit code
// enforces the floors (pattern of bench_table3_codered): zero false
// positives in every run of both configurations, and on the medians,
// stage-0 screening at >= 100 MB/s on one core and a >= 10x end-to-end
// speedup from triage on the benign workload. The quartiles are printed
// and written to the JSON beside the medians.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/senids.hpp"
#include "gen/benign.hpp"
#include "obs/pipeline.hpp"
#include "util/queue.hpp"
#include "util/timer.hpp"

using namespace senids;

namespace {

/// Interleaved repetitions of the three tiers; floors apply to medians.
constexpr std::size_t kRepetitions = 5;

struct PhaseResult {
  double seconds = 0;
  std::size_t false_positives = 0;
  core::NidsStats stats;
};

/// Fan the corpus out over `workers` threads against one shared engine;
/// the engine's triage mode is the only variable between phases. Alerts
/// are counted always and printed (and dumped) only when `report_fps`.
PhaseResult run_phase(const core::NidsEngine& nids,
                      const std::vector<gen::BenignPayload>& corpus,
                      std::size_t workers, bool report_fps) {
  PhaseResult result;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> false_positives{0};
  std::mutex mu;  // guards stats aggregation and FP printing
  std::vector<std::thread> pool;
  util::WallTimer timer;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      core::NidsStats local;
      core::AnalysisContext ctx = nids.make_analysis_context();
      for (std::size_t i = next.fetch_add(1); i < corpus.size(); i = next.fetch_add(1)) {
        const gen::BenignPayload& p = corpus[i];
        core::Alert meta;
        meta.dst_port = p.dst_port;
        auto alerts = nids.analyze_payload(ctx, p.data, meta, &local);
        if (!alerts.empty()) {
          false_positives += alerts.size();
          if (!report_fps) continue;
          std::lock_guard lock(mu);
          for (const auto& a : alerts) {
            std::printf("FALSE POSITIVE: %s\n", a.str().c_str());
          }
          // SENIDS_FP_DUMP=<dir> writes each offending payload to a file
          // for offline replay through senids_disasm.
          if (const char* dir = std::getenv("SENIDS_FP_DUMP")) {
            static int dump_id = 0;
            char path[256];
            std::snprintf(path, sizeof path, "%s/fp_payload_%03d.bin", dir, dump_id++);
            if (std::FILE* f = std::fopen(path, "wb")) {
              std::fwrite(p.data.data(), 1, p.data.size(), f);
              std::fclose(f);
              std::printf("  payload dumped to %s (%zu bytes, dst port %u)\n", path,
                          p.data.size(), p.dst_port);
            }
          }
        }
      }
      std::lock_guard lock(mu);
      result.stats.units_analyzed += local.units_analyzed;
      result.stats.frames_extracted += local.frames_extracted;
      result.stats.bytes_analyzed += local.bytes_analyzed;
      result.stats.triage_screened += local.triage_screened;
      result.stats.triage_escalated += local.triage_escalated;
      result.stats.triage_rejected += local.triage_rejected;
      result.stats.triage_rejected_bytes += local.triage_rejected_bytes;
      result.stats.analyzer.candidate_runs += local.analyzer.candidate_runs;
      result.stats.analyzer.template_matches_tried += local.analyzer.template_matches_tried;
    });
  }
  for (auto& t : pool) t.join();
  result.seconds = timer.seconds();
  result.false_positives = false_positives.load();
  return result;
}

double mb(double bytes) { return bytes / (1024.0 * 1024.0); }

}  // namespace

int main() {
  bench::title("Section 5.4: false positive evaluation, per triage tier");

  const std::size_t target_mb =
      bench::env_size("SENIDS_FP_MB", bench::paper_scale() ? 566 : 16);
  const std::size_t total_bytes = target_mb * 1024 * 1024;
  const std::size_t workers =
      bench::env_size("SENIDS_FP_THREADS",
                      std::max(1u, std::thread::hardware_concurrency()));

  // Deterministic corpus, generated up front so every phase sees the
  // exact same payload sequence.
  util::Prng prng(5661);
  std::vector<gen::BenignPayload> corpus;
  std::size_t generated = 0;
  while (generated < total_bytes) {
    corpus.push_back(gen::make_benign_payload(prng));
    generated += corpus.back().data.size();
  }

  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  // SENIDS_FP_CONFIRM=1 measures the hybrid configuration where decoder
  // alerts must be confirmed by the sandbox (see NidsOptions).
  options.confirm_decoders_by_emulation = bench::env_size("SENIDS_FP_CONFIRM", 0) != 0;
  core::NidsEngine nids_off(options);
  options.triage.mode = triage::TriageMode::kOn;
  core::NidsEngine nids_on(options);

  // senids_unit_seconds feeds the JSON's p95 column (triage-on phase).
  obs::set_metrics_enabled(true);

  std::printf("corpus: %zu payloads, %.1f MB; %zu workers\n\n", corpus.size(),
              mb(static_cast<double>(generated)), workers);

  // The tiers run interleaved, kRepetitions times, so that host drift
  // hits every tier alike; the floors apply to the medians.
  const triage::TriageFilter* filter = nids_on.triage_filter();
  PhaseResult off;
  PhaseResult on;
  std::vector<double> off_mb_per_s, on_mb_per_s, stage0_mb_per_s, speedups, p95s;
  std::vector<triage::TriageDecision> decisions(corpus.size());
  std::size_t false_positives_all = 0;
  const double corpus_mb = mb(static_cast<double>(generated));
  for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
    off = run_phase(nids_off, corpus, workers, rep == 0);
    obs::pipeline_metrics().unit_seconds->reset();
    on = run_phase(nids_on, corpus, workers, rep == 0);
    p95s.push_back(obs::pipeline_metrics().unit_seconds->snapshot().quantile(0.95));
    false_positives_all += off.false_positives + on.false_positives;

    // The prefilter alone, single-threaded: the per-core figure the
    // >= 100 MB/s floor is stated against.
    util::WallTimer screen_timer;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      decisions[i] = filter->screen(corpus[i].data, corpus[i].dst_port);
    }
    const double screen_secs = screen_timer.seconds();

    off_mb_per_s.push_back(corpus_mb / off.seconds);
    on_mb_per_s.push_back(corpus_mb / on.seconds);
    stage0_mb_per_s.push_back(corpus_mb / screen_secs);
    speedups.push_back(off.seconds / on.seconds);
  }
  std::map<std::string_view, std::size_t> reason_counts;
  std::size_t screen_rejected = 0;
  for (const triage::TriageDecision& d : decisions) {
    ++reason_counts[triage::triage_reason_name(d.reason)];
    if (!d.escalate) ++screen_rejected;
  }

  struct Spread {
    double median, q1, q3;
  };
  auto spread = [](std::vector<double>& v) {
    return Spread{bench::quantile(v, 0.5), bench::quantile(v, 0.25),
                  bench::quantile(v, 0.75)};
  };
  const Spread off_tp = spread(off_mb_per_s);
  const Spread on_tp = spread(on_mb_per_s);
  const Spread stage0 = spread(stage0_mb_per_s);
  const Spread speedup = spread(speedups);
  const double escalation_rate =
      static_cast<double>(on.stats.triage_escalated) /
      static_cast<double>(std::max<std::size_t>(1, on.stats.triage_screened));

  std::printf("tier                       median MB/s  [q1, q3]            frames\n");
  std::printf("full pipeline (no triage)  %10.1f  [%7.1f, %7.1f]  %8zu\n", off_tp.median,
              off_tp.q1, off_tp.q3, off.stats.frames_extracted);
  std::printf("full pipeline (triage)     %10.1f  [%7.1f, %7.1f]  %8zu\n", on_tp.median,
              on_tp.q1, on_tp.q3, on.stats.frames_extracted);
  std::printf("stage-0 screen (1 core)    %10.1f  [%7.1f, %7.1f]         -\n\n",
              stage0.median, stage0.q1, stage0.q3);
  std::printf("false positives per repetition: %zu (no triage) + %zu (triage); %zu over "
              "all %zu\n",
              off.false_positives, on.false_positives, false_positives_all, kRepetitions);
  std::printf("triage: %zu screened, %zu escalated (%.1f%%), %zu rejected "
              "(%.1f MB skipped)\n",
              on.stats.triage_screened, on.stats.triage_escalated,
              escalation_rate * 100.0, on.stats.triage_rejected,
              mb(static_cast<double>(on.stats.triage_rejected_bytes)));
  std::printf("stage-0 reasons:");
  for (const auto& [name, count] : reason_counts) {
    std::printf(" %.*s %zu;", static_cast<int>(name.size()), name.data(), count);
  }
  std::printf("\nend-to-end benign speedup : %.1fx [%.1f, %.1f]\n", speedup.median,
              speedup.q1, speedup.q3);
  std::printf("paper: no false positives over 566 MB of benign traffic\n");

  const bool no_fps = false_positives_all == 0;
  const bool stage0_floor = stage0.median >= 100.0;
  const bool speedup_floor = speedup.median >= 10.0;
  std::printf("\nfloors (medians): stage-0 >= 100 MB/s: %s; speedup >= 10x: %s; "
              "zero FPs: %s\n",
              stage0_floor ? "PASS" : "FAIL", speedup_floor ? "PASS" : "FAIL",
              no_fps ? "PASS" : "FAIL");

  bench::JsonReport json("fp_benign");
  json.set("payloads", corpus.size());
  json.set("bytes", generated);
  json.set("workers", workers);
  json.set("repetitions", kRepetitions);
  json.set("frames_extracted", off.stats.frames_extracted);
  json.set("seconds_no_triage", corpus_mb / off_tp.median);
  json.set("seconds_triage", corpus_mb / on_tp.median);
  json.set("seconds_stage0", corpus_mb / stage0.median);
  json.set("throughput_mb_per_s", on_tp.median);
  json.set("throughput_mb_per_s_q1", on_tp.q1);
  json.set("throughput_mb_per_s_q3", on_tp.q3);
  json.set("throughput_no_triage_mb_per_s", off_tp.median);
  json.set("throughput_no_triage_mb_per_s_q1", off_tp.q1);
  json.set("throughput_no_triage_mb_per_s_q3", off_tp.q3);
  json.set("stage0_mb_per_s", stage0.median);
  json.set("stage0_mb_per_s_q1", stage0.q1);
  json.set("stage0_mb_per_s_q3", stage0.q3);
  json.set("speedup", speedup.median);
  json.set("speedup_q1", speedup.q1);
  json.set("speedup_q3", speedup.q3);
  json.set("triage_screened", on.stats.triage_screened);
  json.set("triage_escalated", on.stats.triage_escalated);
  json.set("triage_rejected", on.stats.triage_rejected);
  json.set("triage_rejected_bytes", on.stats.triage_rejected_bytes);
  json.set("escalation_rate", escalation_rate);
  json.set("screen_only_rejected", screen_rejected);
  for (const auto& [name, count] : reason_counts) {
    json.set("screen_reason_" + std::string(name), count);
  }
  json.set("p95_unit_seconds", bench::quantile(p95s, 0.5));
  json.set("false_positives", off.false_positives + on.false_positives);
  json.write();
  return no_fps && stage0_floor && speedup_floor ? 0 : 1;
}
