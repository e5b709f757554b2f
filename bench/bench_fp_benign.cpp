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
// The exit code enforces the tentpole's floors (pattern of
// bench_table3_codered): zero false positives in both configurations,
// stage-0 screening at >= 100 MB/s on one core, and a >= 10x end-to-end
// speedup from triage on the benign workload.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
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

struct PhaseResult {
  double seconds = 0;
  std::size_t false_positives = 0;
  core::NidsStats stats;
};

/// Fan the corpus out over `workers` threads against one shared engine;
/// the engine's triage mode is the only variable between phases.
PhaseResult run_phase(const core::NidsEngine& nids,
                      const std::vector<gen::BenignPayload>& corpus,
                      std::size_t workers) {
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

  const PhaseResult off = run_phase(nids_off, corpus, workers);
  obs::pipeline_metrics().unit_seconds->reset();
  const PhaseResult on = run_phase(nids_on, corpus, workers);

  // Phase 3: the prefilter alone, single-threaded — the per-core figure
  // the >= 100 MB/s floor is stated against.
  const triage::TriageFilter* filter = nids_on.triage_filter();
  std::size_t screen_rejected = 0;
  util::WallTimer screen_timer;
  for (const gen::BenignPayload& p : corpus) {
    if (!filter->screen(p.data, p.dst_port).escalate) ++screen_rejected;
  }
  const double screen_secs = screen_timer.seconds();

  const double off_mb_per_s = mb(static_cast<double>(generated)) / off.seconds;
  const double on_mb_per_s = mb(static_cast<double>(generated)) / on.seconds;
  const double stage0_mb_per_s = mb(static_cast<double>(generated)) / screen_secs;
  const double speedup = off.seconds / on.seconds;
  const double escalation_rate =
      static_cast<double>(on.stats.triage_escalated) /
      static_cast<double>(std::max<std::size_t>(1, on.stats.triage_screened));

  std::printf("tier                     throughput      frames   false pos\n");
  std::printf("full pipeline (no triage) %8.1f MB/s  %8zu  %8zu\n", off_mb_per_s,
              off.stats.frames_extracted, off.false_positives);
  std::printf("full pipeline (triage)    %8.1f MB/s  %8zu  %8zu\n", on_mb_per_s,
              on.stats.frames_extracted, on.false_positives);
  std::printf("stage-0 screen (1 core)   %8.1f MB/s         -         -\n\n",
              stage0_mb_per_s);
  std::printf("triage: %zu screened, %zu escalated (%.1f%%), %zu rejected "
              "(%.1f MB skipped)\n",
              on.stats.triage_screened, on.stats.triage_escalated,
              escalation_rate * 100.0, on.stats.triage_rejected,
              mb(static_cast<double>(on.stats.triage_rejected_bytes)));
  std::printf("end-to-end benign speedup : %.1fx\n", speedup);
  std::printf("paper: no false positives over 566 MB of benign traffic\n");

  const bool no_fps = off.false_positives == 0 && on.false_positives == 0;
  const bool stage0_floor = stage0_mb_per_s >= 100.0;
  const bool speedup_floor = speedup >= 10.0;
  std::printf("\nfloors: stage-0 >= 100 MB/s: %s; speedup >= 10x: %s; zero FPs: %s\n",
              stage0_floor ? "PASS" : "FAIL", speedup_floor ? "PASS" : "FAIL",
              no_fps ? "PASS" : "FAIL");

  bench::JsonReport json("fp_benign");
  json.set("payloads", corpus.size());
  json.set("bytes", generated);
  json.set("workers", workers);
  json.set("frames_extracted", off.stats.frames_extracted);
  json.set("seconds_no_triage", off.seconds);
  json.set("seconds_triage", on.seconds);
  json.set("seconds_stage0", screen_secs);
  json.set("throughput_mb_per_s", on_mb_per_s);
  json.set("throughput_no_triage_mb_per_s", off_mb_per_s);
  json.set("stage0_mb_per_s", stage0_mb_per_s);
  json.set("speedup", speedup);
  json.set("triage_screened", on.stats.triage_screened);
  json.set("triage_escalated", on.stats.triage_escalated);
  json.set("triage_rejected", on.stats.triage_rejected);
  json.set("triage_rejected_bytes", on.stats.triage_rejected_bytes);
  json.set("escalation_rate", escalation_rate);
  json.set("screen_only_rejected", screen_rejected);
  json.set("p95_unit_seconds",
           obs::pipeline_metrics().unit_seconds->snapshot().quantile(0.95));
  json.set("false_positives", off.false_positives + on.false_positives);
  json.write();
  return no_fps && stage0_floor && speedup_floor ? 0 : 1;
}
