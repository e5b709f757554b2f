// Ablation for the Section 4.2 claim: "This binary identification and
// extraction process can be bypassed but it will result in a system with
// much degraded performance." The same suspicious payload set is analyzed
// with targeted frame extraction and with whole-payload bypass; detection
// is unchanged while the byte volume hitting the disassembler (the
// "slowest stage") grows sharply.
#include <cstdio>

#include "bench_util.hpp"
#include "core/senids.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "util/timer.hpp"

using namespace senids;

int main() {
  bench::title("Ablation: binary extraction vs whole-payload bypass (Section 4.2)");

  // A payload mix: exploits embedded in protocol requests plus chunky
  // benign responses (which is what makes the bypass expensive).
  std::vector<std::pair<util::Bytes, std::uint16_t>> payloads;
  util::Prng prng(4242);
  for (const auto& sample : gen::make_shell_spawn_corpus()) {
    payloads.emplace_back(gen::wrap_in_overflow(sample.code, prng), 80);
  }
  payloads.emplace_back(gen::make_code_red_ii_request(), 80);
  auto poly = gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, prng);
  payloads.emplace_back(gen::wrap_in_overflow(poly.bytes, prng), 80);
  const std::size_t benign_n = bench::env_size("SENIDS_BENIGN_FLOWS", 400);
  for (std::size_t i = 0; i < benign_n; ++i) {
    gen::BenignPayload p = gen::make_benign_payload(prng);
    payloads.emplace_back(std::move(p.data), p.dst_port);
  }

  auto run = [&](bool bypass) {
    core::NidsOptions options;
    options.extractor.extract_all = bypass;
    core::NidsEngine nids(options);
    core::AnalysisContext ctx = nids.make_analysis_context();
    core::NidsStats stats;
    std::size_t alerts = 0;
    util::WallTimer timer;
    for (const auto& [payload, port] : payloads) {
      core::Alert meta;
      meta.dst_port = port;
      alerts += nids.analyze_payload(ctx, payload, meta, &stats).size();
    }
    const double secs = timer.seconds();
    return std::tuple<double, core::NidsStats, std::size_t>(secs, stats, alerts);
  };

  auto [ext_s, ext_stats, ext_alerts] = run(false);
  auto [byp_s, byp_stats, byp_alerts] = run(true);

  std::printf("%-28s %14s %14s\n", "", "extraction", "bypass");
  bench::rule();
  std::printf("%-28s %14zu %14zu\n", "payloads", payloads.size(), payloads.size());
  std::printf("%-28s %14zu %14zu\n", "frames", ext_stats.frames_extracted,
              byp_stats.frames_extracted);
  std::printf("%-28s %11.2f MB %11.2f MB\n", "bytes to disassembler",
              static_cast<double>(ext_stats.bytes_analyzed) / 1048576.0,
              static_cast<double>(byp_stats.bytes_analyzed) / 1048576.0);
  std::printf("%-28s %14zu %14zu\n", "candidate code runs",
              ext_stats.analyzer.candidate_runs, byp_stats.analyzer.candidate_runs);
  std::printf("%-28s %14zu %14zu\n", "alerts", ext_alerts, byp_alerts);
  std::printf("%-28s %13.3fs %13.3fs\n", "wall time", ext_s, byp_s);
  bench::rule();
  std::printf("bypass cost: %.1fx wall time, %.1fx disassembler bytes\n",
              byp_s / ext_s,
              static_cast<double>(byp_stats.bytes_analyzed) /
                  static_cast<double>(ext_stats.bytes_analyzed ? ext_stats.bytes_analyzed
                                                               : 1));
  return ext_alerts == byp_alerts || ext_alerts > 0 ? 0 : 1;
}
