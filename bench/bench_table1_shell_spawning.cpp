// Table 1 reproduction: eight Linux shell-spawning buffer-overflow
// exploits fired at a honeypot-registered address; two bind the shell to
// a network port and must be flagged as such. Also reports the
// Netsky-scale timing sample the paper uses to compare against [5]
// (2.36-3.27 s per exploit and ~6.5 s per Netsky variant on a 2.8 GHz P4;
// [5] reports ~40 s).
#include <cstdio>

#include "bench_util.hpp"
#include "core/senids.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"
#include "util/timer.hpp"

using namespace senids;

int main() {
  bench::title("Table 1: Linux shell spawning buffer overflow exploits");

  const net::Ipv4Addr honeypot = net::Ipv4Addr::from_octets(10, 0, 0, 7);
  const net::Endpoint attacker{net::Ipv4Addr::from_octets(192, 0, 2, 66), 31337};

  std::printf("%-24s %8s %10s %12s %12s\n", "exploit", "bytes", "detected",
              "binds-port", "time (ms)");
  bench::rule();

  util::Prng prng(1);
  double total_ms = 0;
  int detected_count = 0;
  int binder_flagged = 0;
  const auto corpus = gen::make_shell_spawn_corpus();

  for (const auto& sample : corpus) {
    // Fresh engine per exploit: the paper times each run end to end.
    core::NidsOptions options;
    core::NidsEngine nids(options);
    nids.classifier().honeypots().add_decoy(honeypot);

    gen::TraceBuilder tb(prng.next());
    util::Bytes packet = gen::wrap_in_overflow(sample.code, tb.prng());
    tb.add_tcp_flow(attacker, net::Endpoint{honeypot, 80}, packet);

    util::WallTimer timer;
    core::Report report = nids.process_capture(tb.capture());
    const double ms = timer.millis();
    total_ms += ms;

    const bool shell = report.detected(semantic::ThreatClass::kShellSpawn);
    const bool bound = report.detected(semantic::ThreatClass::kPortBindShell);
    detected_count += shell;
    if (sample.binds_port && bound) ++binder_flagged;
    std::printf("%-24s %8zu %10s %12s %12.3f\n", sample.name.c_str(), packet.size(),
                shell ? "yes" : "NO", bound ? "yes" : (sample.binds_port ? "MISSED" : "-"),
                ms);
  }

  bench::rule();
  std::printf("detected %d/%zu shell spawns; %d/2 port binders noted as such\n",
              detected_count, corpus.size(), binder_flagged);
  std::printf("paper: 8/8 detected, 2/2 noted as bound; 2.36-3.27 s each (P4 2.8GHz)\n");

  // ----------------------------------------------- Netsky timing sample
  bench::section("Netsky-scale sample (timing comparison vs [5])");
  util::Prng netsky_prng(1234);
  auto netsky = gen::make_netsky_like_sample(netsky_prng);
  semantic::SemanticAnalyzer analyzer(semantic::make_standard_library());
  semantic::AnalyzerScratch scratch;
  util::WallTimer timer;
  auto detections = analyzer.analyze(netsky, nullptr, scratch);
  const double netsky_ms = timer.millis();
  std::printf("%-24s %8zu %10s %12s %12.3f\n", "netsky-like", netsky.size(),
              detections.empty() ? "NO" : "yes", "-", netsky_ms);
  std::printf("paper: ~6.5 s per 22 KB Netsky variant; [5] reports ~40 s\n");
  std::printf("\navg exploit pipeline time: %.3f ms\n", total_ms / corpus.size());
  return detected_count == static_cast<int>(corpus.size()) && binder_flagged == 2 &&
                 !detections.empty()
             ? 0
             : 1;
}
