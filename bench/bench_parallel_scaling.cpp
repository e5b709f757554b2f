// Efficiency extension: the analysis stages (b)-(e) are independent per
// flow, so the engine scales across worker threads. Supports the paper's
// "our implementation is more efficient than [5]" theme with a modern
// multicore angle (the pipeline design of DESIGN.md).
//
// The engine streams: workers drain analysis units while stage (a) is
// still classifying, so the speedup column compares end-to-end wall
// clock (serial baseline vs overlapped pipeline), not just the analysis
// section.
//
// On hosts with >= 8 hardware threads this bench is also a regression
// gate: it exits nonzero unless cache-off throughput (alerts/sec) at 8
// workers is at least kMinSpeedupAt8 times the 1-worker figure. Smaller
// runners print the measurements but cannot fail the floor (a 2-core
// box can never show 3x).
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "core/senids.hpp"
#include "gen/benign.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"
#include "util/timer.hpp"

using namespace senids;

namespace {

/// Scaling floor at 8 workers over 1 worker, end-to-end, cache off.
constexpr double kMinSpeedupAt8 = 3.0;

}  // namespace

int main() {
  bench::title("Parallel analysis scaling (per-flow work units)");

  const std::size_t attack_flows = bench::env_size("SENIDS_ATTACK_FLOWS", 120);
  const net::Ipv4Addr honeypot = net::Ipv4Addr::from_octets(10, 0, 0, 7);
  const unsigned hw_threads = std::thread::hardware_concurrency();

  gen::TraceBuilder tb(31337);
  util::Prng& prng = tb.prng();
  const auto payload = gen::make_shell_spawn_corpus()[1].code;
  for (std::size_t i = 0; i < attack_flows; ++i) {
    const net::Endpoint attacker{
        net::Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(1 + i % 250)),
        static_cast<std::uint16_t>(20000 + i)};
    auto poly = gen::admmutate_encode(payload, prng);
    tb.add_tcp_flow(attacker, net::Endpoint{honeypot, 80},
                    gen::wrap_in_overflow(poly.bytes, prng));
  }
  auto capture = tb.take();

  // "work(s)" is NidsStats::analysis_seconds: summed per-unit wall across
  // workers, so it stays roughly constant while total(s) drops — the gap
  // between the two is the parallelism actually harvested.
  std::printf("hardware threads: %u\n\n", hw_threads);
  std::printf("%8s %12s %12s %10s %12s %8s\n", "threads", "work(s)", "total(s)",
              "alerts", "alerts/s", "speedup");
  bench::rule();

  bench::JsonReport json("parallel_scaling");
  double base_total = 0;
  double alerts_per_s_t1 = 0;
  double alerts_per_s_t8 = 0;
  std::size_t base_alerts = 0;
  bool consistent = true;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::NidsOptions options;
    options.threads = threads;
    core::NidsEngine nids(options);
    nids.classifier().honeypots().add_decoy(honeypot);
    util::WallTimer timer;
    core::Report report = nids.process_capture(capture);
    const double total = timer.seconds();
    const double alerts_per_s =
        total > 0 ? static_cast<double>(report.alerts.size()) / total : 0;
    if (threads == 1) {
      base_total = total;
      base_alerts = report.alerts.size();
      alerts_per_s_t1 = alerts_per_s;
    }
    if (threads == 8) alerts_per_s_t8 = alerts_per_s;
    consistent = consistent && report.alerts.size() == base_alerts;
    std::printf("%8zu %12.3f %12.3f %10zu %12.1f %7.2fx\n", threads,
                report.stats.analysis_seconds, total, report.alerts.size(),
                alerts_per_s, base_total / total);
    const std::string suffix = "_t" + std::to_string(threads);
    json.set("unique_total_s" + suffix, total);
    json.set("unique_alerts_per_s" + suffix, alerts_per_s);
  }
  bench::rule();
  std::printf("alerts identical across thread counts: %s\n", consistent ? "yes" : "NO");

  // ---- scaling floor (cache off, 8 workers vs 1) --------------------
  const double speedup_at_8 = alerts_per_s_t1 > 0 ? alerts_per_s_t8 / alerts_per_s_t1 : 0;
  const bool floor_enforced = hw_threads >= 8;
  const bool floor_met = speedup_at_8 >= kMinSpeedupAt8;
  std::printf("throughput at 8 workers: %.2fx the 1-worker figure "
              "(floor %.1fx, %s on this %u-thread host)\n",
              speedup_at_8, kMinSpeedupAt8,
              floor_enforced ? "ENFORCED" : "not enforced", hw_threads);
  if (floor_enforced && !floor_met) {
    std::printf("FAIL: analysis throughput no longer scales to 8 workers\n");
  }

  json.set("attack_flows", attack_flows);
  json.set("unique_total_s_t1", base_total);
  json.set("unique_alerts", base_alerts);
  json.set("hardware_threads", static_cast<std::size_t>(hw_threads));
  json.set("speedup_at_8", speedup_at_8);
  json.set("scaling_floor", kMinSpeedupAt8);
  json.set("scaling_floor_enforced", floor_enforced);
  json.set("scaling_floor_met", floor_met);

  // ---- verdict cache under parallel analysis ------------------------
  // Real attack traffic repeats (worms send one payload everywhere), so
  // the cache sweep uses a duplicate-heavy capture: a few distinct
  // polymorphic payloads, each replayed across many flows. Workers share
  // one sharded cache; hits skip stages (b)-(e) on every thread.
  bench::section("with verdict cache (duplicate-heavy workload)");
  const std::size_t groups = 8;
  gen::TraceBuilder dup_tb(31338);
  util::Prng& dup_prng = dup_tb.prng();
  std::vector<util::Bytes> variants;
  for (std::size_t g = 0; g < groups; ++g) {
    auto poly = gen::admmutate_encode(payload, dup_prng);
    variants.push_back(gen::wrap_in_overflow(poly.bytes, dup_prng));
  }
  for (std::size_t i = 0; i < attack_flows; ++i) {
    const net::Endpoint attacker{
        net::Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(1 + i % 250)),
        static_cast<std::uint16_t>(20000 + i)};
    dup_tb.add_tcp_flow(attacker, net::Endpoint{honeypot, 80}, variants[i % groups]);
  }
  auto dup_capture = dup_tb.take();

  std::printf("%8s %8s %12s %12s %10s %9s %8s\n", "threads", "cache", "work(s)",
              "total(s)", "alerts", "hit rate", "speedup");
  bench::rule();

  double dup_base_total = 0;
  std::size_t dup_base_alerts = 0;
  bool dup_consistent = true;
  for (const bool cached : {false, true}) {
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      core::NidsOptions options;
      options.threads = threads;
      options.verdict_cache_bytes = cached ? 64u << 20 : 0;
      core::NidsEngine nids(options);
      nids.classifier().honeypots().add_decoy(honeypot);
      util::WallTimer timer;
      core::Report report = nids.process_capture(dup_capture);
      const double total = timer.seconds();
      if (!cached && threads == 1) {
        dup_base_total = total;
        dup_base_alerts = report.alerts.size();
      }
      dup_consistent = dup_consistent && report.alerts.size() == dup_base_alerts;
      const double hit_rate =
          report.stats.units_analyzed
              ? static_cast<double>(report.stats.cache_hits) / report.stats.units_analyzed
              : 0;
      std::printf("%8zu %8s %12.3f %12.3f %10zu %8.1f%% %7.2fx\n", threads,
                  cached ? "on" : "off", report.stats.analysis_seconds, total,
                  report.alerts.size(), hit_rate * 100.0, dup_base_total / total);
      const std::string suffix =
          std::string(cached ? "cache_on" : "cache_off") + "_t" + std::to_string(threads);
      json.set("dup_total_s_" + suffix, total);
      json.set("dup_work_s_" + suffix, report.stats.analysis_seconds);
      if (cached) json.set("dup_hit_rate_" + suffix, hit_rate);
    }
  }
  bench::rule();
  std::printf("alerts identical across thread counts and cache modes: %s\n",
              dup_consistent ? "yes" : "NO");
  json.set("dup_alerts", dup_base_alerts);
  json.set("alerts_consistent", consistent && dup_consistent);
  json.write();

  // ---- source-affine shard sweep ------------------------------------
  // Stage (a) itself scales: with worker threads pinned at 1, every
  // pipeline stage (classify, reassemble, analyze) runs inside the
  // shard that owns the source, so shards are the only parallelism.
  // The workload spreads many sources across shards — the regime the
  // shard refactor targets.
  bench::section("source-affine shard sweep (threads=1, per-shard pipeline)");
  std::printf("%8s %12s %12s %10s %8s\n", "shards", "dispatch(s)", "total(s)",
              "alerts", "speedup");
  bench::rule();

  bench::JsonReport json2("shard_scaling");
  double shard_base_total = 0;
  std::size_t shard_base_alerts = 0;
  bool shard_consistent = true;
  bool shard_speedup = false;
  for (std::size_t shards : {1u, 2u, 4u}) {
    core::NidsOptions options;
    options.threads = 1;
    options.shards = shards;
    core::NidsEngine nids(options);
    nids.classifier().honeypots().add_decoy(honeypot);
    util::WallTimer timer;
    core::Report report = nids.process_capture(capture);
    const double total = timer.seconds();
    if (shards == 1) {
      shard_base_total = total;
      shard_base_alerts = report.alerts.size();
    }
    shard_consistent = shard_consistent && report.alerts.size() == shard_base_alerts;
    shard_speedup = shard_speedup || (shards > 1 && total < shard_base_total);
    std::printf("%8zu %12.3f %12.3f %10zu %7.2fx\n", shards,
                report.stats.dispatch_seconds, total, report.alerts.size(),
                shard_base_total / total);
    const std::string suffix = "_s" + std::to_string(shards);
    json2.set("shard_total_s" + suffix, total);
    json2.set("shard_dispatch_s" + suffix, report.stats.dispatch_seconds);
    json2.set("shard_speedup" + suffix, shard_base_total / total);
  }
  bench::rule();
  std::printf("alerts identical across shard counts: %s\n",
              shard_consistent ? "yes" : "NO");
  std::printf("throughput improves with shards > 1: %s\n",
              shard_speedup ? "yes" : "NO");
  json2.set("attack_flows", attack_flows);
  json2.set("shard_alerts", shard_base_alerts);
  json2.set("alerts_consistent", shard_consistent);
  json2.set("speedup_observed", shard_speedup);
  json2.write();

  const bool ok =
      consistent && dup_consistent && shard_consistent && (!floor_enforced || floor_met);
  return ok ? 0 : 1;
}
