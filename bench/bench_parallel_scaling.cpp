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
//
// The last section measures the worker pool (threads=4, shards=1),
// four shard threads (threads=0, shards=4) and four shard threads that
// are also the analysis threads (threads=4, shards=4) on spread,
// single-source-dominated and triage-dominated benign captures; it has
// no floor. For a run of at least a second per configuration, set
// SENIDS_POOL_SHARD_FLOWS (e.g. 6000).
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

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

/// Repetitions of each configuration in the pool vs sharded section.
constexpr std::size_t kPoolShardReps = 5;

/// Benign flows per exploit flow in the triage-dominated capture: a
/// benign unit costs a small fraction of an ADMmutate unit, so the
/// capture carries more of them.
constexpr std::size_t kBenignFlowsPerExploitFlow = 20;

/// The report's alerts, one rendered line each (timestamp included), in
/// report order.
std::vector<std::string> alert_lines(const core::Report& report) {
  std::vector<std::string> lines;
  for (const core::Alert& alert : report.alerts) {
    lines.push_back(std::to_string(alert.ts_sec) + " " + alert.str());
  }
  return lines;
}

/// Worker pool (threads=4, shards=1) against sharded runs (threads=0 and
/// threads=4, shards=4) on three captures to a honeypot: one ADMmutate
/// flow per source spread over up to 250 sources; the same with one
/// source sending 19 of every 20 flows; and benign payloads spread over
/// 250 sources, where triage rejects most units cheaply and stage (a)
/// dominates. With one shard the calling thread runs stage (a) alone and
/// four threads analyze. Sharded, max(threads, shards) threads run and
/// each shard thread runs stage (a) for its sources. Every unit producer
/// hands a unit to the queue while it holds fewer units than there are
/// threads and analyzes it itself otherwise, so a dominant producer's
/// analysis spills over to the threads that run dry. The configurations
/// run interleaved,
/// kPoolShardReps times, and the table reports the median and
/// interquartile range of end-to-end wall; the keys go into `json`.
/// SENIDS_POOL_SHARD_FLOWS sets the exploit flow count per capture
/// (default SENIDS_ATTACK_FLOWS, i.e. 120). Returns whether every run
/// reported the same alerts as the first run on its capture.
bool pool_vs_sharded(const util::Bytes& payload, net::Ipv4Addr honeypot,
                         bench::JsonReport& json) {
  const std::size_t flows = bench::env_size(
      "SENIDS_POOL_SHARD_FLOWS", bench::env_size("SENIDS_ATTACK_FLOWS", 120));

  struct Workload {
    const char* name;
    const char* key;
    pcap::Capture capture;
    double top_source_share = 0;  // of the analyzed payload bytes
  };
  std::vector<Workload> workloads;
  for (const char* key : {"spread", "skewed", "benign"}) {
    const bool skewed = key == std::string_view("skewed");
    const bool benign = key == std::string_view("benign");
    gen::TraceBuilder tb(skewed ? 31340 : benign ? 31341 : 31339);
    util::Prng& prng = tb.prng();
    std::map<std::uint32_t, std::size_t> bytes_by_source;
    std::size_t total_bytes = 0;
    const std::size_t count = benign ? flows * kBenignFlowsPerExploitFlow : flows;
    for (std::size_t i = 0; i < count; ++i) {
      const bool heavy = skewed && i % 20 != 0;
      const net::Ipv4Addr src =
          heavy ? net::Ipv4Addr::from_octets(198, 51, 100, 1)
                : net::Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(1 + i % 250));
      const util::Bytes unit =
          benign ? gen::make_benign_payload(prng).data
                 : gen::wrap_in_overflow(gen::admmutate_encode(payload, prng).bytes, prng);
      // 40001 is coprime with 250, so no two spread flows share a source
      // port; the dominant source repeats one after 40001 flows.
      tb.add_tcp_flow(net::Endpoint{src, static_cast<std::uint16_t>(20000 + i % 40001)},
                      net::Endpoint{honeypot, 80}, unit);
      bytes_by_source[src.value] += unit.size();
      total_bytes += unit.size();
    }
    std::size_t top = 0;
    for (const auto& [src, bytes] : bytes_by_source) top = std::max(top, bytes);
    workloads.push_back({skewed   ? "one source >= 90%"
                         : benign ? "spread benign"
                                  : "spread sources",
                         key, tb.take(),
                         static_cast<double>(top) / static_cast<double>(total_bytes)});
  }

  struct Config {
    const char* name;
    std::size_t threads, shards;
  };
  const Config configs[] = {
      {"pool t=4 s=1", 4, 1}, {"local t=0 s=4", 0, 4}, {"shards t=4 s=4", 4, 4}};
  // seconds[workload][config], one entry per repetition.
  std::vector<std::vector<std::vector<double>>> seconds(
      workloads.size(), std::vector<std::vector<double>>(std::size(configs)));
  std::vector<std::vector<std::string>> alerts(workloads.size());
  bool consistent = true;
  for (std::size_t rep = 0; rep < kPoolShardReps; ++rep) {
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      for (std::size_t c = 0; c < std::size(configs); ++c) {
        core::NidsOptions options;
        options.threads = configs[c].threads;
        options.shards = configs[c].shards;
        options.triage.mode = triage::TriageMode::kOn;
        core::NidsEngine nids(options);
        nids.classifier().honeypots().add_decoy(honeypot);
        util::WallTimer timer;
        const core::Report report = nids.process_capture(workloads[w].capture);
        seconds[w][c].push_back(timer.seconds());
        std::vector<std::string> lines = alert_lines(report);
        if (rep == 0 && c == 0) {
          alerts[w] = std::move(lines);
        } else {
          consistent = consistent && lines == alerts[w];
        }
      }
    }
  }

  bench::section("worker pool vs sharded analysis (interleaved repetitions)");
  std::printf("exploit flows per capture: %zu, benign flows: %zu, repetitions: %zu, "
              "hardware threads: %u\n",
              flows, flows * kBenignFlowsPerExploitFlow, kPoolShardReps,
              std::thread::hardware_concurrency());
  std::printf("%-18s %10s %-14s %10s %10s %10s %8s\n", "capture", "top src", "config",
              "median(s)", "q1(s)", "q3(s)", "alerts");
  bench::rule();
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t c = 0; c < std::size(configs); ++c) {
      std::vector<double>& v = seconds[w][c];
      const double median = bench::quantile(v, 0.5);
      const double q1 = bench::quantile(v, 0.25);
      const double q3 = bench::quantile(v, 0.75);
      std::printf("%-18s %9.1f%% %-14s %10.3f %10.3f %10.3f %8zu\n", workloads[w].name,
                  workloads[w].top_source_share * 100.0, configs[c].name, median, q1, q3,
                  alerts[w].size());
      const std::string key = std::string("pool_shard_") + workloads[w].key + "_t" +
                              std::to_string(configs[c].threads) + "_s" +
                              std::to_string(configs[c].shards);
      json.set(key + "_median_s", median);
      json.set(key + "_q1_s", q1);
      json.set(key + "_q3_s", q3);
    }
    json.set(std::string("pool_shard_") + workloads[w].key + "_top_source_share",
             workloads[w].top_source_share);
  }
  bench::rule();
  std::printf("alerts identical across configurations and repetitions: %s\n",
              consistent ? "yes" : "NO");
  json.set("pool_shard_flows", flows);
  json.set("pool_shard_repetitions", kPoolShardReps);
  json.set("pool_shard_alerts_consistent", consistent);
  return consistent;
}

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

  // The first multi-threaded capture in a process costs about twice the
  // analysis of later ones; one untimed capture keeps that cost out of
  // the first timed configuration.
  {
    core::NidsOptions options;
    options.threads = 4;
    core::NidsEngine warm_up(options);
    warm_up.classifier().honeypots().add_decoy(honeypot);
    (void)warm_up.process_capture(capture);
  }

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

  const bool pool_shard_consistent = pool_vs_sharded(payload, honeypot, json);
  json.write();

  const bool ok = consistent && dup_consistent && shard_consistent && pool_shard_consistent &&
                  (!floor_enforced || floor_met);
  return ok ? 0 : 1;
}
