// senids benchmark harness.
//
//   perfbench --workload <wire_mix|benign_all|attack_dense> --seed <n>
//             --seconds <s> --trace <0|1> [--scale <f>] [--trace-out <path>]
//
// --trace 0 measures the end-to-end metrics on untraced passes of the
// public entry points (NidsEngine::process_capture in batch,
// LiveSession::feed streaming). --trace 1 runs the per-layer traced run
// (layers.cpp) and writes its spans as Chrome trace-event JSON to
// --trace-out. Either way the last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "layers.hpp"
#include "passes.hpp"
#include "summary.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double scale = 1.0;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = end && *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0 ? 1 : 0;
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
    } else if (flag == "--scale") {
      a.scale = std::strtod(v, &end);
      if (!(end && *end == '\0' && a.scale > 0)) return false;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

/// Untraced run: rounds of {set-up samples, host probe, one batch pass,
/// one streaming pass} until the time is up (at least kMinRounds), so a
/// slow spell of the host moves one round's numbers, not the run's. Only
/// fixed-size results are kept from a round: anything that grows with
/// the round count would age the heap that later passes allocate from.
int run_untraced(const Workload& w, const Args& args) {
  constexpr std::size_t kMinRounds = 3;
  constexpr std::size_t kMaxRounds = 128;
  constexpr std::size_t kSetupsPerRound = 40;
  const double capture_mb = static_cast<double>(w.wire.size()) / 1e6;

  std::vector<double> setup, throughput, host;
  setup.reserve(kSetupsPerRound * kMaxRounds);
  throughput.reserve(kMaxRounds);
  host.reserve(kMaxRounds);
  std::optional<Verifier> verifier;
  core::NidsStats counts;        // the program's own counters, first batch pass
  std::vector<std::uint32_t> unit_records;  // records completing a unit, first stream pass
  std::vector<float> latency_us; // [round][unit], rounds appended in order
  std::size_t unit_mismatches = 0;
  std::size_t mem_peak = 0;
  std::size_t rounds = 0;
  const double deadline = now_s() + args.seconds;
  while (rounds < kMinRounds || (now_s() < deadline && rounds < kMaxRounds)) {
    for (std::size_t i = 0; i < kSetupsPerRound; ++i) setup.push_back(time_setup(w));
    host.push_back(host_ref_ns_per_byte());

    BatchPass batch = batch_pass(w);
    throughput.push_back(capture_mb / batch.seconds);
    mem_peak = std::max(mem_peak, batch.heap_peak_bytes);
    if (!verifier) {
      counts = batch.report.stats;
      verifier.emplace(w, std::move(batch.report.alerts));
    } else {
      verifier->compare(batch.report.alerts);
    }

    StreamPass stream = stream_pass(w);
    mem_peak = std::max(mem_peak, stream.heap_peak_bytes);
    verifier->compare(stream.alerts);
    if (unit_records.empty()) {
      unit_records = stream.records;
      latency_us.reserve(kMaxRounds * unit_records.size());
    }
    if (stream.records == unit_records) {
      for (double s : stream.seconds) latency_us.push_back(static_cast<float>(s * 1e6));
    } else {
      ++unit_mismatches;  // units completed at other packets than in the first pass
    }
    ++rounds;
  }

  // Per unit: the interquartile mean of its feed latency over the rounds;
  // then the percentiles over units.
  const std::size_t units = unit_records.size();
  const std::size_t samples_per_unit = units ? latency_us.size() / units : 0;
  std::vector<double> latency(units);
  std::vector<double> per_unit(samples_per_unit);
  for (std::size_t u = 0; u < units; ++u) {
    for (std::size_t r = 0; r < samples_per_unit; ++r) per_unit[r] = latency_us[r * units + u];
    latency[u] = interquartile_mean(per_unit);
  }
  const std::size_t failed = verifier->failed() + unit_mismatches;
  verifier->print_failures(5);
  if (unit_mismatches) {
    std::printf("failure: %zu streaming passes completed units at other packets\n",
                unit_mismatches);
  }

  const Tail tail = tail_with(latency, 10);
  std::printf("workload %s seed %llu: %zu records, %.2f MB capture, %zu flows\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), w.records,
              capture_mb, w.flows.size());
  std::printf("rounds: %zu (each: %zu set-ups, 1 batch pass, 1 streaming pass)\n", rounds,
              kSetupsPerRound);
  std::printf("units: %zu analyzed, %zu triage-escalated, %zu cache hits, %zu cache misses\n",
              counts.units_analyzed, counts.triage_escalated, counts.cache_hits,
              counts.cache_misses);
  std::printf("throughput: %.3f MB/s, interquartile mean of %zu batch passes:",
              interquartile_mean(throughput), throughput.size());
  for (double t : throughput) std::printf(" %.2f", t);
  std::printf("\nhost.ref_ns_per_byte per round:");
  for (double h : host) std::printf(" %.2f", h);
  std::printf("\nhost.ref_ns_per_byte: %.4f (median of %zu probes)\n", median(host),
              host.size());
  std::printf("verdict latency: %zu units, each the interquartile mean of %zu feeds; p50 = %.3f us "
              "(%zu samples beyond); p%.3f = %.3f us (%zu samples beyond)\n",
              units, samples_per_unit, median(latency), units / 2, tail.percentile,
              tail.value, tail.beyond);
  std::printf("setup: median %.3f us over %zu constructions\n", median(setup) * 1e6,
              setup.size());
  std::printf("failed_share: %zu / %zu flows = %.6f\n", failed, w.flows.size(),
              static_cast<double>(failed) / static_cast<double>(w.flows.size()));

  Metrics m;
  m.set("setup_s", median(setup), "s");
  m.set("throughput_mb_s", interquartile_mean(throughput), "MB/s");
  m.set("verdict_p50_us", median(latency), "us");
  m.set("verdict_tail_us", tail.value, "us");
  m.set("mem_peak_mb", static_cast<double>(mem_peak) / 1e6, "MB");
  m.print_result(verifier->correct() && unit_mismatches == 0, w.flows.size(), failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--scale <f>] [--trace-out <path>]\n");
    return 2;
  }
  std::optional<Workload> w = make_workload(args.workload, args.seed, args.scale);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::fflush(stdout);
  return args.trace ? run_traced(*w, args.seconds, args.trace_out)
                    : run_untraced(*w, args);
}
