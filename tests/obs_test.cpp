// Observability subsystem tests: sharded counters under concurrency,
// histogram quantile bounds, Prometheus exposition well-formedness,
// tracer output formats, and engine-level agreement between tracer span
// counts and NidsStats on the demo capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/senids.hpp"
#include "gen/shellcode.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"

namespace senids::obs {
namespace {

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, RuntimeKillSwitchDropsMutations) {
  Counter c;
  set_metrics_enabled(false);
  c.add(5);
  set_metrics_enabled(true);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(ObsGauge, SetAddSub) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
}

TEST(ObsHistogram, CountSumAndQuantileWithinBucketBounds) {
  Histogram h;
  // 900 fast observations and 100 slow ones: p50 must land in the bucket
  // holding 100µs, p95/p99 in the bucket holding 10ms. Bounds are
  // geometric 1µs·2^k, so 100µs falls in (64µs, 128µs] and 10ms in
  // (8.192ms, 16.384ms]; the interpolated estimate may not leave its
  // bucket.
  for (int i = 0; i < 900; ++i) h.observe(100e-6);
  for (int i = 0; i < 100; ++i) h.observe(10e-3);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_NEAR(snap.sum_seconds, 900 * 100e-6 + 100 * 10e-3, 1e-3);
  EXPECT_GE(snap.quantile(0.50), 64e-6);
  EXPECT_LE(snap.quantile(0.50), 128e-6);
  EXPECT_GE(snap.quantile(0.95), 8.192e-3);
  EXPECT_LE(snap.quantile(0.95), 16.384e-3);
  EXPECT_GE(snap.quantile(0.99), 8.192e-3);
  EXPECT_LE(snap.quantile(0.99), 16.384e-3);
}

TEST(ObsHistogram, ConcurrentObservationsCountExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(1e-4);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistry, FindOrCreateSharesHandles) {
  auto& r = Registry::instance();
  Counter& a = r.counter("senids_test_shared_total", "shared-handle test");
  Counter& b = r.counter("senids_test_shared_total");
  EXPECT_EQ(&a, &b);
  Counter& labelled = r.counter("senids_test_shared_total", "", "k", "v1");
  EXPECT_NE(&a, &labelled);
}

TEST(ObsRegistry, PrometheusExpositionIsWellFormed) {
  // Force full pipeline registration so the exposition covers every
  // stage even with zero samples (a scrape missing a stage reads as a
  // broken deployment).
  (void)pipeline_metrics();
  const std::string text = Registry::instance().prometheus_text();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const std::string needle = "senids_stage_seconds_bucket{stage=\"" +
                               std::string(stage_name(static_cast<Stage>(i))) + "\",le=\"";
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  EXPECT_NE(text.find("# TYPE senids_stage_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("senids_stage_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("senids_stage_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("# TYPE senids_packets_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE senids_queue_depth gauge"), std::string::npos);

  // Every non-comment line must be "<name>[{labels}] <value>" with a
  // numeric value consuming the whole last token.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    char* parse_end = nullptr;
    std::strtod(value.c_str(), &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    const std::string name = line.substr(0, space);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
    }
  }
}

TEST(ObsRegistry, LabelValuesAndHelpAreEscaped) {
  auto& r = Registry::instance();
  // Label values carrying the three characters the exposition format
  // escapes (backslash, double quote, newline) and a HELP string with a
  // literal newline: both must round-trip as single well-formed lines.
  Counter& c = r.counter("senids_test_escape_total", "first\nsecond\\tail", "path",
                         "C:\\dir\n\"quoted\"");
  c.add();
  const std::string text = Registry::instance().prometheus_text();
  EXPECT_NE(text.find("# HELP senids_test_escape_total first\\nsecond\\\\tail"),
            std::string::npos);
  EXPECT_NE(
      text.find("senids_test_escape_total{path=\"C:\\\\dir\\n\\\"quoted\\\"\"} 1"),
      std::string::npos);
  // The escaped series must still be a single physical line: no raw
  // newline may survive inside a sample.
  const std::size_t series = text.find("senids_test_escape_total{");
  ASSERT_NE(series, std::string::npos);
  const std::string line =
      text.substr(series, text.find('\n', series) - series);
  EXPECT_NE(line.find("} 1"), std::string::npos) << line;
}

TEST(ObsRegistry, HistogramBucketsAreCumulative) {
  auto& r = Registry::instance();
  Histogram& h = r.histogram("senids_test_cumulative_seconds", "bucket lint");
  h.observe(1e-6);    // lowest finite bucket
  h.observe(1e-3);
  h.observe(100.0);   // above the top finite bound -> +Inf only
  const std::string text = Registry::instance().prometheus_text();
  // Walk this family's _bucket lines in exposition order; counts must be
  // monotonically non-decreasing and +Inf must equal _count.
  std::uint64_t prev = 0;
  std::uint64_t inf = 0;
  std::size_t pos = 0;
  int buckets = 0;
  while ((pos = text.find("senids_test_cumulative_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    const std::uint64_t count = std::strtoull(text.c_str() + space + 1, nullptr, 10);
    EXPECT_GE(count, prev) << "buckets must be cumulative";
    prev = count;
    inf = count;
    ++buckets;
    pos = space;
  }
  EXPECT_GT(buckets, 1);
  EXPECT_EQ(inf, 3u) << "+Inf bucket carries every observation";
  EXPECT_NE(text.find("senids_test_cumulative_seconds_count 3"), std::string::npos);
}

TEST(ObsRegistry, JsonExportCarriesQuantiles) {
  auto& r = Registry::instance();
  Histogram& h = r.histogram("senids_test_json_seconds", "json export test");
  h.observe(1e-3);
  const std::string json = Registry::instance().json();
  EXPECT_NE(json.find("\"name\": \"senids_test_json_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

/// Counts '{' minus '}' (resp. '[' ']') outside string literals.
void expect_balanced_json(const std::string& text) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ObsTracer, ChromeTraceAndJsonlWellFormed) {
  Tracer& tracer = Tracer::instance();
  Tracer::set_enabled(true);
  tracer.reset();
  tracer.record({"extract", 1, 10, 5, 100, 0});
  tracer.record({"disasm", 1, 15, 7, 100, 0});
  Tracer::set_enabled(false);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const std::string chrome = tracer.chrome_trace_json();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\": \"extract\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\": \"disasm\""), std::string::npos);
  expect_balanced_json(chrome);

  const std::string jsonl = tracer.jsonl();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    expect_balanced_json(line);
  }
  EXPECT_EQ(lines, 2u);
  tracer.reset();
}

TEST(ObsTracer, DisabledRecordIsDropped) {
  Tracer& tracer = Tracer::instance();
  Tracer::set_enabled(false);
  tracer.reset();
  tracer.record({"extract", 1, 0, 1, 0, 0});
  EXPECT_TRUE(tracer.spans().empty());
}

// ------------------------------------------------- engine-level agreement

TEST(ObsEngine, SpanCountsMatchEngineStatsOnDemoTrace) {
  auto capture = pcap::read_file(SENIDS_SOURCE_DIR "/demo_trace.pcap");
  ASSERT_TRUE(capture.has_value());

  Registry::instance().reset_values();
  Tracer& tracer = Tracer::instance();
  Tracer::set_enabled(true);
  tracer.reset();

  core::NidsOptions options;
  core::NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(net::Ipv4Addr::from_octets(10, 0, 0, 7));
  nids.classifier().dark_space().add_unused_prefix(
      classify::Prefix{net::Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  core::Report report = nids.process_capture(*capture);
  Tracer::set_enabled(false);

  std::map<std::string, std::size_t> spans_by_stage;
  for (const Span& s : tracer.spans()) ++spans_by_stage[s.name];

  ASSERT_GT(report.stats.units_analyzed, 0u);
  ASSERT_GT(report.stats.analyzer.frames, 0u);
  // One span per stage per analysis unit / frame, matching NidsStats.
  EXPECT_EQ(spans_by_stage["classify"], report.stats.suspicious_packets);
  EXPECT_EQ(spans_by_stage["extract"], report.stats.units_analyzed);
  EXPECT_EQ(spans_by_stage["disasm"], report.stats.analyzer.frames);
  EXPECT_EQ(spans_by_stage["lift"], report.stats.analyzer.frames);
  EXPECT_EQ(spans_by_stage["match"], report.stats.analyzer.frames);
  EXPECT_EQ(spans_by_stage["reassemble"],
            report.stats.stages[static_cast<std::size_t>(Stage::kReassemble)].count);

  // The per-capture stage table agrees with the span counts, and the
  // process-wide registry histograms saw the same executions (registry
  // was reset above, so counts are this capture's alone).
  const auto stage_count = [&report](Stage s) {
    return report.stats.stages[static_cast<std::size_t>(s)].count;
  };
  EXPECT_EQ(stage_count(Stage::kClassify), report.stats.packets);
  EXPECT_EQ(stage_count(Stage::kExtract), report.stats.units_analyzed);
  EXPECT_EQ(stage_count(Stage::kDisasm), report.stats.analyzer.frames);
  PipelineMetrics& pm = pipeline_metrics();
  EXPECT_EQ(pm.stage_seconds[static_cast<std::size_t>(Stage::kExtract)]->count(),
            report.stats.units_analyzed);
  EXPECT_EQ(pm.stage_seconds[static_cast<std::size_t>(Stage::kClassify)]->count(),
            report.stats.packets);

  // Correlation ids: every extract span carries a unit id, and disasm
  // spans reuse ids the extract spans introduced.
  std::vector<std::uint64_t> unit_ids;
  for (const Span& s : tracer.spans()) {
    if (std::string(s.name) == "extract") {
      EXPECT_NE(s.unit_id, 0u);
      unit_ids.push_back(s.unit_id);
    }
  }
  for (const Span& s : tracer.spans()) {
    if (std::string(s.name) == "disasm") {
      EXPECT_NE(std::find(unit_ids.begin(), unit_ids.end(), s.unit_id), unit_ids.end());
    }
  }
  tracer.reset();
}

TEST(ObsEngine, StreamingAndSerialReportSameStageCounts) {
  // The per-stage execution counts are schedule-independent: a 4-worker
  // run must count exactly what the serial run counts.
  auto capture = pcap::read_file(SENIDS_SOURCE_DIR "/demo_trace.pcap");
  ASSERT_TRUE(capture.has_value());
  auto run = [&capture](std::size_t threads) {
    core::NidsOptions options;
    options.threads = threads;
    core::NidsEngine nids(options);
    nids.classifier().honeypots().add_decoy(net::Ipv4Addr::from_octets(10, 0, 0, 7));
    return nids.process_capture(*capture);
  };
  const core::Report serial = run(1);
  const core::Report parallel = run(4);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    EXPECT_EQ(serial.stats.stages[i].count, parallel.stats.stages[i].count)
        << stage_name(static_cast<Stage>(i));
  }
  // Summed per-unit wall exists on both paths once units were analyzed.
  ASSERT_GT(serial.stats.units_analyzed, 0u);
  EXPECT_GT(serial.stats.analysis_seconds, 0.0);
  EXPECT_GT(parallel.stats.analysis_seconds, 0.0);
}

// Every way a unit can leave analyze_payload — triage reject, cache miss,
// cache hit, cache bypass, and cache disabled — must leave the same
// bookkeeping behind: one flight-recorder record, one tracer span set
// under the unit's id, one bump of the unit/frame/alert counters and the
// unit-latency histogram, and the NidsStats counts of that exit.
TEST(Engine, UnitBookkeepingPerExit) {
  set_metrics_enabled(true);
  FlightRecorder& fr = FlightRecorder::instance();
  fr.configure({.slots = 64});
  Tracer& tracer = Tracer::instance();
  Tracer::set_enabled(true);
  tracer.reset();

  const util::Bytes exploit = gen::make_shell_spawn_corpus()[0].code;
  util::Bytes big_exploit = exploit;
  big_exploit.insert(big_exploit.begin(), 64, 0x90);  // a sled ahead of the same exploit
  const std::string text = "GET /index.html HTTP/1.0\r\nHost: example.com\r\n\r\n";
  const util::Bytes benign(text.begin(), text.end());

  core::NidsOptions options;
  options.triage.mode = triage::TriageMode::kOn;
  options.verdict_cache_bytes = 1u << 20;
  options.cache_max_unit_bytes = exploit.size();
  const core::NidsEngine cached(options);
  options.verdict_cache_bytes = 0;
  const core::NidsEngine uncached(options);
  core::AnalysisContext cached_ctx = cached.make_analysis_context();
  core::AnalysisContext uncached_ctx = uncached.make_analysis_context();

  core::Alert meta;
  meta.src = net::Ipv4Addr::from_octets(192, 0, 2, 66);
  meta.dst = net::Ipv4Addr::from_octets(10, 0, 0, 7);
  meta.dst_port = 80;

  PipelineMetrics& pm = pipeline_metrics();
  struct Observed {
    std::size_t alerts = 0;
    core::NidsStats stats;
    UnitRecord record;
    std::vector<std::string> spans;
    std::uint64_t units = 0, frames = 0, alert_count = 0, unit_seconds = 0;
  };
  auto run = [&](const core::NidsEngine& engine, core::AnalysisContext& ctx,
                 const util::Bytes& payload, std::uint64_t unit_id) {
    Observed o;
    const std::uint64_t units0 = pm.units->value();
    const std::uint64_t frames0 = pm.frames->value();
    const std::uint64_t alerts0 = pm.alerts->value();
    const std::uint64_t seconds0 = pm.unit_seconds->count();
    const std::size_t records0 = fr.recent().size();
    o.alerts = engine.analyze_payload(ctx, payload, meta, &o.stats, unit_id).size();
    o.units = pm.units->value() - units0;
    o.frames = pm.frames->value() - frames0;
    o.alert_count = pm.alerts->value() - alerts0;
    o.unit_seconds = pm.unit_seconds->count() - seconds0;
    const std::vector<UnitRecord> records = fr.recent();
    EXPECT_EQ(records.size(), records0 + 1) << "unit " << unit_id;
    if (!records.empty()) o.record = records.back();
    for (const Span& s : tracer.spans()) {
      if (s.unit_id == unit_id) o.spans.emplace_back(s.name);
    }
    return o;
  };
  auto stage = [](const core::NidsStats& s, Stage st) {
    return s.stages[static_cast<std::size_t>(st)].count;
  };
  auto expect_unit = [&](const Observed& o, std::uint64_t unit_id, const util::Bytes& payload,
                         CacheDisposition cache) {
    EXPECT_EQ(o.record.unit_id, unit_id);
    EXPECT_EQ(o.record.src, meta.src.value);
    EXPECT_EQ(o.record.payload_bytes, payload.size());
    EXPECT_EQ(o.record.cache, cache);
    EXPECT_EQ(o.record.alerts, o.alerts);
    EXPECT_EQ(o.units, 1u);
    EXPECT_EQ(o.unit_seconds, 1u);
    EXPECT_EQ(o.alert_count, o.alerts);
    EXPECT_EQ(o.frames, o.record.frames);
    EXPECT_EQ(o.record.emulate_us, 0u);
    EXPECT_EQ(o.stats.units_analyzed, 1u);
    EXPECT_GT(o.stats.analysis_seconds, 0.0) << "unit " << unit_id;
    EXPECT_EQ(o.stats.triage_screened, 1u);
    EXPECT_EQ(stage(o.stats, Stage::kTriage), 1u);
    EXPECT_EQ(o.stats.frames_emulated, 0u);
    EXPECT_EQ(o.stats.emulated_steps, 0u);
    EXPECT_EQ(o.stats.packets, 0u);
    EXPECT_EQ(o.stats.suspicious_packets, 0u);
  };
  // A full analysis: triage, extract, then disasm/lift/match per frame.
  auto expect_analyzed = [&](const Observed& o) {
    EXPECT_GT(o.alerts, 0u);
    EXPECT_EQ(o.stats.triage_escalated, 1u);
    EXPECT_EQ(o.stats.triage_rejected, 0u);
    EXPECT_GT(o.stats.frames_extracted, 0u);
    EXPECT_EQ(o.record.frames, o.stats.frames_extracted);
    EXPECT_GT(o.stats.bytes_analyzed, 0u);
    EXPECT_EQ(o.stats.analyzer.frames, o.stats.frames_extracted);
    EXPECT_EQ(stage(o.stats, Stage::kExtract), 1u);
    EXPECT_EQ(stage(o.stats, Stage::kDisasm), o.stats.analyzer.frames);
    EXPECT_EQ(stage(o.stats, Stage::kLift), o.stats.analyzer.frames);
    EXPECT_EQ(stage(o.stats, Stage::kMatch), o.stats.analyzer.frames);
    EXPECT_EQ(stage(o.stats, Stage::kEmulate), 0u);
    EXPECT_EQ(o.stats.cache_bytes_saved, 0u);
    EXPECT_GT(o.record.disasm_us + o.record.lift_us + o.record.match_us, 0u);
    std::vector<std::string> want{"triage", "extract"};
    for (std::size_t i = 0; i < o.stats.analyzer.frames; ++i) {
      want.insert(want.end(), {"disasm", "lift", "match"});
    }
    EXPECT_EQ(o.spans, want);
  };

  const Observed reject = run(cached, cached_ctx, benign, 901);
  expect_unit(reject, 901, benign, CacheDisposition::kNone);
  EXPECT_EQ(reject.alerts, 0u);
  EXPECT_EQ(reject.record.frames, 0u);
  EXPECT_EQ(reject.record.extract_us + reject.record.disasm_us + reject.record.lift_us +
                reject.record.match_us,
            0u);
  EXPECT_EQ(reject.stats.triage_escalated, 0u);
  EXPECT_EQ(reject.stats.triage_rejected, 1u);
  EXPECT_EQ(reject.stats.triage_rejected_bytes, benign.size());
  EXPECT_EQ(reject.stats.frames_extracted, 0u);
  EXPECT_EQ(reject.stats.bytes_analyzed, 0u);
  EXPECT_EQ(reject.stats.analyzer.frames, 0u);
  EXPECT_EQ(reject.stats.cache_hits + reject.stats.cache_misses + reject.stats.cache_bypass,
            0u);
  EXPECT_EQ(stage(reject.stats, Stage::kExtract), 0u);
  EXPECT_EQ(reject.spans, std::vector<std::string>{"triage"});

  const Observed miss = run(cached, cached_ctx, exploit, 902);
  expect_unit(miss, 902, exploit, CacheDisposition::kMiss);
  expect_analyzed(miss);
  EXPECT_EQ(miss.stats.cache_misses, 1u);
  EXPECT_EQ(miss.stats.cache_hits + miss.stats.cache_bypass, 0u);

  const Observed hit = run(cached, cached_ctx, exploit, 903);
  expect_unit(hit, 903, exploit, CacheDisposition::kHit);
  EXPECT_EQ(hit.alerts, miss.alerts);
  EXPECT_EQ(hit.record.frames, miss.record.frames);
  EXPECT_EQ(hit.record.extract_us + hit.record.disasm_us + hit.record.lift_us +
                hit.record.match_us,
            0u);
  EXPECT_EQ(hit.stats.triage_escalated, 1u);
  EXPECT_EQ(hit.stats.cache_hits, 1u);
  EXPECT_EQ(hit.stats.cache_misses + hit.stats.cache_bypass, 0u);
  EXPECT_EQ(hit.stats.cache_bytes_saved, miss.stats.bytes_analyzed);
  EXPECT_EQ(hit.stats.frames_extracted, miss.stats.frames_extracted);
  EXPECT_EQ(hit.stats.bytes_analyzed, 0u);
  EXPECT_EQ(hit.stats.analyzer.frames, 0u);
  EXPECT_EQ(stage(hit.stats, Stage::kExtract), 0u);
  EXPECT_EQ(stage(hit.stats, Stage::kDisasm), 0u);
  EXPECT_EQ(hit.spans, (std::vector<std::string>{"triage", "cache-hit"}));

  const Observed bypass = run(cached, cached_ctx, big_exploit, 904);
  expect_unit(bypass, 904, big_exploit, CacheDisposition::kBypass);
  expect_analyzed(bypass);
  EXPECT_EQ(bypass.stats.cache_bypass, 1u);
  EXPECT_EQ(bypass.stats.cache_hits + bypass.stats.cache_misses, 0u);

  const Observed none = run(uncached, uncached_ctx, exploit, 905);
  expect_unit(none, 905, exploit, CacheDisposition::kNone);
  expect_analyzed(none);
  EXPECT_EQ(none.alerts, miss.alerts);
  EXPECT_EQ(none.stats.cache_hits + none.stats.cache_misses + none.stats.cache_bypass, 0u);
  EXPECT_EQ(none.stats.frames_extracted, miss.stats.frames_extracted);
  EXPECT_EQ(none.stats.bytes_analyzed, miss.stats.bytes_analyzed);

  Tracer::set_enabled(false);
  tracer.reset();
  fr.configure({.slots = 0});

  // The unit's wall is timed even with observability off.
  set_metrics_enabled(false);
  core::NidsStats unobserved;
  uncached.analyze_payload(uncached_ctx, benign, meta, &unobserved);
  uncached.analyze_payload(uncached_ctx, exploit, meta, &unobserved);
  set_metrics_enabled(true);
  EXPECT_EQ(unobserved.units_analyzed, 2u);
  EXPECT_GT(unobserved.analysis_seconds, 0.0);
}

}  // namespace
}  // namespace senids::obs
