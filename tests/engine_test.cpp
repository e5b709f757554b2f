// Integration tests: the full Figure-3 pipeline over synthetic captures.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>

#include "core/senids.hpp"
#include "verify/ir_verify.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"

namespace senids::core {
namespace {

using net::Endpoint;
using net::Ipv4Addr;
using semantic::ThreatClass;

const Ipv4Addr kHoneypot = Ipv4Addr::from_octets(10, 0, 0, 7);
const Ipv4Addr kServer = Ipv4Addr::from_octets(10, 0, 0, 20);
const Endpoint kAttacker{Ipv4Addr::from_octets(192, 0, 2, 66), 31337};
const Endpoint kClient{Ipv4Addr::from_octets(198, 51, 100, 10), 45000};

NidsEngine make_engine(std::size_t threads = 1) {
  NidsOptions options;
  options.threads = threads;
  NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(kHoneypot);
  nids.classifier().dark_space().add_unused_prefix(
      classify::Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  return nids;
}

TEST(Engine, HoneypotPathDetectsExploit) {
  gen::TraceBuilder tb(11);
  auto exploit = gen::make_shell_spawn_corpus()[0];
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, exploit.code);
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn));
  ASSERT_FALSE(report.alerts.empty());
  EXPECT_EQ(report.alerts[0].src, kAttacker.ip);
  EXPECT_EQ(report.alerts[0].dst, kHoneypot);
}

TEST(Engine, CleanTrafficNoAlerts) {
  gen::TraceBuilder tb(12);
  for (int i = 0; i < 30; ++i) {
    tb.add_benign(kClient, kServer, gen::make_benign_payload(tb.prng()));
  }
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.alerts.empty());
  EXPECT_EQ(report.stats.suspicious_packets, 0u);
  EXPECT_GT(report.stats.packets, 30u);
}

TEST(Engine, UntaintedExploitIsMissedByDesign) {
  // Classification prunes: an exploit aimed at a production host from a
  // never-suspicious source is not analyzed (the efficiency/coverage
  // trade the paper makes).
  gen::TraceBuilder tb(13);
  auto exploit = gen::make_shell_spawn_corpus()[1];
  tb.add_tcp_flow(kAttacker, Endpoint{kServer, 80}, exploit.code);
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.alerts.empty());
}

TEST(Engine, ScanThenExploitCaughtByDarkSpace) {
  gen::TraceBuilder tb(14);
  // Scanner probes dark space past the threshold, then attacks a real
  // server: the dark-space scheme must have tainted it by then.
  tb.add_syn_scan(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 1), 80, 8);
  auto exploit = gen::make_shell_spawn_corpus()[2];
  tb.add_tcp_flow(kAttacker, Endpoint{kServer, 80},
                  gen::wrap_in_overflow(exploit.code, tb.prng()));
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn));
}

TEST(Engine, PolymorphicExploitDetected) {
  gen::TraceBuilder tb(15);
  auto payload = gen::make_shell_spawn_corpus()[1].code;
  auto poly = gen::admmutate_encode(payload, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, poly.bytes);
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(ThreatClass::kDecryptionLoop));
}

TEST(Engine, CodeRedDetectedViaUnicodeFrame) {
  gen::TraceBuilder tb(16);
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, gen::make_code_red_ii_request());
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  ASSERT_TRUE(report.detected(ThreatClass::kCodeRedII));
  // The alert must come from the unicode-decoded frame.
  bool unicode_frame = false;
  for (const Alert& a : report.alerts) {
    if (a.threat == ThreatClass::kCodeRedII &&
        a.frame_reason == extract::FrameReason::kUnicodeDecoded) {
      unicode_frame = true;
    }
  }
  EXPECT_TRUE(unicode_frame);
}

TEST(Engine, MultiSegmentPayloadReassembled) {
  // Exploit split across small TCP segments: only the reassembled stream
  // contains the whole decoder.
  gen::TraceBuilder tb(17);
  auto payload = gen::make_iis_asp_overflow_payload();
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, payload, /*mss=*/16);
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(ThreatClass::kDecryptionLoop));
}

TEST(Engine, AnalyzeEverythingModeSeesUntargetedExploit) {
  NidsOptions options;
  options.classifier.analyze_everything = true;
  NidsEngine nids(options);
  gen::TraceBuilder tb(18);
  auto exploit = gen::make_shell_spawn_corpus()[5];
  tb.add_tcp_flow(kAttacker, Endpoint{kServer, 80},
                  gen::wrap_in_overflow(exploit.code, tb.prng()));
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn));
}

TEST(Engine, PortBindExploitRaisesBothThreats) {
  gen::TraceBuilder tb(19);
  auto corpus = gen::make_shell_spawn_corpus();
  const auto& binder = corpus[8];
  ASSERT_TRUE(binder.binds_port);
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, binder.code);
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn));
  EXPECT_TRUE(report.detected(ThreatClass::kPortBindShell));
}

TEST(Engine, ParallelMatchesSerialResults) {
  auto build = [] {
    gen::TraceBuilder tb(20);
    auto corpus = gen::make_shell_spawn_corpus();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      Endpoint atk{Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(10 + i)),
                   31337};
      tb.add_tcp_flow(atk, Endpoint{kHoneypot, 80}, corpus[i].code);
    }
    for (int i = 0; i < 10; ++i) {
      tb.add_benign(kClient, kServer, gen::make_benign_payload(tb.prng()));
    }
    return tb.take();
  };
  auto capture = build();

  auto serial_engine = make_engine(1);
  auto parallel_engine = make_engine(4);
  Report serial = serial_engine.process_capture(capture);
  Report parallel = parallel_engine.process_capture(capture);

  ASSERT_EQ(serial.alerts.size(), parallel.alerts.size());
  for (std::size_t i = 0; i < serial.alerts.size(); ++i) {
    EXPECT_EQ(serial.alerts[i].template_name, parallel.alerts[i].template_name);
    EXPECT_EQ(serial.alerts[i].src.value, parallel.alerts[i].src.value);
  }
  EXPECT_EQ(serial.stats.units_analyzed, parallel.stats.units_analyzed);
  EXPECT_EQ(serial.stats.frames_extracted, parallel.stats.frames_extracted);
}

TEST(Engine, StatsAreCoherent) {
  gen::TraceBuilder tb(21);
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::make_shell_spawn_corpus()[0].code);
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_EQ(report.stats.packets, tb.capture().records.size());
  EXPECT_GE(report.stats.suspicious_packets, 1u);
  EXPECT_GE(report.stats.units_analyzed, 1u);
  EXPECT_GE(report.stats.frames_extracted, 1u);
  EXPECT_GT(report.stats.bytes_analyzed, 0u);
}

TEST(Engine, AlertStringRendersFields) {
  Alert a;
  a.src = Ipv4Addr::from_octets(1, 2, 3, 4);
  a.dst = Ipv4Addr::from_octets(5, 6, 7, 8);
  a.src_port = 10;
  a.dst_port = 80;
  a.threat = ThreatClass::kShellSpawn;
  a.template_name = "t";
  std::string s = a.str();
  EXPECT_NE(s.find("1.2.3.4:10"), std::string::npos);
  EXPECT_NE(s.find("5.6.7.8:80"), std::string::npos);
  EXPECT_NE(s.find("shell-spawn"), std::string::npos);
}

TEST(Engine, CustomTemplateLibrary) {
  // An engine built with only the Code Red template ignores shell spawns.
  NidsOptions options;
  options.classifier.analyze_everything = true;
  NidsEngine nids(options, {semantic::builtin_template("code-red-ii-vector")});
  gen::TraceBuilder tb(22);
  tb.add_tcp_flow(kAttacker, Endpoint{kServer, 80},
                  gen::make_shell_spawn_corpus()[0].code);
  tb.add_tcp_flow(kAttacker, Endpoint{kServer, 80}, gen::make_code_red_ii_request());
  Report report = nids.process_capture(tb.capture());
  EXPECT_FALSE(report.detected(ThreatClass::kShellSpawn));
  EXPECT_TRUE(report.detected(ThreatClass::kCodeRedII));
}

TEST(Engine, UdpPayloadAnalyzedDirectly) {
  NidsOptions options;
  options.classifier.analyze_everything = true;
  NidsEngine nids(options);
  gen::TraceBuilder tb(23);
  tb.add_udp(kAttacker, Endpoint{kServer, 69},
             gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[1].code, tb.prng()));
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn));
}

TEST(Engine, EmptyCapture) {
  auto nids = make_engine();
  pcap::Capture empty;
  Report report = nids.process_capture(empty);
  EXPECT_TRUE(report.alerts.empty());
  EXPECT_EQ(report.stats.packets, 0u);
}

}  // namespace
}  // namespace senids::core

namespace senids::core {
namespace {

TEST(Engine, ReportStrRendersEverything) {
  gen::TraceBuilder tb(24);
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[0].code, tb.prng()));
  auto nids = make_engine();
  Report report = nids.process_capture(tb.capture());
  const std::string text = report.str();
  EXPECT_NE(text.find("packets"), std::string::npos);
  EXPECT_NE(text.find("alerts"), std::string::npos);
  EXPECT_NE(text.find("192.0.2.66"), std::string::npos);
  EXPECT_NE(text.find("shell-spawn"), std::string::npos);
  EXPECT_NE(text.find("offending sources"), std::string::npos);
}

void expect_alerts_equal(const std::vector<Alert>& a, const std::vector<Alert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ts_sec, b[i].ts_sec) << "alert " << i;
    EXPECT_EQ(a[i].src.value, b[i].src.value) << "alert " << i;
    EXPECT_EQ(a[i].dst.value, b[i].dst.value) << "alert " << i;
    EXPECT_EQ(a[i].src_port, b[i].src_port) << "alert " << i;
    EXPECT_EQ(a[i].dst_port, b[i].dst_port) << "alert " << i;
    EXPECT_EQ(a[i].threat, b[i].threat) << "alert " << i;
    EXPECT_EQ(a[i].template_name, b[i].template_name) << "alert " << i;
    EXPECT_EQ(a[i].frame_reason, b[i].frame_reason) << "alert " << i;
    EXPECT_EQ(a[i].frame_offset, b[i].frame_offset) << "alert " << i;
  }
}

/// Forge one TCP segment frame at an explicit capture time (the
/// TraceBuilder always FINs its flows; eviction tests need flows that
/// stay open and timestamps with multi-second gaps).
void add_segment(pcap::Capture& cap, std::uint32_t ts, const Endpoint& src,
                 const Endpoint& dst, std::uint32_t seq, util::ByteView payload,
                 std::uint8_t flags = net::kTcpPsh | net::kTcpAck) {
  cap.add(ts, 0, net::forge_tcp(src, dst, seq, payload, flags));
}

TEST(Engine, StreamingMatchesSerialOnDemoTrace) {
  // The repo's demo capture (same content as examples/trace_analysis
  // synthesizes): the streaming parallel pipeline must produce the exact
  // ordered alert list and unit-level stats of the serial engine.
  auto capture = pcap::read_file(SENIDS_SOURCE_DIR "/demo_trace.pcap");
  ASSERT_TRUE(capture.has_value());
  auto serial_engine = make_engine(1);
  auto parallel_engine = make_engine(4);
  Report serial = serial_engine.process_capture(*capture);
  Report parallel = parallel_engine.process_capture(*capture);
  EXPECT_FALSE(serial.alerts.empty());
  expect_alerts_equal(serial.alerts, parallel.alerts);
  EXPECT_EQ(serial.stats.units_analyzed, parallel.stats.units_analyzed);
  EXPECT_EQ(serial.stats.frames_extracted, parallel.stats.frames_extracted);
  EXPECT_EQ(serial.stats.bytes_analyzed, parallel.stats.bytes_analyzed);
  EXPECT_EQ(serial.stats.suspicious_packets, parallel.stats.suspicious_packets);
}

TEST(Engine, IrVerifierCleanOverDemoTrace) {
  // Run the IR verifier (the debug-build post-lift hook) explicitly over
  // every unit the demo capture lifts: the lifter must produce zero
  // verifier violations on real pipeline traffic, in all build types.
  auto capture = pcap::read_file(SENIDS_SOURCE_DIR "/demo_trace.pcap");
  ASSERT_TRUE(capture.has_value());
  std::atomic<std::size_t> lifts{0};
  std::atomic<std::size_t> violations{0};
  std::mutex mu;
  std::string first_report;
  NidsOptions options;
  options.analyzer.post_lift_hook = [&](const std::vector<arch::Instruction>& trace,
                                        const ir::LiftResult& lifted) {
    ++lifts;
    verify::Report r = verify::verify_ir(trace, lifted);
    if (!r.ok()) {
      violations += r.errors();
      std::lock_guard<std::mutex> lock(mu);
      if (first_report.empty()) first_report = r.str();
    }
  };
  NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(kHoneypot);
  Report report = nids.process_capture(*capture);
  EXPECT_GT(lifts.load(), 0u);
  EXPECT_EQ(violations.load(), 0u) << first_report;
}

TEST(Engine, DeterministicOrderAcrossSchedules) {
  // Several flows from one source in the same second, alerts differing
  // only in src_port / frame_offset: the full-key sort must give the
  // same order on every worker schedule.
  gen::TraceBuilder tb(42);
  auto exploit = gen::make_shell_spawn_corpus()[0];
  for (int i = 0; i < 8; ++i) {
    Endpoint atk{kAttacker.ip, static_cast<std::uint16_t>(30000 + i)};
    tb.add_tcp_flow(atk, Endpoint{kHoneypot, 80}, exploit.code);
  }
  auto capture = tb.take();

  auto serial_engine = make_engine(1);
  Report serial = serial_engine.process_capture(capture);
  EXPECT_GE(serial.alerts.size(), 8u);
  for (int run = 0; run < 3; ++run) {
    auto parallel_engine = make_engine(4);
    Report parallel = parallel_engine.process_capture(capture);
    expect_alerts_equal(serial.alerts, parallel.alerts);
  }
}

TEST(Engine, AlertMetaPinnedToFirstSegment) {
  // A multi-segment flow spanning several capture seconds: the alert
  // must carry the first suspicious segment's timestamp, not the last's.
  util::Prng prng(7);
  const auto payload = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[0].code, prng);
  pcap::Capture cap;
  std::uint32_t seq = 1;
  std::uint32_t ts = 1000;
  std::size_t off = 0;
  while (off < payload.size()) {
    const std::size_t chunk = std::min<std::size_t>(256, payload.size() - off);
    add_segment(cap, ts, kAttacker, Endpoint{kHoneypot, 80}, seq,
                util::ByteView(payload).subspan(off, chunk));
    seq += static_cast<std::uint32_t>(chunk);
    off += chunk;
    ts += 5;  // the flow drags on for many seconds
  }
  add_segment(cap, ts, kAttacker, Endpoint{kHoneypot, 80}, seq, {}, net::kTcpFin);

  auto nids = make_engine();
  Report report = nids.process_capture(cap);
  ASSERT_FALSE(report.alerts.empty());
  for (const Alert& a : report.alerts) EXPECT_EQ(a.ts_sec, 1000u);
}

TEST(Engine, IdleTimeoutEvictsAndStillAlerts) {
  // An exploit flow goes quiet without ever closing; later unrelated
  // traffic advances capture time past the timeout. The flow must be
  // flushed by eviction (counted) and its alert still fire.
  util::Prng prng(8);
  const auto exploit = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[1].code, prng);
  pcap::Capture cap;
  add_segment(cap, 1000, kAttacker, Endpoint{kHoneypot, 80}, 1, exploit);
  // A second source keeps the capture alive 10 minutes later.
  const Endpoint other{Ipv4Addr::from_octets(192, 0, 2, 99), 40000};
  add_segment(cap, 1600, other, Endpoint{kHoneypot, 80}, 1,
              util::to_bytes("GET / HTTP/1.0\r\n\r\n"));

  NidsOptions options;
  options.flow_idle_timeout_sec = 300;
  NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(kHoneypot);
  Report report = nids.process_capture(cap);
  EXPECT_EQ(report.stats.flows_evicted_idle, 1u);
  EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn));
}

TEST(Engine, MaxFlowsCapEvictsOldest) {
  // Five never-closing exploit flows with a cap of two live flows: three
  // must be flushed by overflow eviction, and every source still alerts.
  util::Prng prng(9);
  const auto exploit = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[2].code, prng);
  pcap::Capture cap;
  for (int i = 0; i < 5; ++i) {
    const Endpoint atk{Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(30 + i)),
                       static_cast<std::uint16_t>(20000 + i)};
    add_segment(cap, 1000 + static_cast<std::uint32_t>(i), atk, Endpoint{kHoneypot, 80},
                1, exploit);
  }

  NidsOptions options;
  options.max_flows = 2;
  NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(kHoneypot);
  Report report = nids.process_capture(cap);
  EXPECT_EQ(report.stats.flows_evicted_overflow, 3u);
  std::set<std::uint32_t> sources;
  for (const Alert& a : report.alerts) sources.insert(a.src.value);
  EXPECT_EQ(sources.size(), 5u);
}

TEST(Engine, BoundedMemoryOnLongLivedFlow) {
  // One flow whose stream would grow far past max_stream_bytes: the
  // engine must flush truncated prefixes (alerting on the exploit in the
  // first one) instead of accumulating the whole stream.
  util::Prng prng(10);
  const auto exploit = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[3].code, prng);
  constexpr std::size_t kStreamCap = 8192;
  util::Bytes payload = exploit;
  payload.resize(96 * 1024, 0x41);  // long benign tail, no FIN ever

  pcap::Capture cap;
  std::uint32_t seq = 1;
  std::size_t off = 0;
  std::uint32_t ts = 1000;
  while (off < payload.size()) {
    const std::size_t chunk = std::min<std::size_t>(1024, payload.size() - off);
    add_segment(cap, ts++, kAttacker, Endpoint{kHoneypot, 80}, seq,
                util::ByteView(payload).subspan(off, chunk));
    seq += static_cast<std::uint32_t>(chunk);
    off += chunk;
  }

  NidsOptions options;
  options.max_stream_bytes = kStreamCap;
  options.max_flows = 4;
  NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(kHoneypot);
  Report report = nids.process_capture(cap);
  EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn));
  EXPECT_GE(report.stats.streams_truncated, 2u);
  // Bounded state: every flushed unit is at most the stream cap, so the
  // 96 KiB flow must have been split across many units.
  EXPECT_GE(report.stats.units_analyzed, payload.size() / kStreamCap);
}

TEST(Engine, AlertStrLongTemplateNameNotTruncated) {
  Alert a;
  a.src = Ipv4Addr::from_octets(1, 2, 3, 4);
  a.dst = Ipv4Addr::from_octets(5, 6, 7, 8);
  a.template_name = std::string(300, 'x') + "-tail";
  const std::string s = a.str();
  EXPECT_NE(s.find(a.template_name), std::string::npos);
  EXPECT_NE(s.find("1.2.3.4"), std::string::npos);

  Report report;
  report.alerts.push_back(a);
  const std::string text = report.str();
  EXPECT_NE(text.find(a.template_name), std::string::npos);
  EXPECT_NE(text.find("flow evictions"), std::string::npos);
}

TEST(Engine, StatsJsonListsEveryCounter) {
  // Distinct values, so a key printed with a neighbour's value fails too.
  NidsStats stats;
  std::size_t value = 1000;
  for (const auto& f : kNidsCountFields) stats.*f.field = value++;
  for (const auto& f : semantic::kAnalyzerCountFields) stats.analyzer.*f.field = value++;
  const std::string json = stats_json(stats);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  const std::size_t nested = json.find("\"analyzer\": {");
  ASSERT_NE(nested, std::string::npos);
  for (const auto& f : kNidsCountFields) {
    const std::string entry =
        "\"" + std::string(f.name) + "\": " + std::to_string(stats.*f.field);
    EXPECT_LT(json.find(entry), nested) << entry;
  }
  for (const auto& f : semantic::kAnalyzerCountFields) {
    const std::string entry =
        "\"" + std::string(f.name) + "\": " + std::to_string(stats.analyzer.*f.field);
    const std::size_t at = json.find(entry, nested);
    EXPECT_NE(at, std::string::npos) << entry;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), ':'),
            static_cast<std::ptrdiff_t>(kNidsCountFields.size() +
                                        semantic::kAnalyzerCountFields.size() + 1));
}

TEST(Engine, AnalyzerWorkBudgetBoundsPathologicalFrames) {
  // A frame of 200k one-byte instructions: without the budget this would
  // lift ~8192 entries x thousands of instructions.
  NidsOptions options;
  options.classifier.analyze_everything = true;
  options.analyzer.max_total_insns = 10000;
  NidsEngine nids(options);
  util::Bytes sled(200000, 0x90);
  core::Alert meta;
  NidsStats stats;
  AnalysisContext ctx = nids.make_analysis_context();
  nids.analyze_payload(ctx, sled, meta, &stats);
  EXPECT_LE(stats.analyzer.instructions_lifted, 10000u + 4096u);
}

}  // namespace
}  // namespace senids::core
