// Streaming session: incremental feeding must match batch processing.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/senids.hpp"
#include "core/session.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"

namespace senids::core {
namespace {

using net::Endpoint;
using net::Ipv4Addr;

const Ipv4Addr kHoneypot = Ipv4Addr::from_octets(10, 0, 0, 7);
const Endpoint kAttacker{Ipv4Addr::from_octets(192, 0, 2, 66), 31337};

pcap::Capture attack_capture(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  auto corpus = gen::make_shell_spawn_corpus();
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(corpus[0].code, tb.prng()));
  auto poly = gen::admmutate_encode(corpus[1].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(poly.bytes, tb.prng()));
  for (int i = 0; i < 10; ++i) {
    const Endpoint client{Ipv4Addr::from_octets(198, 51, 100, 9), 40000};
    tb.add_benign(client, Ipv4Addr::from_octets(10, 0, 0, 20),
                  gen::make_benign_payload(tb.prng()));
  }
  return tb.take();
}

TEST(LiveSession, AlertsArriveIncrementally) {
  auto capture = attack_capture(91);
  NidsOptions options;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);

  std::vector<Alert> alerts;
  LiveSession session(engine, [&alerts](const Alert& a) { alerts.push_back(a); });
  std::size_t alerts_mid_stream = 0;
  for (std::size_t i = 0; i < capture.records.size(); ++i) {
    session.feed(capture.records[i].data, capture.records[i].ts_sec,
                 capture.records[i].ts_usec);
    if (i == capture.records.size() / 2) alerts_mid_stream = alerts.size();
  }
  session.finish();
  EXPECT_FALSE(alerts.empty());
  // The first flow closes early in the capture: some alert must have
  // arrived before the stream ended.
  EXPECT_GT(alerts_mid_stream, 0u);
}

const Ipv4Addr kServer = Ipv4Addr::from_octets(10, 0, 0, 20);
const classify::Prefix kDark{Ipv4Addr::from_octets(10, 0, 200, 0), 24};

Endpoint scanner(std::size_t i) {
  return Endpoint{Ipv4Addr::from_octets(203, 0, 113, static_cast<std::uint8_t>(10 + i)),
                  static_cast<std::uint16_t>(32000 + i)};
}

/// A capture that walks every stage-(a) path: honeypot taint, dark-space
/// scanners crossing the threshold, benign traffic from an untainted
/// client and from a tainted one, a repeated exploit, IP fragments, flows
/// whose FIN never arrives, and streams long enough to hit a small
/// max_stream_bytes. Timestamps advance one second per record so an idle
/// timeout of a few seconds evicts the open flows.
pcap::Capture parity_capture(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::make_shell_spawn_corpus();
  const Endpoint client{Ipv4Addr::from_octets(198, 51, 100, 9), 40000};
  const util::Bytes repeated = gen::wrap_in_overflow(corpus[0].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, repeated);
  for (std::size_t i = 0; i < 3; ++i) {
    tb.add_benign(kAttacker, kServer, gen::make_benign_payload(tb.prng()));
    tb.add_syn_scan(scanner(i), Ipv4Addr::from_octets(10, 0, 200, 1), 80, 6);
    tb.add_tcp_flow(scanner(i), Endpoint{kServer, 80},
                    gen::wrap_in_overflow(corpus[(i + 1) % corpus.size()].code, tb.prng()),
                    /*mss=*/300);
    tb.add_benign(client, kServer, gen::make_benign_payload(tb.prng()));
  }
  // The same stream again on a fresh flow: a verdict-cache hit.
  tb.add_tcp_flow(Endpoint{kAttacker.ip, 31338}, Endpoint{kServer, 80}, repeated);
  auto poly = gen::admmutate_encode(corpus[1].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kServer, 8080},
                  gen::wrap_in_overflow(poly.bytes, tb.prng()));

  const pcap::Capture in = tb.take();
  pcap::Capture out;
  std::uint32_t ts = in.records.front().ts_sec;
  std::size_t fins = 0;
  for (std::size_t i = 0; i < in.records.size(); ++i) {
    const util::Bytes& frame = in.records[i].data;
    const auto pkt = net::parse_frame(frame);
    const bool fin = pkt && pkt->transport == net::Transport::kTcp &&
                     (pkt->tcp.flags & net::kTcpFin);
    if (fin && fins++ % 2 == 0) continue;  // leave every other flow open
    if (i % 4 == 0) {
      for (const util::Bytes& frag : net::fragment_frame(frame, 128)) out.add(ts++, 0, frag);
    } else {
      out.add(ts++, 0, frame);
    }
  }
  return out;
}

bool same_alert(const Alert& a, const Alert& b) {
  return !alert_less(a, b) && !alert_less(b, a);
}

void expect_same_counts(const NidsStats& live, const NidsStats& batch) {
  for (const auto& f : kNidsCountFields) {
    EXPECT_EQ(live.*f.field, batch.*f.field) << f.name;
  }
  for (const auto& f : semantic::kAnalyzerCountFields) {
    EXPECT_EQ(live.analyzer.*f.field, batch.analyzer.*f.field) << "analyzer." << f.name;
  }
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    EXPECT_EQ(live.stages[i].count, batch.stages[i].count)
        << "stage " << obs::stage_name(static_cast<obs::Stage>(i));
  }
}

TEST(LiveSession, MatchesBatchProcessing) {
  const pcap::Capture capture = parity_capture(92);

  struct Case {
    const char* name;
    void (*tweak)(NidsOptions&);
  };
  const Case cases[] = {
      {"defaults", [](NidsOptions&) {}},
      {"idle_timeout", [](NidsOptions& o) { o.flow_idle_timeout_sec = 4; }},
      {"max_flows", [](NidsOptions& o) { o.max_flows = 1; }},
      {"max_stream_bytes", [](NidsOptions& o) { o.max_stream_bytes = 256; }},
      {"triage_and_cache",
       [](NidsOptions& o) {
         o.triage.mode = triage::TriageMode::kOn;
         o.verdict_cache_bytes = 8u << 20;
       }},
      {"bounded_state",
       [](NidsOptions& o) {
         o.classifier.dark_space_max_sources = 2;
         o.defrag_max_buffered_bytes = 128;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    NidsOptions options;
    c.tweak(options);
    auto make = [&options] {
      NidsEngine engine(options);
      engine.classifier().honeypots().add_decoy(kHoneypot);
      engine.classifier().dark_space().add_unused_prefix(kDark);
      return engine;
    };

    NidsEngine batch_engine = make();
    const Report batch = batch_engine.process_capture(capture);

    NidsEngine live_engine = make();
    std::vector<Alert> live_alerts;
    LiveSession session(live_engine, [&](const Alert& a) { live_alerts.push_back(a); });
    for (const auto& rec : capture.records) session.feed(rec.data, rec.ts_sec, rec.ts_usec);
    // Stats are current after every feed: finish() only flushes flows.
    EXPECT_EQ(session.stats().defrag_dropped, batch.stats.defrag_dropped);
    EXPECT_EQ(session.stats().dark_sources_evicted, batch.stats.dark_sources_evicted);
    session.finish();

    // Alerts arrive in analysis order; the batch report is sorted.
    std::sort(live_alerts.begin(), live_alerts.end(), alert_less);
    ASSERT_FALSE(batch.alerts.empty());
    ASSERT_EQ(live_alerts.size(), batch.alerts.size());
    for (std::size_t i = 0; i < live_alerts.size(); ++i) {
      EXPECT_TRUE(same_alert(live_alerts[i], batch.alerts[i]))
          << "alert " << i << ": " << live_alerts[i].str() << " vs " << batch.alerts[i].str();
    }
    EXPECT_EQ(session.alerts_emitted(), live_alerts.size());
    expect_same_counts(session.stats(), batch.stats);
  }
}

TEST(LiveSession, TwoSessionsOneEngineNoRace) {
  // Each session classifies on its own shard, so two sessions on one
  // engine share only the engine's read-only configuration. Fed from two
  // threads they must not race (this test runs under ThreadSanitizer too),
  // and each must see exactly what a batch run of the capture sees.
  const pcap::Capture capture = parity_capture(96);
  NidsOptions options;
  options.verdict_cache_bytes = 8u << 20;  // the one structure they do share
  auto make = [&options] {
    NidsEngine engine(options);
    engine.classifier().honeypots().add_decoy(kHoneypot);
    engine.classifier().dark_space().add_unused_prefix(kDark);
    return engine;
  };
  NidsEngine batch_engine = make();
  const Report batch = batch_engine.process_capture(capture);
  ASSERT_FALSE(batch.alerts.empty());

  NidsEngine engine = make();
  std::vector<Alert> alerts[2];
  std::size_t units[2] = {0, 0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      LiveSession session(engine, [&alerts, t](const Alert& a) { alerts[t].push_back(a); });
      for (const auto& rec : capture.records) session.feed(rec.data, rec.ts_sec, rec.ts_usec);
      session.finish();
      units[t] = session.stats().units_analyzed;
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < 2; ++t) {
    SCOPED_TRACE(::testing::Message() << "session " << t);
    std::sort(alerts[t].begin(), alerts[t].end(), alert_less);
    ASSERT_EQ(alerts[t].size(), batch.alerts.size());
    for (std::size_t i = 0; i < alerts[t].size(); ++i) {
      EXPECT_TRUE(same_alert(alerts[t][i], batch.alerts[i])) << "alert " << i;
    }
    EXPECT_EQ(units[t], batch.stats.units_analyzed);
  }
}

TEST(LiveSession, FinishFlushesOpenFlows) {
  // A flow with no FIN only surfaces at finish().
  gen::TraceBuilder tb(93);
  auto exploit = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[2].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, exploit);
  auto capture = tb.take();
  capture.records.pop_back();  // drop the FIN

  NidsOptions options;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);
  std::vector<Alert> alerts;
  LiveSession session(engine, [&](const Alert& a) { alerts.push_back(a); });
  for (const auto& rec : capture.records) session.feed(rec.data);
  EXPECT_TRUE(alerts.empty());
  session.finish();
  EXPECT_FALSE(alerts.empty());
}

TEST(LiveSession, HandlesFragmentsInline) {
  gen::TraceBuilder tb(94);
  auto exploit = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[1].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, exploit);

  NidsOptions options;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);
  std::vector<Alert> alerts;
  LiveSession session(engine, [&](const Alert& a) { alerts.push_back(a); });
  for (const auto& rec : tb.capture().records) {
    for (const auto& frag : net::fragment_frame(rec.data, 64)) {
      session.feed(frag);
    }
  }
  session.finish();
  bool shell = false;
  for (const auto& a : alerts) {
    if (a.threat == semantic::ThreatClass::kShellSpawn) shell = true;
  }
  EXPECT_TRUE(shell);
}

TEST(LiveSession, NullSinkIsSafe) {
  NidsOptions options;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);
  LiveSession session(engine, nullptr);
  gen::TraceBuilder tb(95);
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[0].code, tb.prng()));
  for (const auto& rec : tb.capture().records) session.feed(rec.data);
  session.finish();
  EXPECT_GT(session.stats().units_analyzed, 0u);
}

/// The ("session", N) attribution slots the worker table lists (what
/// /statusz shows), and how many of them a live session holds.
struct SessionSlots {
  std::size_t listed = 0;
  std::size_t active = 0;
};

SessionSlots session_slots() {
  SessionSlots out;
  for (const obs::WorkerSlot::Snapshot& s : obs::WorkerTable::instance().snapshot()) {
    if (s.kind != "session") continue;
    ++out.listed;
    if (s.active) ++out.active;
  }
  return out;
}

TEST(LiveSession, SessionsReuseAttributionSlots) {
  // A session holds its slot only while it lives: sessions opened one
  // after another reuse one slot, and sessions alive at once hold
  // different slots.
  NidsEngine engine(NidsOptions{});
  const std::size_t before = session_slots().listed;
  for (int i = 0; i < 100; ++i) {
    LiveSession session(engine, nullptr);
    session.finish();
  }
  EXPECT_EQ(session_slots().listed, std::max<std::size_t>(before, 1));
  EXPECT_EQ(session_slots().active, 0u);
  {
    LiveSession a(engine, nullptr);
    LiveSession b(engine, nullptr);
    EXPECT_EQ(session_slots().active, 2u);
  }
  EXPECT_EQ(session_slots().listed, std::max<std::size_t>(before, 2));

  // Claims from two threads at once (this test runs under ThreadSanitizer
  // too): never more slots than sessions alive at once.
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&engine] {
      for (int i = 0; i < 50; ++i) LiveSession session(engine, nullptr);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(session_slots().listed, std::max<std::size_t>(before, 2));
  EXPECT_EQ(session_slots().active, 0u);
}

}  // namespace
}  // namespace senids::core
