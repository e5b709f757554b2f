// Differential harness for source-affine pipeline shards: every
// generator corpus is run through a 1-shard engine and an N-shard
// engine over the *same* capture, and the reports must be
// byte-identical — same sorted alert list (every field), same
// detections, same packet/unit counts — with the verdict cache both on
// and off, and with analysis serial and threaded. This is the shard
// refactor's correctness contract: source-affine dispatch must be
// invisible in every output the pipeline produces.
//
// The second half pins the semantics that sharding is allowed to
// change: classification state (dark-space counting, honeypot taint)
// stays correct because it is per-source and sources never split
// across shards; taint persists across captures on the same engine;
// and the documented timing identities hold (dispatch_seconds == 0
// iff shards <= 1, stages[kClassify].count == packets at any shard
// count).
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "core/senids.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/mailworm.hpp"
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
const Endpoint kClient{Ipv4Addr::from_octets(198, 51, 100, 10), 45000};

constexpr ThreatClass kAllThreats[] = {
    ThreatClass::kDecryptionLoop, ThreatClass::kShellSpawn,
    ThreatClass::kPortBindShell,  ThreatClass::kReverseShell,
    ThreatClass::kCodeRedII,      ThreatClass::kCustom,
};

constexpr std::size_t kCacheBytes = 8u << 20;

Endpoint attacker(std::size_t i) {
  return Endpoint{Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(10 + i)),
                  static_cast<std::uint16_t>(30000 + i)};
}

/// Shard count for the N-shard side of every differential pair. The CI
/// TSan matrix overrides it via SENIDS_TEST_SHARDS to sweep {2, 4}.
std::size_t test_shards() {
  if (const char* env = std::getenv("SENIDS_TEST_SHARDS")) {
    const long v = std::atol(env);
    if (v > 1) return static_cast<std::size_t>(v);
  }
  return 4;
}

NidsEngine make_engine(std::size_t shards, std::size_t threads,
                       std::size_t cache_bytes) {
  NidsOptions options;
  options.classifier.analyze_everything = true;
  options.shards = shards;
  options.threads = threads;
  options.verdict_cache_bytes = cache_bytes;
  return NidsEngine(options);
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

void expect_cache_invariant(const NidsStats& s) {
  EXPECT_EQ(s.cache_hits + s.cache_misses + s.cache_bypass, s.units_analyzed);
}

/// The harness: a 1-shard serial cache-off baseline against sharded
/// runs with the cache off and on. A sharded run starts
/// max(threads, shards) threads, so the (threads, shards) pairs sit on
/// each side of that: fewer threads than shards (0, N), (2, N), as many
/// (N, N), and more (8, 2). Every combination must reproduce the
/// baseline report exactly.
void expect_shards_transparent(const pcap::Capture& capture) {
  NidsEngine baseline = make_engine(1, 1, 0);
  const Report base = baseline.process_capture(capture);

  const std::size_t n = test_shards();
  const std::pair<std::size_t, std::size_t> configs[] = {{0, n}, {2, n}, {n, n}, {8, 2}};
  for (const auto& [threads, shards] : configs) {
    for (std::size_t cache_bytes : {std::size_t{0}, kCacheBytes}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " shards=" << shards
                                        << " cache=" << cache_bytes);
      NidsEngine sharded = make_engine(shards, threads, cache_bytes);
      const Report r = sharded.process_capture(capture);

      expect_alerts_equal(base.alerts, r.alerts);
      for (ThreatClass t : kAllThreats) {
        EXPECT_EQ(base.detected(t), r.detected(t)) << semantic::threat_class_name(t);
      }
      // Stage-(a) counters are per-packet and deterministic, so they
      // must survive sharding exactly. Logical-work counters survive
      // the cache too: hits replay the stored frames/emulation figures
      // (the hit/miss *split* is still schedule-dependent under
      // threads, so only the sum invariant is checked for those).
      EXPECT_EQ(base.stats.packets, r.stats.packets);
      EXPECT_EQ(base.stats.non_ip, r.stats.non_ip);
      EXPECT_EQ(base.stats.suspicious_packets, r.stats.suspicious_packets);
      EXPECT_EQ(base.stats.units_analyzed, r.stats.units_analyzed);
      EXPECT_EQ(base.stats.frames_extracted, r.stats.frames_extracted);
      EXPECT_EQ(base.stats.frames_emulated, r.stats.frames_emulated);
      EXPECT_EQ(base.stats.emulated_steps, r.stats.emulated_steps);
      EXPECT_EQ(base.stats.streams_truncated, r.stats.streams_truncated);
      if (cache_bytes > 0) {
        expect_cache_invariant(r.stats);
      } else {
        EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses + r.stats.cache_bypass,
                  0u);
      }
    }
  }
}

// ------------------------------------------------------------- corpora

pcap::Capture admmutate_corpus(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::make_shell_spawn_corpus();
  for (std::size_t i = 0; i < 8; ++i) {
    const auto poly = gen::admmutate_encode(corpus[i % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, poly.bytes);
  }
  return tb.take();
}

pcap::Capture clet_corpus(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::make_shell_spawn_corpus();
  for (std::size_t i = 0; i < 8; ++i) {
    const auto poly = gen::clet_encode(corpus[i % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, poly.bytes);
  }
  return tb.take();
}

pcap::Capture codered_corpus(std::uint64_t seed, std::size_t flows = 16) {
  gen::TraceBuilder tb(seed);
  const util::Bytes request = gen::make_code_red_ii_request();
  for (std::size_t i = 0; i < flows; ++i) {
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, request);
  }
  return tb.take();
}

pcap::Capture benign_corpus(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const Endpoint mx{Ipv4Addr::from_octets(10, 0, 0, 25), 25};
  for (int i = 0; i < 20; ++i) {
    tb.add_benign(kClient, kServer, gen::make_benign_payload(tb.prng()));
  }
  for (int i = 0; i < 4; ++i) {
    tb.add_tcp_flow(kClient, mx, gen::make_benign_email(tb.prng()));
  }
  return tb.take();
}

pcap::Capture mixed_corpus(std::uint64_t seed) {
  // Everything at once, interleaved across many distinct sources, so
  // the dispatcher actually spreads work over shards: duplicates (Code
  // Red), polymorphic one-offs (ADMmutate/Clet), attachments, and
  // benign noise.
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::make_shell_spawn_corpus();
  const util::Bytes request = gen::make_code_red_ii_request();
  const Endpoint mx{Ipv4Addr::from_octets(10, 0, 0, 25), 25};
  for (std::size_t i = 0; i < 6; ++i) {
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, request);
    const auto adm = gen::admmutate_encode(corpus[i % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i + 10), Endpoint{kServer, 80}, adm.bytes);
    const auto clet = gen::clet_encode(corpus[(i + 3) % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i + 20), Endpoint{kServer, 80}, clet.bytes);
    tb.add_benign(kClient, kServer, gen::make_benign_payload(tb.prng()));
  }
  const auto worm = gen::make_email_worm(tb.prng());
  tb.add_tcp_flow(attacker(30), mx, worm.smtp_payload);
  return tb.take();
}

// ------------------------------------------- N shards == 1 shard

TEST(ShardDifferential, AdmmutateCorpus) { expect_shards_transparent(admmutate_corpus(201)); }

TEST(ShardDifferential, CletCorpus) { expect_shards_transparent(clet_corpus(202)); }

TEST(ShardDifferential, CodeRedCorpus) { expect_shards_transparent(codered_corpus(203)); }

TEST(ShardDifferential, BenignCorpus) {
  const pcap::Capture capture = benign_corpus(204);
  NidsEngine sharded = make_engine(test_shards(), 1, kCacheBytes);
  const Report report = sharded.process_capture(capture);
  EXPECT_TRUE(report.alerts.empty());
  expect_shards_transparent(capture);
}

TEST(ShardDifferential, MixedCorpus) { expect_shards_transparent(mixed_corpus(205)); }

TEST(ShardDifferential, SingleSourceLandsOnOneShard) {
  // Degenerate distribution: every flow from one source hashes to one
  // shard, the others stay idle. The report must still match.
  gen::TraceBuilder tb(206);
  const util::Bytes request = gen::make_code_red_ii_request();
  for (int i = 0; i < 8; ++i) {
    tb.add_tcp_flow(attacker(0), Endpoint{kServer, static_cast<std::uint16_t>(80 + i)},
                    request);
  }
  expect_shards_transparent(tb.take());
}

// --------------------------- classification state under source affinity

/// A classification-dependent corpus (analyze_everything = false): each
/// scanner probes dark space past the threshold, then exploits a real
/// server; benign clients never probe and must stay untainted. Detecting
/// the exploits requires per-source probe counts to accumulate correctly,
/// which sharding must preserve via source affinity.
pcap::Capture scan_then_exploit_corpus(std::uint64_t seed, std::size_t scanners) {
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::make_shell_spawn_corpus();
  for (std::size_t i = 0; i < scanners; ++i) {
    tb.add_syn_scan(attacker(i), Ipv4Addr::from_octets(10, 0, 200, 1), 80, 8);
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80},
                    gen::wrap_in_overflow(corpus[i % corpus.size()].code, tb.prng()));
    tb.add_benign(kClient, kServer, gen::make_benign_payload(tb.prng()));
  }
  return tb.take();
}

NidsEngine make_classifying_engine(std::size_t shards, std::size_t threads = 1) {
  NidsOptions options;
  options.shards = shards;
  options.threads = threads;
  NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(kHoneypot);
  nids.classifier().dark_space().add_unused_prefix(
      classify::Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  return nids;
}

TEST(ShardDifferential, DarkSpaceTaintSurvivesSharding) {
  constexpr std::size_t kScanners = 12;
  const pcap::Capture capture = scan_then_exploit_corpus(207, kScanners);

  NidsEngine one = make_classifying_engine(1);
  NidsEngine many = make_classifying_engine(test_shards());
  const Report r_one = one.process_capture(capture);
  const Report r_many = many.process_capture(capture);

  EXPECT_TRUE(r_one.detected(ThreatClass::kShellSpawn));
  expect_alerts_equal(r_one.alerts, r_many.alerts);
  EXPECT_EQ(r_one.stats.suspicious_packets, r_many.stats.suspicious_packets);
  // Every scanner crossed the dark-space threshold inside its shard;
  // the benign client never probed anywhere.
  for (std::size_t i = 0; i < kScanners; ++i) {
    EXPECT_TRUE(one.is_tainted(attacker(i).ip)) << "scanner " << i;
    EXPECT_TRUE(many.is_tainted(attacker(i).ip)) << "scanner " << i;
  }
  EXPECT_FALSE(one.is_tainted(kClient.ip));
  EXPECT_FALSE(many.is_tainted(kClient.ip));
}

TEST(ShardDifferential, TaintPersistsAcrossCaptures) {
  // Capture 1 only scans; capture 2 only exploits. The exploit is
  // caught iff the scanner's taint survived the capture boundary —
  // per-shard classifier state must persist like the embedded state.
  gen::TraceBuilder scan_tb(208);
  scan_tb.add_syn_scan(attacker(3), Ipv4Addr::from_octets(10, 0, 200, 1), 80, 8);
  const pcap::Capture scan = scan_tb.take();

  gen::TraceBuilder exploit_tb(209);
  const auto corpus = gen::make_shell_spawn_corpus();
  exploit_tb.add_tcp_flow(attacker(3), Endpoint{kServer, 80},
                          gen::wrap_in_overflow(corpus[0].code, exploit_tb.prng()));
  const pcap::Capture exploit = exploit_tb.take();

  NidsEngine many = make_classifying_engine(test_shards());
  const Report r_scan = many.process_capture(scan);
  EXPECT_TRUE(r_scan.alerts.empty());
  EXPECT_TRUE(many.is_tainted(attacker(3).ip));
  const Report r_exploit = many.process_capture(exploit);
  EXPECT_TRUE(r_exploit.detected(ThreatClass::kShellSpawn));
}

TEST(ShardDifferential, DarkSourceEvictionsCounted) {
  // Satellite: the per-source dark-space counter table is LRU-bounded
  // and evictions surface in NidsStats at any shard count.
  gen::TraceBuilder tb(210);
  for (std::size_t i = 0; i < 32; ++i) {
    tb.add_syn_scan(attacker(i), Ipv4Addr::from_octets(10, 0, 200, 1), 80, 2);
  }
  const pcap::Capture capture = tb.take();

  for (std::size_t shards : {std::size_t{1}, test_shards()}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    NidsOptions options;
    options.shards = shards;
    options.classifier.dark_space_max_sources = 4;
    NidsEngine nids(options);
    nids.classifier().dark_space().add_unused_prefix(
        classify::Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
    const Report report = nids.process_capture(capture);
    EXPECT_GT(report.stats.dark_sources_evicted, 0u);
  }
}

// ------------------------------------------------- timing identities

TEST(ShardSemantics, DispatchSecondsZeroWithoutShards) {
  const pcap::Capture capture = mixed_corpus(211);
  NidsEngine one = make_engine(1, 1, 0);
  const Report report = one.process_capture(capture);
  // Documented identity: dispatch_seconds == 0 whenever shards <= 1.
  EXPECT_EQ(report.stats.dispatch_seconds, 0.0);
  EXPECT_GE(report.stats.classify_seconds, 0.0);
}

TEST(ShardSemantics, ClassifyStageCountsEveryPacketAtAnyShardCount) {
  const pcap::Capture capture = mixed_corpus(212);
  constexpr auto kClassify = static_cast<std::size_t>(obs::Stage::kClassify);
  for (std::size_t shards : {std::size_t{1}, test_shards()}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    NidsEngine nids = make_engine(shards, 1, 0);
    const Report report = nids.process_capture(capture);
    // Documented identity: every packet gets exactly one classify-stage
    // observation, even records whose source cannot be peeked.
    EXPECT_EQ(report.stats.stages[kClassify].count, report.stats.packets);
  }
}

TEST(ShardSemantics, DispatchWallAccountedWhenSharded) {
  // Hundreds of records so the dispatcher's wall clock is measurably
  // nonzero when metrics are on (they are, by default, in tests).
  const pcap::Capture capture = codered_corpus(213, /*flows=*/64);
  NidsEngine many = make_engine(test_shards(), 1, 0);
  const Report report = many.process_capture(capture);
  EXPECT_GT(report.stats.dispatch_seconds, 0.0);
  EXPECT_GE(report.stats.classify_seconds, 0.0);
}

}  // namespace
}  // namespace senids::core
