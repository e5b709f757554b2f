#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "classify/classifier.hpp"
#include "net/forge.hpp"

namespace senids::classify {
namespace {

using net::Endpoint;
using net::Ipv4Addr;

net::ParsedPacket packet(Ipv4Addr src, Ipv4Addr dst, std::uint16_t dport = 80) {
  auto frame = net::forge_tcp(Endpoint{src, 40000}, Endpoint{dst, dport}, 1,
                              util::as_bytes("x"));
  return *net::parse_frame(frame);
}

const Ipv4Addr kAttacker = Ipv4Addr::from_octets(192, 0, 2, 66);
const Ipv4Addr kClient = Ipv4Addr::from_octets(198, 51, 100, 10);
const Ipv4Addr kServer = Ipv4Addr::from_octets(10, 0, 0, 20);
const Ipv4Addr kHoneypot = Ipv4Addr::from_octets(10, 0, 0, 7);

TEST(Prefix, ContainsMath) {
  Prefix p{Ipv4Addr::from_octets(10, 0, 64, 0), 18};
  EXPECT_TRUE(p.contains(Ipv4Addr::from_octets(10, 0, 64, 1)));
  EXPECT_TRUE(p.contains(Ipv4Addr::from_octets(10, 0, 127, 255)));
  EXPECT_FALSE(p.contains(Ipv4Addr::from_octets(10, 0, 128, 0)));
  EXPECT_FALSE(p.contains(Ipv4Addr::from_octets(10, 1, 64, 0)));
}

TEST(Prefix, HostRouteAndDefault) {
  Prefix host{kHoneypot, 32};
  EXPECT_TRUE(host.contains(kHoneypot));
  EXPECT_FALSE(host.contains(kServer));
  Prefix all{Ipv4Addr{0}, 0};
  EXPECT_TRUE(all.contains(kAttacker));
}

TEST(Honeypot, TouchingDecoyTaintsSource) {
  TrafficClassifier c;
  c.honeypots().add_decoy(kHoneypot);
  // First packet to the honeypot is itself analyzed (source now tainted).
  EXPECT_EQ(c.observe(packet(kAttacker, kHoneypot)), Verdict::kAnalyze);
  // Subsequent traffic from the same host anywhere is analyzed.
  EXPECT_EQ(c.observe(packet(kAttacker, kServer)), Verdict::kAnalyze);
  // Unrelated hosts stay clean.
  EXPECT_EQ(c.observe(packet(kClient, kServer)), Verdict::kIgnore);
  EXPECT_TRUE(c.is_tainted(kAttacker));
  EXPECT_FALSE(c.is_tainted(kClient));
}

TEST(DarkSpace, ThresholdCrossingTaints) {
  ClassifierOptions opts;
  opts.dark_space_threshold = 3;
  TrafficClassifier c(opts);
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});

  // Two probes: below threshold, still ignored.
  EXPECT_EQ(c.observe(packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 1))),
            Verdict::kIgnore);
  EXPECT_EQ(c.observe(packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 2))),
            Verdict::kIgnore);
  EXPECT_FALSE(c.is_tainted(kAttacker));
  // Third probe reaches t=3: tainted from here on.
  EXPECT_EQ(c.observe(packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 3))),
            Verdict::kAnalyze);
  EXPECT_TRUE(c.is_tainted(kAttacker));
  // And now even traffic to production hosts is analyzed.
  EXPECT_EQ(c.observe(packet(kAttacker, kServer)), Verdict::kAnalyze);
}

TEST(DarkSpace, CountsPerSource) {
  ClassifierOptions opts;
  opts.dark_space_threshold = 5;
  TrafficClassifier c(opts);
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  for (int i = 0; i < 4; ++i) {
    c.observe(packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 1)));
    c.observe(packet(kClient, kServer));
  }
  EXPECT_EQ(c.dark_space().count(kAttacker), 4u);
  EXPECT_EQ(c.dark_space().count(kClient), 0u);
  EXPECT_FALSE(c.is_tainted(kAttacker));
}

TEST(DarkSpace, TrafficToUsedSpaceNeverCounts) {
  TrafficClassifier c;
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c.observe(packet(kAttacker, kServer)), Verdict::kIgnore);
  }
  EXPECT_EQ(c.dark_space().count(kAttacker), 0u);
}

TEST(DarkSpace, CounterTableCapEvictsLeastRecentlyProbed) {
  DarkSpaceCounters counters(/*max_sources=*/2);
  EXPECT_EQ(counters.increment(1), 1u);
  EXPECT_EQ(counters.increment(2), 1u);
  EXPECT_EQ(counters.increment(1), 2u);  // refreshes 1: now 2 is coldest
  EXPECT_EQ(counters.evictions(), 0u);
  // A third source exceeds the cap; the coldest (2) is evicted.
  EXPECT_EQ(counters.increment(3), 1u);
  EXPECT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.evictions(), 1u);
  EXPECT_EQ(counters.count(2), 0u);
  EXPECT_EQ(counters.count(1), 2u);
  // The evicted source starts over from zero if it probes again.
  EXPECT_EQ(counters.increment(2), 1u);
  EXPECT_EQ(counters.evictions(), 2u);
}

TEST(DarkSpace, UnboundedTableNeverEvicts) {
  DarkSpaceCounters counters(/*max_sources=*/0);
  for (std::uint32_t src = 0; src < 1000; ++src) counters.increment(src);
  EXPECT_EQ(counters.size(), 1000u);
  EXPECT_EQ(counters.evictions(), 0u);
}

TEST(DarkSpace, SourceCapDelaysTaintUnderSpoofedFlood) {
  // An attacker cycling more spoofed sources than the cap keeps evicting
  // its own counters: no source accumulates enough probes to taint, but
  // the table stays bounded — the documented trade.
  ClassifierOptions opts;
  opts.dark_space_threshold = 3;
  opts.dark_space_max_sources = 4;
  TrafficClassifier c(opts);
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  for (int round = 0; round < 2; ++round) {
    for (std::uint8_t s = 1; s <= 16; ++s) {
      c.observe(packet(Ipv4Addr::from_octets(203, 0, 113, s),
                       Ipv4Addr::from_octets(10, 0, 200, 1)));
    }
  }
  EXPECT_EQ(c.tainted_count(), 0u);
  EXPECT_GT(c.dark_space().evictions(), 0u);
  EXPECT_LE(c.dark_space().tracked_sources(), 4u);
}

// The counter map stores iterators into the table's own LRU list, so a
// copy would alias the source's nodes.
static_assert(!std::is_copy_constructible_v<DarkSpaceCounters>);
static_assert(!std::is_copy_assignable_v<DarkSpaceCounters>);

TEST(Classifier, ExternalStateMatchesEmbeddedState) {
  // A shard's with_empty_state() copy must produce the exact verdict
  // sequence of a classifier fed directly over the same packet stream.
  ClassifierOptions opts;
  opts.dark_space_threshold = 3;
  TrafficClassifier embedded(opts);
  TrafficClassifier proto(opts);
  for (TrafficClassifier* c : {&embedded, &proto}) {
    c->honeypots().add_decoy(kHoneypot);
    c->dark_space().add_unused_prefix(
        Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  }
  TrafficClassifier shard = proto.with_empty_state();

  const std::pair<Ipv4Addr, Ipv4Addr> stream[] = {
      {kAttacker, Ipv4Addr::from_octets(10, 0, 200, 1)},
      {kClient, kServer},
      {kAttacker, Ipv4Addr::from_octets(10, 0, 200, 2)},
      {kAttacker, Ipv4Addr::from_octets(10, 0, 200, 3)},
      {kAttacker, kServer},
      {kClient, kHoneypot},
      {kClient, kServer},
  };
  for (const auto& [src, dst] : stream) {
    const net::ParsedPacket pkt = packet(src, dst);
    EXPECT_EQ(embedded.observe(pkt), shard.observe(pkt));
    EXPECT_EQ(embedded.check(pkt), shard.check(pkt));
  }
  EXPECT_TRUE(shard.is_tainted(kAttacker));
  EXPECT_TRUE(shard.is_tainted(kClient));
  // The shard's state never leaks into the prototype's.
  EXPECT_EQ(proto.tainted_count(), 0u);
  EXPECT_EQ(proto.dark_space().count(kAttacker), 0u);
}

TEST(Classifier, MakeStateInheritsCounterCap) {
  ClassifierOptions opts;
  opts.dark_space_max_sources = 2;
  TrafficClassifier c(opts);
  TrafficClassifier shard = c.with_empty_state();
  for (std::uint32_t src = 0; src < 8; ++src) shard.dark_space().record_probe(Ipv4Addr{src});
  EXPECT_LE(shard.dark_space().tracked_sources(), 2u);
  EXPECT_EQ(shard.dark_space().evictions(), 6u);
}

TEST(Classifier, ShardCopyInheritsConfigurationNotState) {
  // Each pipeline shard classifies with with_empty_state() of the
  // engine's classifier: same decoys, prefixes, threshold and counter
  // cap, none of the prototype's taint or probe counts.
  ClassifierOptions opts;
  opts.dark_space_threshold = 3;
  opts.dark_space_max_sources = 2;
  TrafficClassifier proto(opts);
  proto.honeypots().add_decoy(kHoneypot);
  proto.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  proto.observe(packet(kClient, kHoneypot));
  proto.observe(packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 1)));
  ASSERT_TRUE(proto.is_tainted(kClient));

  TrafficClassifier shard = proto.with_empty_state();
  EXPECT_EQ(shard.tainted_count(), 0u);
  EXPECT_EQ(shard.dark_space().count(kAttacker), 0u);
  EXPECT_EQ(shard.dark_space().threshold(), 3u);
  EXPECT_EQ(shard.honeypots().size(), 1u);
  EXPECT_EQ(shard.dark_space().prefixes().size(), 1u);

  // Decoys: one honeypot hit taints.
  EXPECT_EQ(shard.observe(packet(kClient, kHoneypot)), Verdict::kAnalyze);
  // Prefixes and threshold: the third dark probe taints, not the second.
  EXPECT_EQ(shard.observe(packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 1))),
            Verdict::kIgnore);
  EXPECT_EQ(shard.observe(packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 2))),
            Verdict::kIgnore);
  EXPECT_EQ(shard.observe(packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 3))),
            Verdict::kAnalyze);
  // Counter cap: a third probing source evicts the coldest counter.
  shard.observe(packet(kServer, Ipv4Addr::from_octets(10, 0, 200, 4)));
  shard.observe(packet(Ipv4Addr::from_octets(203, 0, 113, 1),
                       Ipv4Addr::from_octets(10, 0, 200, 5)));
  EXPECT_EQ(shard.dark_space().tracked_sources(), 2u);
  EXPECT_EQ(shard.dark_space().evictions(), 1u);
  // The prototype's state is untouched by the copy's traffic.
  EXPECT_FALSE(proto.is_tainted(kAttacker));
  EXPECT_EQ(proto.dark_space().count(kAttacker), 1u);
}

TEST(Classifier, AnalyzeEverythingMode) {
  ClassifierOptions opts;
  opts.analyze_everything = true;
  TrafficClassifier c(opts);
  EXPECT_EQ(c.observe(packet(kClient, kServer)), Verdict::kAnalyze);
  // Without taint bookkeeping: everything is analyzed, nothing tainted.
  EXPECT_EQ(c.tainted_count(), 0u);
}

TEST(Classifier, BothSchemesCompose) {
  ClassifierOptions opts;
  opts.dark_space_threshold = 2;
  TrafficClassifier c(opts);
  c.honeypots().add_decoy(kHoneypot);
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});

  const Ipv4Addr scanner = Ipv4Addr::from_octets(203, 0, 113, 5);
  c.observe(packet(scanner, Ipv4Addr::from_octets(10, 0, 200, 9)));
  c.observe(packet(scanner, Ipv4Addr::from_octets(10, 0, 200, 10)));
  c.observe(packet(kAttacker, kHoneypot));
  EXPECT_TRUE(c.is_tainted(scanner));
  EXPECT_TRUE(c.is_tainted(kAttacker));
  EXPECT_EQ(c.tainted_count(), 2u);
}

TEST(Classifier, HoneypotHitAlsoCountsAsDarkIfConfigured) {
  // A honeypot address can simultaneously live inside an unused prefix;
  // both schemes then see the probe.
  ClassifierOptions opts;
  opts.dark_space_threshold = 1;
  TrafficClassifier c(opts);
  c.honeypots().add_decoy(Ipv4Addr::from_octets(10, 0, 200, 7));
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  EXPECT_EQ(c.observe(packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 7))),
            Verdict::kAnalyze);
}

}  // namespace
}  // namespace senids::classify
