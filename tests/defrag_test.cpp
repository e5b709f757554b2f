// IPv4 fragment reassembly: unit tests for the defragmenter plus the
// end-to-end evasion scenario (exploit split across IP fragments).
#include <gtest/gtest.h>

#include "core/senids.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"
#include "net/defrag.hpp"
#include "net/forge.hpp"

namespace senids::net {
namespace {

using util::Bytes;

Ipv4Header frag_header(std::uint16_t id, std::uint16_t offset_units, bool mf) {
  Ipv4Header h;
  h.identification = id;
  h.fragment_offset = offset_units;
  h.more_fragments = mf;
  h.src = Ipv4Addr::from_octets(1, 1, 1, 1);
  h.dst = Ipv4Addr::from_octets(2, 2, 2, 2);
  return h;
}

TEST(Defrag, TwoFragmentsInOrder) {
  Defragmenter d;
  Bytes part1(16, 0xAA);
  Bytes part2(8, 0xBB);
  EXPECT_FALSE(d.feed(frag_header(7, 0, true), part1).has_value());
  auto done = d.feed(frag_header(7, 2, false), part2);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->payload.size(), 24u);
  EXPECT_EQ(done->payload[0], 0xAA);
  EXPECT_EQ(done->payload[16], 0xBB);
  EXPECT_FALSE(done->header.is_fragment());
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Defrag, OutOfOrderFragments) {
  Defragmenter d;
  EXPECT_FALSE(d.feed(frag_header(9, 2, false), Bytes(8, 0xBB)).has_value());
  auto done = d.feed(frag_header(9, 0, true), Bytes(16, 0xAA));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->payload.size(), 24u);
}

TEST(Defrag, ThreeFragmentsShuffled) {
  Defragmenter d;
  EXPECT_FALSE(d.feed(frag_header(3, 1, true), Bytes(8, 0xBB)).has_value());
  EXPECT_FALSE(d.feed(frag_header(3, 2, false), Bytes(4, 0xCC)).has_value());
  auto done = d.feed(frag_header(3, 0, true), Bytes(8, 0xAA));
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->payload.size(), 20u);
  EXPECT_EQ(done->payload[7], 0xAA);
  EXPECT_EQ(done->payload[8], 0xBB);
  EXPECT_EQ(done->payload[16], 0xCC);
}

TEST(Defrag, DistinctDatagramsKeptSeparate) {
  Defragmenter d;
  EXPECT_FALSE(d.feed(frag_header(1, 0, true), Bytes(8, 0x11)).has_value());
  EXPECT_FALSE(d.feed(frag_header(2, 0, true), Bytes(8, 0x22)).has_value());
  EXPECT_EQ(d.pending(), 2u);
  auto done1 = d.feed(frag_header(1, 1, false), Bytes(4, 0x33));
  ASSERT_TRUE(done1.has_value());
  EXPECT_EQ(done1->payload[0], 0x11);
  EXPECT_EQ(d.pending(), 1u);
}

TEST(Defrag, DuplicateFragmentTolerated) {
  Defragmenter d;
  EXPECT_FALSE(d.feed(frag_header(4, 0, true), Bytes(8, 0xAA)).has_value());
  EXPECT_FALSE(d.feed(frag_header(4, 0, true), Bytes(8, 0xAA)).has_value());
  auto done = d.feed(frag_header(4, 1, false), Bytes(8, 0xBB));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->payload.size(), 16u);
}

TEST(Defrag, MissingMiddleNeverCompletes) {
  Defragmenter d;
  EXPECT_FALSE(d.feed(frag_header(5, 0, true), Bytes(8, 0xAA)).has_value());
  EXPECT_FALSE(d.feed(frag_header(5, 2, false), Bytes(8, 0xCC)).has_value());
  EXPECT_EQ(d.pending(), 1u);
}

TEST(Defrag, BufferCapEvictsOldest) {
  Defragmenter d(/*max_buffered=*/64);
  EXPECT_FALSE(d.feed(frag_header(1, 0, true), Bytes(48, 0x11)).has_value());
  EXPECT_FALSE(d.feed(frag_header(2, 0, true), Bytes(48, 0x22)).has_value());
  // Datagram 1 must have been evicted to stay under the cap.
  EXPECT_LE(d.buffered_bytes(), 64u);
  EXPECT_EQ(d.pending(), 1u);
}

TEST(Defrag, DroppedCounterCountsEvictedDatagrams) {
  Defragmenter d(/*max_buffered=*/64);
  EXPECT_EQ(d.dropped(), 0u);
  EXPECT_FALSE(d.feed(frag_header(1, 0, true), Bytes(48, 0x11)).has_value());
  EXPECT_FALSE(d.feed(frag_header(2, 0, true), Bytes(48, 0x22)).has_value());
  EXPECT_EQ(d.dropped(), 1u);
  // Completing a datagram is not a drop.
  auto done = d.feed(frag_header(2, 6, false), Bytes(8, 0x33));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(d.dropped(), 1u);
}

TEST(Defrag, EngineSurfacesDropsInStats) {
  // Incomplete fragment trains (final fragment withheld) from many
  // sources against a tiny buffer cap: the defragmenter must shed
  // pending datagrams and the report must say how many, at any shard
  // count.
  pcap::Capture capture;
  for (std::uint8_t s = 1; s <= 8; ++s) {
    Endpoint src{Ipv4Addr::from_octets(192, 0, 2, s), 1234};
    Endpoint dst{Ipv4Addr::from_octets(10, 0, 0, 20), 80};
    Bytes frame = forge_udp(src, dst, Bytes(400, 'x'));
    auto frags = fragment_frame(frame, 128);
    ASSERT_GE(frags.size(), 3u);
    frags.pop_back();  // never completes
    for (const auto& f : frags) capture.add(0, 0, f);
  }

  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    core::NidsOptions options;
    options.shards = shards;
    options.defrag_max_buffered_bytes = 512;
    core::NidsEngine nids(options);
    core::Report report = nids.process_capture(capture);
    EXPECT_GT(report.stats.defrag_dropped, 0u) << "shards=" << shards;
  }
}

// --------------------------------------------------- fragment_frame forge

TEST(FragmentFrame, RoundTripsThroughDefragmenter) {
  Endpoint src{Ipv4Addr::from_octets(10, 1, 1, 1), 1234};
  Endpoint dst{Ipv4Addr::from_octets(10, 2, 2, 2), 80};
  Bytes payload(500, 'P');
  Bytes frame = forge_tcp(src, dst, 1, payload);
  auto frags = fragment_frame(frame, 128);
  ASSERT_GE(frags.size(), 4u);

  Defragmenter d;
  std::optional<ReassembledDatagram> done;
  for (const auto& f : frags) {
    auto pkt = parse_frame(f);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->transport, Transport::kFragment);
    done = d.feed(pkt->ip, pkt->payload);
  }
  ASSERT_TRUE(done.has_value());
  auto whole = parse_reassembled(done->header, done->payload);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->transport, Transport::kTcp);
  EXPECT_EQ(whole->tcp.dst_port, 80);
  EXPECT_EQ(util::to_string(whole->payload), std::string(500, 'P'));
}

TEST(FragmentFrame, SmallFrameUntouched) {
  Endpoint src{Ipv4Addr::from_octets(1, 1, 1, 1), 1};
  Endpoint dst{Ipv4Addr::from_octets(2, 2, 2, 2), 2};
  Bytes frame = forge_udp(src, dst, util::to_bytes("tiny"));
  auto frags = fragment_frame(frame, 512);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0], frame);
}

TEST(FragmentFrame, OffsetsAreEightByteAligned) {
  Endpoint src{Ipv4Addr::from_octets(1, 1, 1, 1), 1};
  Endpoint dst{Ipv4Addr::from_octets(2, 2, 2, 2), 2};
  Bytes frame = forge_udp(src, dst, Bytes(100, 'x'));
  auto frags = fragment_frame(frame, 30);  // rounds down to 24
  for (const auto& f : frags) {
    auto pkt = parse_frame(f);
    ASSERT_TRUE(pkt.has_value());
  }
  // 8 + 100 = 108 bytes of IP payload at 24 per fragment = 5 fragments.
  EXPECT_EQ(frags.size(), 5u);
}

// ----------------------------------------------------- end-to-end evasion

TEST(FragmentEvasion, FragmentedExploitStillDetected) {
  const Ipv4Addr honeypot = Ipv4Addr::from_octets(10, 0, 0, 7);
  const Endpoint attacker{Ipv4Addr::from_octets(192, 0, 2, 66), 31337};

  // Build the exploit flow, then shred every frame into 64-byte fragments.
  gen::TraceBuilder tb(81);
  auto exploit = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[1].code, tb.prng());
  tb.add_tcp_flow(attacker, Endpoint{honeypot, 80}, exploit);

  pcap::Capture fragmented;
  for (const auto& rec : tb.capture().records) {
    for (const auto& frag : fragment_frame(rec.data, 64)) {
      fragmented.add(rec.ts_sec, rec.ts_usec, frag);
    }
  }
  ASSERT_GT(fragmented.records.size(), tb.capture().records.size());

  core::NidsOptions options;
  core::NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(honeypot);
  core::Report report = nids.process_capture(fragmented);
  EXPECT_TRUE(report.detected(semantic::ThreatClass::kShellSpawn));
}

TEST(FragmentEvasion, ReassembledTrafficClassifiedBySourceTaint) {
  // A fragment train to a honeypot taints the source even though the
  // transport header only exists in the first fragment.
  const Ipv4Addr honeypot = Ipv4Addr::from_octets(10, 0, 0, 7);
  const Endpoint attacker{Ipv4Addr::from_octets(192, 0, 2, 66), 31337};
  gen::TraceBuilder tb(82);
  auto exploit = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[5].code, tb.prng());
  tb.add_tcp_flow(attacker, Endpoint{honeypot, 80}, exploit);

  pcap::Capture fragmented;
  for (const auto& rec : tb.capture().records) {
    for (const auto& frag : fragment_frame(rec.data, 128)) {
      fragmented.add(rec.ts_sec, rec.ts_usec, frag);
    }
  }
  core::NidsOptions options;
  core::NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(honeypot);
  core::Report report = nids.process_capture(fragmented);
  EXPECT_TRUE(nids.is_tainted(attacker.ip));
  EXPECT_TRUE(report.detected(semantic::ThreatClass::kShellSpawn));
}

}  // namespace
}  // namespace senids::net
