// Hostile-input robustness: the full pipeline must survive corrupted
// captures, truncated and mutated frames, and adversarial payload shapes
// without crashing, hanging, or reading out of bounds. (Run these under
// ASan/UBSan in CI for full value; they also catch logic hangs via the
// engine's internal budgets.)
#include <gtest/gtest.h>

#include "core/senids.hpp"
#include "extract/extractor.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"

namespace senids {
namespace {

using util::Bytes;

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, RandomFramesNeverCrash) {
  util::Prng prng(GetParam());
  pcap::Capture capture;
  for (int i = 0; i < 50; ++i) {
    capture.add(static_cast<std::uint32_t>(i), 0, prng.bytes(14 + prng.below(200)));
  }
  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  core::NidsEngine nids(options);
  core::Report report = nids.process_capture(capture);
  EXPECT_EQ(report.stats.packets, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<std::uint64_t>(0, 12));

class MutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationFuzz, BitFlippedRealTrafficSurvives) {
  // Start from a well-formed capture with an exploit, then corrupt random
  // bytes in every frame: headers, checksums, payload — anything goes.
  gen::TraceBuilder tb(GetParam());
  const net::Endpoint attacker{net::Ipv4Addr::from_octets(192, 0, 2, 66), 31337};
  const net::Endpoint victim{net::Ipv4Addr::from_octets(10, 0, 0, 7), 80};
  tb.add_tcp_flow(attacker, victim,
                  gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[1].code, tb.prng()));
  pcap::Capture capture = tb.take();

  util::Prng prng(1000 + GetParam());
  for (auto& rec : capture.records) {
    const std::size_t flips = 1 + prng.below(8);
    for (std::size_t i = 0; i < flips && !rec.data.empty(); ++i) {
      rec.data[prng.below(rec.data.size())] ^= static_cast<std::uint8_t>(1 + prng.below(255));
    }
    if (prng.chance(0.2) && rec.data.size() > 4) {
      rec.data.resize(rec.data.size() / 2);  // truncate some frames
    }
  }
  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  options.enable_emulation = true;  // exercise the deepest path too
  core::NidsEngine nids(options);
  core::Report report = nids.process_capture(capture);
  EXPECT_GT(report.stats.packets, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Range<std::uint64_t>(0, 12));

TEST(PcapFuzz, CorruptedFilesNeverCrash) {
  util::Prng prng(7777);
  gen::TraceBuilder tb(1);
  tb.add_tcp_flow({net::Ipv4Addr::from_octets(1, 1, 1, 1), 1},
                  {net::Ipv4Addr::from_octets(2, 2, 2, 2), 2}, util::as_bytes("payload"));
  Bytes good = pcap::serialize(tb.capture());
  for (int trial = 0; trial < 200; ++trial) {
    Bytes bad = good;
    const std::size_t flips = 1 + prng.below(16);
    for (std::size_t i = 0; i < flips; ++i) {
      bad[prng.below(bad.size())] ^= static_cast<std::uint8_t>(prng.next());
    }
    if (prng.chance(0.3)) bad.resize(prng.below(bad.size() + 1));
    auto parsed = pcap::parse_any(bad);  // any outcome but a crash is fine
    if (parsed) {
      EXPECT_LE(parsed->records.size(), 1000u);
    }
  }
}

TEST(ExtractorFuzz, ArbitraryPayloadsNeverCrash) {
  util::Prng prng(8888);
  extract::BinaryExtractor extractor;
  for (int trial = 0; trial < 100; ++trial) {
    auto payload = prng.bytes(prng.below(4096));
    auto frames = extractor.extract(payload);
    for (const auto& f : frames) {
      EXPECT_LE(f.src_offset, payload.size());
    }
  }
}

TEST(EngineRobustness, PathologicalRepetitionPayload) {
  // A payload that is one enormous repetition run plus a tail: exercises
  // the extractor's run handling and the analyzer entry budget.
  Bytes payload(200000, 'A');
  payload.push_back(0xCD);
  payload.push_back(0x80);
  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  core::NidsEngine nids(options);
  core::Alert meta;
  core::AnalysisContext ctx = nids.make_analysis_context();
  auto alerts = nids.analyze_payload(ctx, payload, meta);
  EXPECT_TRUE(alerts.empty());
}

TEST(EngineRobustness, DeeplyInterleavedFragmentsOfManyFlows) {
  // 32 fragmented flows interleaved round-robin: stresses the
  // defragmenter table and flow map simultaneously.
  gen::TraceBuilder tb(3);
  for (int i = 0; i < 32; ++i) {
    const net::Endpoint src{
        net::Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(1 + i)),
        static_cast<std::uint16_t>(10000 + i)};
    tb.add_tcp_flow(src, {net::Ipv4Addr::from_octets(10, 0, 0, 7), 80},
                    Bytes(600, static_cast<std::uint8_t>('a' + i % 26)));
  }
  // Fragment every frame, then interleave all fragments round-robin.
  std::vector<std::vector<Bytes>> trains;
  for (const auto& rec : tb.capture().records) {
    trains.push_back(net::fragment_frame(rec.data, 64));
  }
  pcap::Capture shuffled;
  bool progress = true;
  for (std::size_t round = 0; progress; ++round) {
    progress = false;
    for (auto& train : trains) {
      if (round < train.size()) {
        shuffled.add(0, 0, train[round]);
        progress = true;
      }
    }
  }
  core::NidsOptions options;
  core::NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(net::Ipv4Addr::from_octets(10, 0, 0, 7));
  core::Report report = nids.process_capture(shuffled);
  EXPECT_EQ(report.stats.packets, shuffled.records.size());
  EXPECT_TRUE(report.alerts.empty());  // the payloads are benign letters
}

}  // namespace
}  // namespace senids
