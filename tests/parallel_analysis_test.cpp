// Regression suite for the parallel analysis path and its stat
// semantics:
//
//  - Logical-work counters are cache-invariant: a verdict-cache hit
//    replays the stored frames_extracted / frames_emulated /
//    emulated_steps, so cache-on and cache-off runs report identical
//    figures, and bytes_analyzed + cache_bytes_saved equals the
//    cache-off bytes_analyzed (the one counter that stays fresh-only).
//  - A frame is emulated at most once per unit even when the
//    decoder-confirmation pass and the deep-analysis pass both want it
//    (the per-frame memo in AnalysisContext).
//  - Thread count, with one shard or several, is invisible in the
//    report: every combination reproduces the serial baseline
//    byte-for-byte.
//  - An AnalysisContext reused across units carries no state between
//    them.
#include <gtest/gtest.h>

#include <vector>

#include "core/senids.hpp"
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

const Ipv4Addr kServer = Ipv4Addr::from_octets(10, 0, 0, 20);
const Endpoint kClient{Ipv4Addr::from_octets(198, 51, 100, 10), 45000};

constexpr std::size_t kCacheBytes = 8u << 20;

Endpoint attacker(std::size_t i) {
  return Endpoint{Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(10 + i)),
                  static_cast<std::uint16_t>(30000 + i)};
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

// ------------------------------------------------------------- corpora

/// Duplicate-heavy: the same Code Red request from many sources, plus
/// benign noise. Duplicates are what make the verdict cache hit.
pcap::Capture duplicate_corpus(std::uint64_t seed, std::size_t flows = 16) {
  gen::TraceBuilder tb(seed);
  const util::Bytes request = gen::make_code_red_ii_request();
  for (std::size_t i = 0; i < flows; ++i) {
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, request);
    tb.add_benign(kClient, kServer, gen::make_benign_payload(tb.prng()));
  }
  return tb.take();
}

/// The same polymorphic decoder payload repeated across sources: every
/// unit carries a decryption loop, so emulation-dependent counters are
/// nonzero, and the repeats make the cache hit.
pcap::Capture duplicate_decoder_corpus(std::uint64_t seed, std::size_t flows = 6) {
  gen::TraceBuilder tb(seed);
  const auto poly =
      gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, tb.prng());
  const util::Bytes payload = gen::wrap_in_overflow(poly.bytes, tb.prng());
  for (std::size_t i = 0; i < flows; ++i) {
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, payload);
  }
  return tb.take();
}

pcap::Capture mixed_corpus(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::make_shell_spawn_corpus();
  const util::Bytes request = gen::make_code_red_ii_request();
  for (std::size_t i = 0; i < 6; ++i) {
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, request);
    const auto adm = gen::admmutate_encode(corpus[i % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i + 10), Endpoint{kServer, 80}, adm.bytes);
    const auto clet = gen::clet_encode(corpus[(i + 3) % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i + 20), Endpoint{kServer, 80}, clet.bytes);
    tb.add_benign(kClient, kServer, gen::make_benign_payload(tb.prng()));
  }
  return tb.take();
}

// --------------------------------------- cache-invariant work counters

/// Cache-off and cache-on runs of the same capture must agree on every
/// logical-work counter, and on the bytes identity.
void expect_cache_stats_parity(const pcap::Capture& capture, const NidsOptions& base) {
  NidsOptions off = base;
  off.verdict_cache_bytes = 0;
  NidsEngine engine_off(off);
  const Report r_off = engine_off.process_capture(capture);

  NidsOptions on = base;
  on.verdict_cache_bytes = kCacheBytes;
  NidsEngine engine_on(on);
  const Report r_on = engine_on.process_capture(capture);

  ASSERT_GT(r_on.stats.cache_hits, 0u) << "corpus produced no cache hits";
  expect_alerts_equal(r_off.alerts, r_on.alerts);
  EXPECT_EQ(r_off.stats.units_analyzed, r_on.stats.units_analyzed);
  // A hit folds the verdict's stored work figures back into the stats,
  // so the cache is invisible in the logical-work counters...
  EXPECT_EQ(r_off.stats.frames_extracted, r_on.stats.frames_extracted);
  EXPECT_EQ(r_off.stats.frames_emulated, r_on.stats.frames_emulated);
  EXPECT_EQ(r_off.stats.emulated_steps, r_on.stats.emulated_steps);
  // ...except bytes_analyzed, which stays fresh-only and pairs with
  // cache_bytes_saved to make the documented identity.
  EXPECT_LT(r_on.stats.bytes_analyzed, r_off.stats.bytes_analyzed);
  EXPECT_EQ(r_on.stats.bytes_analyzed + r_on.stats.cache_bytes_saved,
            r_off.stats.bytes_analyzed);
}

TEST(CacheStatsParity, StaticPipeline) {
  NidsOptions options;
  options.classifier.analyze_everything = true;
  expect_cache_stats_parity(duplicate_corpus(301), options);
}

TEST(CacheStatsParity, WithEmulation) {
  NidsOptions options;
  options.classifier.analyze_everything = true;
  options.enable_emulation = true;
  expect_cache_stats_parity(duplicate_decoder_corpus(302), options);
}

TEST(CacheStatsParity, WithConfirmAndEmulation) {
  NidsOptions options;
  options.classifier.analyze_everything = true;
  options.enable_emulation = true;
  options.confirm_decoders_by_emulation = true;
  expect_cache_stats_parity(duplicate_decoder_corpus(303), options);
}

// ------------------------------------------- one emulation per frame

TEST(EmulationMemo, ConfirmPlusDeepEmulatesEachFrameOnce) {
  // With confirmation and deep analysis both on, each frame's sandbox
  // run must be shared between the two passes: the totals match a run
  // with deep analysis alone, which emulates every frame exactly once.
  const pcap::Capture capture = duplicate_decoder_corpus(304, /*flows=*/4);

  NidsOptions deep_only;
  deep_only.classifier.analyze_everything = true;
  deep_only.enable_emulation = true;
  NidsEngine engine_deep(deep_only);
  const Report r_deep = engine_deep.process_capture(capture);
  ASSERT_GT(r_deep.stats.frames_emulated, 0u);
  // Deep analysis emulates every extracted frame once.
  EXPECT_EQ(r_deep.stats.frames_emulated, r_deep.stats.frames_extracted);

  NidsOptions both = deep_only;
  both.confirm_decoders_by_emulation = true;
  NidsEngine engine_both(both);
  const Report r_both = engine_both.process_capture(capture);
  EXPECT_EQ(r_both.stats.frames_extracted, r_deep.stats.frames_extracted);
  EXPECT_EQ(r_both.stats.frames_emulated, r_deep.stats.frames_emulated);
  EXPECT_EQ(r_both.stats.emulated_steps, r_deep.stats.emulated_steps);
  // Confirmation must not cost detections either: the decoder decodes,
  // so the static decryption-loop alert survives.
  EXPECT_TRUE(r_both.detected(ThreatClass::kDecryptionLoop));
  expect_alerts_equal(r_deep.alerts, r_both.alerts);
}

// ------------------------------------------- worker count transparency

TEST(WorkerScaling, ThreadsDoNotChangeTheReport) {
  const pcap::Capture capture = mixed_corpus(305);

  NidsOptions base;
  base.classifier.analyze_everything = true;
  base.threads = 1;
  NidsEngine baseline(base);
  const Report r_base = baseline.process_capture(capture);
  ASSERT_FALSE(r_base.alerts.empty());

  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    NidsOptions options = base;
    options.threads = threads;
    NidsEngine engine(options);
    const Report r = engine.process_capture(capture);
    expect_alerts_equal(r_base.alerts, r.alerts);
    EXPECT_EQ(r_base.stats.packets, r.stats.packets);
    EXPECT_EQ(r_base.stats.units_analyzed, r.stats.units_analyzed);
    EXPECT_EQ(r_base.stats.frames_extracted, r.stats.frames_extracted);
    EXPECT_EQ(r_base.stats.bytes_analyzed, r.stats.bytes_analyzed);
  }
}

TEST(WorkerScaling, ThreadsZeroRunsShardLocal) {
  // threads == 0: serial at one shard; at shards == N, N threads each
  // run a shard and analyze its units, handing them to one another
  // through the unit queue. The report must still reproduce the serial
  // single-shard baseline.
  const pcap::Capture capture = mixed_corpus(306);

  NidsOptions base;
  base.classifier.analyze_everything = true;
  base.threads = 1;
  base.shards = 1;
  NidsEngine baseline(base);
  const Report r_base = baseline.process_capture(capture);
  ASSERT_FALSE(r_base.alerts.empty());

  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    NidsOptions options = base;
    options.threads = 0;
    options.shards = shards;
    NidsEngine engine(options);
    const Report r = engine.process_capture(capture);
    expect_alerts_equal(r_base.alerts, r.alerts);
    EXPECT_EQ(r_base.stats.units_analyzed, r.stats.units_analyzed);
    EXPECT_EQ(r_base.stats.frames_extracted, r.stats.frames_extracted);
    EXPECT_EQ(r_base.stats.bytes_analyzed, r.stats.bytes_analyzed);
  }
}

// ------------------------------------------------ context reuse safety

TEST(AnalysisContextReuse, NoStateLeaksBetweenUnits) {
  // One context analyzing malicious, then benign, then the same
  // malicious payload again: the benign unit must come back clean (no
  // leaked frames or fired templates) and the repeat must reproduce the
  // first result exactly.
  gen::TraceBuilder tb(307);
  const auto poly =
      gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, tb.prng());
  const util::Bytes bad = gen::wrap_in_overflow(poly.bytes, tb.prng());
  const util::Bytes good = gen::make_benign_payload(tb.prng()).data;

  NidsOptions options;
  options.enable_emulation = true;
  options.confirm_decoders_by_emulation = true;
  const NidsEngine engine(options);
  AnalysisContext ctx = engine.make_analysis_context();

  const Alert meta;
  NidsStats stats;
  const auto first = engine.analyze_payload(ctx, bad, meta, &stats);
  ASSERT_FALSE(first.empty());
  const auto benign = engine.analyze_payload(ctx, good, meta, &stats);
  EXPECT_TRUE(benign.empty());
  const auto repeat = engine.analyze_payload(ctx, bad, meta, &stats);
  expect_alerts_equal(first, repeat);
}

}  // namespace
}  // namespace senids::core
