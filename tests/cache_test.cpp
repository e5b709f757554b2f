// Unit tests for the verdict-cache building blocks: the SHA-256
// primitive (FIPS 180-4 vectors), the configuration fingerprint, and the
// sharded byte-budgeted LRU itself.
#include <gtest/gtest.h>

#include "cache/fingerprint.hpp"
#include "cache/sha256.hpp"
#include "cache/verdict_cache.hpp"
#include "core/engine.hpp"
#include "semantic/library.hpp"
#include "util/bytes.hpp"
#include "util/prng.hpp"

namespace senids {
namespace {

std::string hex(const cache::Digest& d) {
  return util::to_hex(util::ByteView{d.data(), d.size()});
}

// ------------------------------------------------------------------ SHA-256

TEST(Sha256, Fips180KnownVectors) {
  EXPECT_EQ(hex(cache::Sha256::hash(util::as_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(cache::Sha256::hash(util::as_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(cache::Sha256::hash(util::as_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  cache::Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(util::as_bytes(chunk));
  EXPECT_EQ(hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalEqualsOneShot) {
  // Split points that exercise the buffering paths: mid-block, exactly at
  // a block boundary, and multi-block tails.
  const util::Bytes data = util::Prng(42).bytes(257);
  const cache::Digest whole = cache::Sha256::hash(data);
  for (std::size_t split : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                            std::size_t{65}, std::size_t{128}, std::size_t{200}}) {
    cache::Sha256 ctx;
    ctx.update(util::ByteView{data.data(), split});
    ctx.update(util::ByteView{data.data() + split, data.size() - split});
    EXPECT_EQ(ctx.finish(), whole) << "split at " << split;
  }
}

// -------------------------------------------------------------- fingerprint

cache::Digest fingerprint_of(const core::NidsOptions& options) {
  core::NidsEngine engine(options);
  return engine.config_fingerprint();
}

TEST(ConfigFingerprint, StableAcrossIdenticalEngines) {
  EXPECT_EQ(fingerprint_of(core::NidsOptions{}), fingerprint_of(core::NidsOptions{}));
}

TEST(ConfigFingerprint, ChangesWithTemplateSet) {
  core::NidsOptions options;
  core::NidsEngine standard(options);
  core::NidsEngine extended(options, semantic::make_extended_library());
  EXPECT_NE(standard.config_fingerprint(), extended.config_fingerprint());
}

TEST(ConfigFingerprint, ChangesWithVerdictAffectingOptions) {
  const cache::Digest base = fingerprint_of(core::NidsOptions{});

  core::NidsOptions emu;
  emu.enable_emulation = true;
  EXPECT_NE(fingerprint_of(emu), base);

  core::NidsOptions extract_all;
  extract_all.extractor.extract_all = true;
  EXPECT_NE(fingerprint_of(extract_all), base);

  core::NidsOptions confirm;
  confirm.confirm_decoders_by_emulation = true;
  EXPECT_NE(fingerprint_of(confirm), base);

  core::NidsOptions run;
  run.analyzer.min_run_insns = 7;
  EXPECT_NE(fingerprint_of(run), base);

  core::NidsOptions entries;
  entries.analyzer.max_entries = 16;
  EXPECT_NE(fingerprint_of(entries), base);

  core::NidsOptions trace;
  trace.analyzer.max_trace_insns = 512;
  EXPECT_NE(fingerprint_of(trace), base);

  core::NidsOptions budget;
  budget.analyzer.max_total_insns = 1234;
  EXPECT_NE(fingerprint_of(budget), base);
}

TEST(ConfigFingerprint, IgnoresCacheAndThreadingKnobs) {
  // Options that cannot change a unit's verdict must not invalidate the
  // key space: flipping the cache budget or the worker count between
  // deployments should keep keys comparable.
  const cache::Digest base = fingerprint_of(core::NidsOptions{});

  core::NidsOptions tuned;
  tuned.threads = 8;
  tuned.verdict_cache_bytes = 1 << 20;
  tuned.shards = 4;
  EXPECT_EQ(fingerprint_of(tuned), base);
}

TEST(ConfigFingerprint, HashTemplatesCoversStatementFields) {
  auto lib = semantic::make_standard_library();
  cache::Sha256 a, b;
  cache::hash_templates(a, lib);
  ASSERT_FALSE(lib.empty());
  ASSERT_FALSE(lib[0].stmts.empty());
  lib[0].stmts[0].width = 16;  // verdict-relevant tweak
  cache::hash_templates(b, lib);
  EXPECT_NE(a.finish(), b.finish());
}

// ----------------------------------------------------------- VerdictCache

cache::Digest key_of(std::uint64_t n) {
  return cache::Sha256::hash(util::ByteView{reinterpret_cast<const std::uint8_t*>(&n),
                                            sizeof n});
}

cache::Verdict verdict_of(std::uint64_t n, std::size_t name_len = 16) {
  cache::Verdict v;
  cache::CachedAlert a;
  a.threat = semantic::ThreatClass::kCustom;
  a.template_name = std::string(name_len, static_cast<char>('a' + n % 26));
  a.frame_offset = n;
  v.alerts.push_back(std::move(a));
  v.bytes_analyzed = 100 * n;
  return v;
}

TEST(VerdictCache, MissThenHitRoundTrips) {
  cache::VerdictCache c({1 << 20, 4});
  const cache::Digest k = key_of(7);
  EXPECT_FALSE(c.lookup(k).has_value());
  c.insert(k, verdict_of(7));
  auto got = c.lookup(k);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->alerts.size(), 1u);
  EXPECT_EQ(got->alerts[0].frame_offset, 7u);
  EXPECT_EQ(got->bytes_analyzed, 700u);

  const auto s = c.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(VerdictCache, DuplicateInsertKeepsFirstEntry) {
  cache::VerdictCache c({1 << 20, 1});
  const cache::Digest k = key_of(1);
  c.insert(k, verdict_of(1));
  c.insert(k, verdict_of(2));  // racing-worker scenario: first wins
  auto got = c.lookup(k);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->alerts[0].frame_offset, 1u);
  EXPECT_EQ(c.stats().insertions, 1u);
  EXPECT_EQ(c.stats().entries, 1u);
}

TEST(VerdictCache, ByteBudgetEvictsLeastRecentlyUsed) {
  // One shard so the LRU order is directly observable. Budget sized for
  // only a few entries.
  cache::VerdictCache c({2048, 1});
  std::vector<cache::Digest> keys;
  for (std::uint64_t i = 0; i < 64; ++i) {
    keys.push_back(key_of(i));
    c.insert(keys.back(), verdict_of(i));
  }
  const auto s = c.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, c.byte_budget());
  EXPECT_EQ(s.insertions - s.evictions, s.entries);
  // The most recently inserted key must have survived; the very first
  // must be long gone.
  EXPECT_TRUE(c.lookup(keys.back()).has_value());
  EXPECT_FALSE(c.lookup(keys.front()).has_value());
}

TEST(VerdictCache, LookupRefreshesRecency) {
  cache::VerdictCache c({2048, 1});
  const cache::Digest hot = key_of(1000);
  c.insert(hot, verdict_of(1000));
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(c.lookup(hot).has_value()) << "hot key evicted after " << i << " inserts";
    c.insert(key_of(i), verdict_of(i));
  }
  EXPECT_TRUE(c.lookup(hot).has_value());
}

TEST(VerdictCache, OversizedEntryIsNotAdmitted) {
  cache::VerdictCache c({512, 1});
  const cache::Digest k = key_of(5);
  c.insert(k, verdict_of(5, /*name_len=*/4096));
  EXPECT_FALSE(c.lookup(k).has_value());
  EXPECT_EQ(c.stats().insertions, 0u);
  EXPECT_EQ(c.stats().entries, 0u);
}

TEST(VerdictCache, ClearDropsEverything) {
  cache::VerdictCache c({1 << 20, 4});
  for (std::uint64_t i = 0; i < 32; ++i) c.insert(key_of(i), verdict_of(i));
  EXPECT_GT(c.stats().entries, 0u);
  c.clear();
  EXPECT_EQ(c.stats().entries, 0u);
  EXPECT_EQ(c.stats().bytes, 0u);
  EXPECT_FALSE(c.lookup(key_of(3)).has_value());
}

TEST(VerdictCache, DegenerateBudgetRejectsEverythingSafely) {
  // A budget below any entry's cost caches nothing — every lookup is a
  // miss, no entry is admitted, and nothing crashes.
  cache::VerdictCache c({1, 16});
  const cache::Digest k = key_of(9);
  c.insert(k, verdict_of(9, 4));
  EXPECT_FALSE(c.lookup(k).has_value());
  EXPECT_EQ(c.stats().insertions, 0u);
  EXPECT_EQ(c.stats().bytes, 0u);
}

}  // namespace
}  // namespace senids
