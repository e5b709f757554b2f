#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "util/bytes.hpp"
#include "util/hexdump.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"

namespace senids::util {
namespace {

// ------------------------------------------------------------------ bytes

TEST(Bytes, PutLittleEndian) {
  Bytes b;
  put_u8(b, 0x11);
  put_u16le(b, 0x2233);
  put_u32le(b, 0x44556677);
  ASSERT_EQ(b, (Bytes{0x11, 0x33, 0x22, 0x77, 0x66, 0x55, 0x44}));
}

TEST(Bytes, PutBigEndian) {
  Bytes b;
  put_u16be(b, 0x2233);
  put_u32be(b, 0x44556677);
  ASSERT_EQ(b, (Bytes{0x22, 0x33, 0x44, 0x55, 0x66, 0x77}));
}

TEST(Bytes, AsBytesViewsWithoutCopy) {
  std::string_view s = "abc";
  ByteView v = as_bytes(s);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 'a');
  EXPECT_EQ(static_cast<const void*>(v.data()), static_cast<const void*>(s.data()));
}

TEST(Bytes, ToStringRoundTrip) {
  Bytes b = to_bytes("hello");
  EXPECT_EQ(to_string(b), "hello");
}

TEST(Cursor, ReadsInOrder) {
  Bytes b{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  Cursor c{ByteView(b)};
  EXPECT_EQ(c.u8(), 0x01);
  EXPECT_EQ(c.u16le(), 0x0302);
  EXPECT_EQ(c.u16be(), 0x0405);
  EXPECT_EQ(c.remaining(), 2u);
  EXPECT_EQ(c.offset(), 5u);
}

TEST(Cursor, U32BothEndians) {
  Bytes b{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef};
  Cursor c{ByteView(b)};
  EXPECT_EQ(c.u32le(), 0xefbeaddeu);
  EXPECT_EQ(c.u32be(), 0xdeadbeefu);
}

TEST(Cursor, ThrowsOutOfBounds) {
  Bytes b{0x01};
  Cursor c{ByteView(b)};
  EXPECT_THROW(c.u16le(), OutOfBounds);
  EXPECT_EQ(c.u8(), 0x01);
  EXPECT_THROW(c.u8(), OutOfBounds);
}

TEST(Cursor, TakeAndRest) {
  Bytes b{1, 2, 3, 4, 5};
  Cursor c{ByteView(b)};
  ByteView head = c.take(2);
  ASSERT_EQ(head.size(), 2u);
  EXPECT_EQ(head[1], 2);
  EXPECT_EQ(c.rest().size(), 3u);
  EXPECT_THROW(c.take(4), OutOfBounds);
}

TEST(Cursor, PeekDoesNotConsume) {
  Bytes b{7};
  Cursor c{ByteView(b)};
  EXPECT_EQ(c.peek().value(), 7);
  EXPECT_EQ(c.peek().value(), 7);
  c.skip(1);
  EXPECT_FALSE(c.peek().has_value());
}

TEST(Hex, EncodeDecode) {
  Bytes b{0xde, 0xad, 0x00, 0xff};
  EXPECT_EQ(to_hex(b), "dead00ff");
  EXPECT_EQ(from_hex("dead00ff").value(), b);
  EXPECT_EQ(from_hex("DE AD 00 FF").value(), b);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd digit count
  EXPECT_FALSE(from_hex("zz").has_value());    // bad digit
  EXPECT_TRUE(from_hex("").has_value());       // empty is valid (empty bytes)
}

TEST(Hexdump, FormatsRows) {
  Bytes b = to_bytes("ABCDEFGHIJKLMNOPQR");
  std::string dump = hexdump(b);
  EXPECT_NE(dump.find("00000000"), std::string::npos);
  EXPECT_NE(dump.find("00000010"), std::string::npos);
  EXPECT_NE(dump.find("|ABCDEFGH"), std::string::npos);
  EXPECT_NE(dump.find("41 42 43"), std::string::npos);
}

TEST(Hexdump, NonPrintableAsDots) {
  Bytes b{0x00, 0x41, 0xff};
  std::string dump = hexdump(b);
  EXPECT_NE(dump.find("|.A.|"), std::string::npos);
}

// ------------------------------------------------------------------- prng

TEST(Prng, DeterministicForSeed) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Prng, BelowIsInRange) {
  Prng p(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 255ull, 1000000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(p.below(bound), bound);
  }
}

TEST(Prng, BelowCoversAllResidues) {
  Prng p(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(p.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Prng, RangeInclusive) {
  Prng p(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    std::int64_t v = p.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Prng, ChanceExtremes) {
  Prng p(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(p.chance(0.0));
    EXPECT_TRUE(p.chance(1.0));
  }
}

TEST(Prng, ChanceApproximatesProbability) {
  Prng p(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += p.chance(0.25);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.25, 0.03);
}

TEST(Prng, ShuffleIsPermutation) {
  Prng p(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  p.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(Prng, BytesLength) {
  Prng p(23);
  EXPECT_EQ(p.bytes(100).size(), 100u);
  EXPECT_TRUE(p.bytes(0).empty());
}

TEST(Prng, PickReturnsElement) {
  Prng p(29);
  std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    int x = p.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

// -------------------------------------------------------------------- log

TEST(Log, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::string> seen;
  Log::set_sink([&seen](LogLevel, const std::string& m) { seen.push_back(m); });
  Log::set_level(LogLevel::kWarn);
  log_debug() << "nope";
  log_warn() << "warn " << 42;
  log_error() << "err";
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::kOff);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "warn 42");
  EXPECT_EQ(seen[1], "err");
}

TEST(Log, SinkIsInvokedOutsideTheLoggerMutex) {
  // Regression for a thread-safety-audit finding: the sink used to run
  // with the logger mutex held, so a sink that re-entered the Log API
  // (logging from a log callback, or swapping the sink) self-deadlocked
  // on the non-recursive mutex. With the fix the sink is copied under
  // the lock and invoked outside it, so re-entry just works.
  static std::atomic<int> calls{0};
  calls.store(0);
  Log::set_level(LogLevel::kWarn);
  Log::set_sink([](LogLevel, const std::string&) {
    if (calls.fetch_add(1) == 0) {
      log_error() << "from inside the sink";  // re-enters Log::write
    }
  });
  log_error() << "outer";
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::kOff);
  EXPECT_EQ(calls.load(), 2);
}

}  // namespace
}  // namespace senids::util
