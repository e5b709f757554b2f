#include <gtest/gtest.h>

#include "one_shot.hpp"
#include "extract/extractor.hpp"
#include "extract/heuristics.hpp"
#include "extract/http.hpp"
#include "extract/unicode.hpp"
#include "gen/codered.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"

namespace senids::extract {
namespace {

using util::ByteView;
using util::Bytes;

// ---------------------------------------------------------------- unicode

TEST(Unicode, DecodesUEscapesLittleEndian) {
  auto r = decode_u_escapes(util::as_bytes("%u9090%u6858"));
  EXPECT_EQ(r.escape_count, 2u);
  EXPECT_EQ(r.decoded, (Bytes{0x90, 0x90, 0x58, 0x68}));
  EXPECT_EQ(r.first_offset, 0u);
}

TEST(Unicode, DecodesPercentXX) {
  auto r = decode_u_escapes(util::as_bytes("ab%41%42cd"));
  EXPECT_EQ(r.escape_count, 2u);
  EXPECT_EQ(r.decoded, (Bytes{0x41, 0x42}));
  EXPECT_EQ(r.first_offset, 2u);
}

TEST(Unicode, MixedCaseHex) {
  auto r = decode_u_escapes(util::as_bytes("%uCBd3"));
  EXPECT_EQ(r.decoded, (Bytes{0xd3, 0xcb}));
}

TEST(Unicode, SkipsMalformedEscapes) {
  auto r = decode_u_escapes(util::as_bytes("%uZZZZ%u12"));
  EXPECT_EQ(r.escape_count, 0u);
  EXPECT_TRUE(r.decoded.empty());
}

TEST(Unicode, CodeRedBodyDecodesToPushTrampoline) {
  auto req = gen::make_code_red_ii_request();
  auto r = decode_u_escapes(req);
  ASSERT_GE(r.decoded.size(), 8u);
  // 90 90 58 68 d3 cb 01 78 : nop nop pop eax push 0x7801cbd3
  EXPECT_EQ(r.decoded[0], 0x90);
  EXPECT_EQ(r.decoded[2], 0x58);
  EXPECT_EQ(r.decoded[3], 0x68);
  EXPECT_EQ(r.decoded[4], 0xd3);
  EXPECT_EQ(r.decoded[7], 0x78);
}

TEST(Unicode, EmptyInput) {
  Bytes empty;
  auto r = decode_u_escapes(empty);
  EXPECT_EQ(r.escape_count, 0u);
}

// ------------------------------------------------------------- heuristics

TEST(Heuristics, LongestRepetitionFindsXFiller) {
  std::string s = "GET /x?" + std::string(100, 'X') + "tail";
  auto run = longest_repetition(util::as_bytes(s), 32);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->offset, 7u);
  EXPECT_EQ(run->length, 100u);
}

TEST(Heuristics, RepetitionBelowThresholdIgnored) {
  std::string s = "aaaa bbbb cccc";
  EXPECT_FALSE(longest_repetition(util::as_bytes(s), 8).has_value());
}

TEST(Heuristics, RepetitionPicksLongest) {
  std::string s = std::string(10, 'A') + "x" + std::string(20, 'B');
  auto run = longest_repetition(util::as_bytes(s), 5);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->length, 20u);
  EXPECT_EQ(run->offset, 11u);
}

TEST(Heuristics, NopSledClassic) {
  Bytes b(40, 0x90);
  auto run = longest_nop_sled(b, 12);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->length, 40u);
}

TEST(Heuristics, NopSledVariant) {
  util::Prng prng(5);
  Bytes sled = gen::make_nop_sled(prng, 32);
  auto run = longest_nop_sled(sled, 12);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->length, 32u);
}

TEST(Heuristics, NopSledBrokenByOtherBytes) {
  Bytes b(10, 0x90);
  b.push_back(0xCC);
  b.insert(b.end(), 10, 0x90);
  EXPECT_FALSE(longest_nop_sled(b, 12).has_value());
}

TEST(Heuristics, IsNopLikeMembers) {
  EXPECT_TRUE(is_nop_like(0x90));
  EXPECT_TRUE(is_nop_like(0x40));  // inc eax
  EXPECT_TRUE(is_nop_like(0xF8));  // clc
  EXPECT_FALSE(is_nop_like(0xCC)); // int3
  EXPECT_FALSE(is_nop_like(0x00));
}

TEST(Heuristics, BinaryRegionInTextPayload) {
  std::string payload = "Content-Type: text/html\r\n\r\n";
  Bytes data = util::to_bytes(payload);
  for (int i = 0; i < 64; ++i) data.push_back(static_cast<std::uint8_t>(0x80 + i));
  data.insert(data.end(), {'e', 'n', 'd'});
  auto run = longest_binary_region(data, 24);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->offset, payload.size());
  EXPECT_EQ(run->length, 64u);
}

TEST(Heuristics, BinaryRegionToleratesSmallPrintableGaps) {
  Bytes data;
  for (int i = 0; i < 20; ++i) data.push_back(0x90);
  data.insert(data.end(), {'a', 'b'});  // 2-byte printable gap
  for (int i = 0; i < 20; ++i) data.push_back(0x91);
  auto run = longest_binary_region(data, 24, /*max_printable_gap=*/4);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->length, 42u);
}

TEST(Heuristics, PureTextHasNoBinaryRegion) {
  std::string s(500, 'a');
  EXPECT_FALSE(longest_binary_region(util::as_bytes(s), 24).has_value());
}

// ------------------------------------------------------------------- http

TEST(Http, ParsesSimpleGet) {
  auto req = parse_http_request(
      util::as_bytes("GET /index.html HTTP/1.1\r\nHost: x.example\r\n\r\nBODY"));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/index.html");
  EXPECT_EQ(req->version, "HTTP/1.1");
  ASSERT_EQ(req->headers.size(), 1u);
  EXPECT_EQ(req->headers[0].first, "Host");
  EXPECT_EQ(req->headers[0].second, "x.example");
}

TEST(Http, BodyOffsetPointsPastHeaders) {
  std::string text = "POST /a HTTP/1.0\r\nContent-Length: 4\r\n\r\nBODY";
  auto req = parse_http_request(util::as_bytes(text));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(text.substr(req->body_offset), "BODY");
}

TEST(Http, RejectsNonHttp) {
  EXPECT_FALSE(parse_http_request(util::as_bytes("EHLO mail.example\r\n")).has_value());
  EXPECT_FALSE(parse_http_request(util::as_bytes("\x90\x90\x90")).has_value());
  EXPECT_FALSE(parse_http_request(util::as_bytes("GET")).has_value());
}

TEST(Http, ParsesCodeRedRequestLine) {
  auto req = parse_http_request(gen::make_code_red_ii_request());
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_NE(req->target.find("/default.ida?"), std::string::npos);
  EXPECT_EQ(req->version, "HTTP/1.0");
}

TEST(Http, ToleratesMissingVersion) {
  auto req = parse_http_request(util::as_bytes("GET /legacy\r\n\r\n"));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->target, "/legacy");
  EXPECT_TRUE(req->version.empty());
}

// -------------------------------------------------------------- extractor

TEST(Extractor, PrunesPlainText) {
  BinaryExtractor ex;
  EXPECT_TRUE(
      test::extract(ex, util::as_bytes("GET / HTTP/1.1\r\nHost: a\r\n\r\n")).empty());
}

TEST(Extractor, ExtractsUnicodeFrame) {
  BinaryExtractor ex;
  auto frames = test::extract(ex, gen::make_code_red_ii_request());
  bool found = false;
  for (const auto& f : frames) {
    if (f.reason == FrameReason::kUnicodeDecoded) {
      found = true;
      EXPECT_GE(f.data.size(), 16u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Extractor, ExtractsAfterRepetition) {
  std::string payload = "HEAD /cgi?" + std::string(64, 'A') + "BINARYPART";
  BinaryExtractor ex;
  auto frames = test::extract(ex, util::as_bytes(payload));
  bool found = false;
  for (const auto& f : frames) {
    if (f.reason == FrameReason::kAfterRepetition) {
      found = true;
      EXPECT_EQ(util::to_string(f.data), "BINARYPART");
    }
  }
  EXPECT_TRUE(found);
}

TEST(Extractor, ExtractsNopSledFrame) {
  util::Prng prng(9);
  Bytes payload = util::to_bytes("some protocol preamble ");
  const std::size_t sled_at = payload.size();
  Bytes sled = gen::make_nop_sled(prng, 24);
  payload.insert(payload.end(), sled.begin(), sled.end());
  payload.insert(payload.end(), {0xCD, 0x80});
  BinaryExtractor ex;
  auto frames = test::extract(ex, payload);
  bool found = false;
  for (const auto& f : frames) {
    if (f.reason == FrameReason::kNopSled) {
      found = true;
      EXPECT_EQ(f.src_offset, sled_at);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Extractor, ExtractAllBypassMode) {
  ExtractorOptions opts;
  opts.extract_all = true;
  BinaryExtractor ex(opts);
  auto frames = test::extract(ex, util::as_bytes("just text"));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].reason, FrameReason::kWholePayload);
  EXPECT_EQ(frames[0].data.size(), 9u);
}

TEST(Extractor, EmptyPayloadNoFrames) {
  BinaryExtractor ex;
  Bytes empty;
  EXPECT_TRUE(test::extract(ex, empty).empty());
  ExtractorOptions opts;
  opts.extract_all = true;
  EXPECT_TRUE(test::extract(BinaryExtractor(opts), empty).empty());
}

TEST(Extractor, FrameReasonNames) {
  EXPECT_EQ(frame_reason_name(FrameReason::kUnicodeDecoded), "unicode-decoded");
  EXPECT_EQ(frame_reason_name(FrameReason::kWholePayload), "whole-payload");
}

}  // namespace
}  // namespace senids::extract

namespace senids::extract {
namespace {

TEST(Heuristics, ReturnRegionDetectsVariedLowBytes) {
  // Eight return addresses 0xbffff0XX with differing low bytes.
  Bytes payload = util::to_bytes("shellcode-bytes-here....");
  const std::size_t region_at = payload.size();
  for (int i = 0; i < 8; ++i) {
    util::put_u32le(payload, 0xbffff000u | static_cast<std::uint32_t>(i * 7 + 1));
  }
  auto run = longest_return_region(payload, 6);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->offset, region_at);
  EXPECT_EQ(run->length, 32u);
}

TEST(Heuristics, ReturnRegionIgnoresPureRepetition) {
  // An 'AAAA...' filler is the repetition heuristic's case, not ours.
  Bytes payload(64, 'A');
  EXPECT_FALSE(longest_return_region(payload, 6).has_value());
}

TEST(Heuristics, ReturnRegionBelowThresholdIgnored) {
  Bytes payload = util::to_bytes("xx");
  for (int i = 0; i < 4; ++i) {
    util::put_u32le(payload, 0x08040000u | static_cast<std::uint32_t>(i));
  }
  EXPECT_FALSE(longest_return_region(payload, 6).has_value());
}

TEST(Heuristics, ReturnRegionHandlesUnalignedPhase) {
  Bytes payload = util::to_bytes("zzz");  // 3-byte prefix: region at phase 3
  for (int i = 0; i < 7; ++i) {
    util::put_u32le(payload, 0x0804fe00u | static_cast<std::uint32_t>(i));
  }
  auto run = longest_return_region(payload, 6);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->offset, 3u);
}

TEST(Extractor, ReturnRegionFrameCarriesPrecedingBytes) {
  util::Prng prng(31);
  auto wire = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[1].code, prng);
  BinaryExtractor extractor;
  bool found = false;
  for (const auto& f : test::extract(extractor, wire)) {
    if (f.reason == FrameReason::kReturnRegion) {
      found = true;
      EXPECT_EQ(f.src_offset, 0u);
      EXPECT_LT(f.data.size(), wire.size());
      EXPECT_GT(f.data.size(), 32u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace senids::extract
