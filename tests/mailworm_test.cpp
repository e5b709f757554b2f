// Email-worm path: base64 decoding, MIME attachment extraction, and
// end-to-end detection of a polymorphic worm attachment over SMTP.
#include <gtest/gtest.h>

#include "core/senids.hpp"
#include "extract/base64.hpp"
#include "gen/mailworm.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"

namespace senids {
namespace {

using util::Bytes;

// ----------------------------------------------------------------- base64

TEST(Base64, DecodeKnownVectors) {
  EXPECT_EQ(extract::base64_decode("aGVsbG8=").value(), util::to_bytes("hello"));
  EXPECT_EQ(extract::base64_decode("aGVsbG8h").value(), util::to_bytes("hello!"));
  EXPECT_EQ(extract::base64_decode("aA==").value(), util::to_bytes("h"));
  EXPECT_EQ(extract::base64_decode("").value(), Bytes{});
}

TEST(Base64, DecodeIgnoresLineBreaks) {
  EXPECT_EQ(extract::base64_decode("aGVs\r\nbG8=").value(), util::to_bytes("hello"));
}

TEST(Base64, DecodeRejectsGarbage) {
  EXPECT_FALSE(extract::base64_decode("a*b=").has_value());
  EXPECT_FALSE(extract::base64_decode("abc").has_value());      // truncated quantum
  EXPECT_FALSE(extract::base64_decode("aA==bb").has_value());   // data after padding
}

TEST(Base64, RoundTripThroughGenerator) {
  util::Prng prng(1);
  auto worm = gen::make_email_worm(prng);
  auto region = extract::find_base64_region(worm.smtp_payload);
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(region->decoded, worm.attachment);
}

TEST(Base64, FindRegionIgnoresShortRuns) {
  // Ordinary prose: words are base64-alphabet but too short.
  std::string text = "the quick brown fox jumps over the lazy dog again and again";
  EXPECT_FALSE(extract::find_base64_region(util::as_bytes(text)).has_value());
}

TEST(Base64, FindRegionTrimsTrailingRemainder) {
  // A valid region followed directly by extra alphabet chars that break
  // the 4-char quantum: the finder must still recover the prefix.
  util::Prng prng(2);
  auto worm = gen::make_email_worm(prng);
  Bytes payload = worm.smtp_payload;
  // Find region and verify decodability was not destroyed by SMTP tail.
  auto region = extract::find_base64_region(payload);
  ASSERT_TRUE(region.has_value());
  EXPECT_GE(region->decoded.size(), 64u);
}

// ------------------------------------------------------------- extraction

TEST(MailWorm, ExtractorEmitsBase64Frame) {
  util::Prng prng(3);
  auto worm = gen::make_email_worm(prng);
  extract::BinaryExtractor extractor;
  auto frames = extractor.extract(worm.smtp_payload);
  bool found = false;
  for (const auto& f : frames) {
    if (f.reason == extract::FrameReason::kBase64Decoded) {
      found = true;
      EXPECT_EQ(f.data, worm.attachment);
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------ end to end

TEST(MailWorm, DetectedOverSmtp) {
  gen::TraceBuilder tb(71);
  auto worm = gen::make_email_worm(tb.prng());
  const net::Endpoint sender{net::Ipv4Addr::from_octets(203, 0, 113, 50), 3456};
  const net::Endpoint mx{net::Ipv4Addr::from_octets(10, 0, 0, 25), 25};
  tb.add_tcp_flow(sender, mx, worm.smtp_payload);

  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  core::NidsEngine nids(options);
  core::Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(semantic::ThreatClass::kDecryptionLoop));
  bool base64_frame = false;
  for (const auto& a : report.alerts) {
    if (a.frame_reason == extract::FrameReason::kBase64Decoded) base64_frame = true;
  }
  EXPECT_TRUE(base64_frame);
}

TEST(MailWorm, DeepAnalysisSeesShellBehindAttachment) {
  gen::TraceBuilder tb(72);
  auto worm = gen::make_email_worm(tb.prng());
  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  options.enable_emulation = true;
  core::NidsEngine nids(options);
  const net::Endpoint sender{net::Ipv4Addr::from_octets(203, 0, 113, 50), 3456};
  const net::Endpoint mx{net::Ipv4Addr::from_octets(10, 0, 0, 25), 25};
  tb.add_tcp_flow(sender, mx, worm.smtp_payload);
  core::Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(semantic::ThreatClass::kShellSpawn));
}

TEST(MailWorm, NonPolymorphicAttachmentAlsoDetected) {
  util::Prng prng(73);
  gen::MailWormOptions opts;
  opts.polymorphic = false;  // plain shellcode attachment
  // Use the (larger) bind-shell payload so the attachment clears the
  // base64 frame-size threshold.
  auto binder = gen::make_shell_spawn_corpus()[8].code;
  auto worm = gen::make_email_worm(prng, binder, opts);
  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  core::NidsEngine nids(options);
  core::Alert meta;
  core::AnalysisContext ctx = nids.make_analysis_context();
  auto alerts = nids.analyze_payload(ctx, worm.smtp_payload, meta);
  bool shell = false;
  for (const auto& a : alerts) {
    if (a.threat == semantic::ThreatClass::kShellSpawn) shell = true;
  }
  EXPECT_TRUE(shell);
}

TEST(MailWorm, BenignEmailStaysClean) {
  util::Prng prng(74);
  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  options.enable_emulation = true;
  core::NidsEngine nids(options);
  core::AnalysisContext ctx = nids.make_analysis_context();
  for (int i = 0; i < 10; ++i) {
    auto mail = gen::make_benign_email(prng);
    core::Alert meta;
    EXPECT_TRUE(nids.analyze_payload(ctx, mail, meta).empty()) << i;
  }
}

TEST(MailWorm, SamplesVaryAcrossSeeds) {
  util::Prng p1(1), p2(2);
  EXPECT_NE(gen::make_email_worm(p1).attachment, gen::make_email_worm(p2).attachment);
}

}  // namespace
}  // namespace senids
