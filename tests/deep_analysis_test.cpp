// Integration tests for the emulation-backed deep-analysis stage: the
// encrypted payload's *behaviour* becomes visible once the decoder has
// run in the sandbox.
#include <gtest/gtest.h>

#include "core/senids.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/emitter.hpp"
#include "gen/traffic.hpp"

namespace senids::core {
namespace {

using net::Endpoint;
using net::Ipv4Addr;
using semantic::ThreatClass;

const Ipv4Addr kHoneypot = Ipv4Addr::from_octets(10, 0, 0, 7);
const Endpoint kAttacker{Ipv4Addr::from_octets(192, 0, 2, 66), 31337};

NidsEngine deep_engine() {
  NidsOptions options;
  options.enable_emulation = true;
  NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(kHoneypot);
  return nids;
}

bool has_alert(const Report& r, std::string_view name) {
  for (const Alert& a : r.alerts) {
    if (a.template_name == name) return true;
  }
  return false;
}

TEST(DeepAnalysis, EncryptedShellSpawnExposed) {
  // Static analysis alone sees only the decryption loop; with emulation
  // the execve behind the encryption surfaces too.
  gen::TraceBuilder tb(41);
  auto poly = gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(poly.bytes, tb.prng()));

  NidsOptions static_opts;
  NidsEngine static_engine(static_opts);
  static_engine.classifier().honeypots().add_decoy(kHoneypot);
  Report static_report = static_engine.process_capture(tb.capture());
  EXPECT_TRUE(static_report.detected(ThreatClass::kDecryptionLoop));
  EXPECT_FALSE(static_report.detected(ThreatClass::kShellSpawn));

  auto nids = deep_engine();
  Report deep_report = nids.process_capture(tb.capture());
  EXPECT_TRUE(deep_report.detected(ThreatClass::kDecryptionLoop));
  EXPECT_TRUE(deep_report.detected(ThreatClass::kShellSpawn));
  EXPECT_TRUE(has_alert(deep_report, "emulated:spawned-shell"));
  EXPECT_GT(deep_report.stats.frames_emulated, 0u);
  EXPECT_GT(deep_report.stats.emulated_steps, 0u);
}

TEST(DeepAnalysis, DecodedFrameMatchesStaticTemplates) {
  // The second static pass over the decoded frame fires the shell-spawn
  // *template* (not just the behavioural check).
  gen::TraceBuilder tb(42);
  auto poly = gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(poly.bytes, tb.prng()));
  auto nids = deep_engine();
  Report report = nids.process_capture(tb.capture());
  bool decoded_template_hit = false;
  for (const Alert& a : report.alerts) {
    if (a.frame_reason == extract::FrameReason::kEmulatedDecode &&
        a.threat == ThreatClass::kShellSpawn) {
      decoded_template_hit = true;
    }
  }
  EXPECT_TRUE(decoded_template_hit);
}

TEST(DeepAnalysis, EncryptedBindShellExposed) {
  gen::TraceBuilder tb(43);
  auto poly = gen::admmutate_encode(gen::make_shell_spawn_corpus()[8].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(poly.bytes, tb.prng()));
  auto nids = deep_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(ThreatClass::kPortBindShell));
}

TEST(DeepAnalysis, CletInstanceExposed) {
  gen::TraceBuilder tb(44);
  auto clet = gen::clet_encode(gen::make_shell_spawn_corpus()[1].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(clet.bytes, tb.prng()));
  auto nids = deep_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn));
}

TEST(DeepAnalysis, SweepOverSeeds) {
  for (std::uint64_t seed = 50; seed < 62; ++seed) {
    gen::TraceBuilder tb(seed);
    auto poly = gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, tb.prng());
    tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                    gen::wrap_in_overflow(poly.bytes, tb.prng()));
    auto nids = deep_engine();
    Report report = nids.process_capture(tb.capture());
    EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn)) << "seed " << seed;
  }
}

TEST(DeepAnalysis, BenignTrafficStaysClean) {
  gen::TraceBuilder tb(45);
  const Endpoint client{Ipv4Addr::from_octets(198, 51, 100, 1), 40000};
  for (int i = 0; i < 10; ++i) {
    // Aim benign traffic at the honeypot so it reaches the emulator.
    tb.add_tcp_flow(client, Endpoint{kHoneypot, 80},
                    gen::make_benign_payload(tb.prng()).data);
  }
  auto nids = deep_engine();
  Report report = nids.process_capture(tb.capture());
  EXPECT_FALSE(has_alert(report, "emulated:spawned-shell"));
  EXPECT_FALSE(has_alert(report, "emulated:bound-port"));
}

TEST(DeepAnalysis, DoubleEncodedPayloadPeeled) {
  // Layered polymorphism: an ADMmutate instance encrypted again by a
  // second ADMmutate pass. Static analysis sees only the outer decoder;
  // the emulator executes outer decoder -> inner decoder -> payload, so
  // the execve still surfaces.
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    util::Prng prng(seed);
    auto inner = gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, prng);
    auto outer = gen::admmutate_encode(inner.bytes, prng);

    gen::TraceBuilder tb(seed);
    tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                    gen::wrap_in_overflow(outer.bytes, tb.prng()));
    auto nids = deep_engine();
    Report report = nids.process_capture(tb.capture());
    EXPECT_TRUE(report.detected(ThreatClass::kDecryptionLoop)) << seed;
    EXPECT_TRUE(report.detected(ThreatClass::kShellSpawn)) << seed;
  }
}

TEST(DeepAnalysis, DisabledByDefault) {
  NidsOptions options;
  EXPECT_FALSE(options.enable_emulation);
  NidsEngine nids(options);
  gen::TraceBuilder tb(46);
  auto poly = gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, tb.prng());
  Alert meta;
  NidsStats stats;
  AnalysisContext ctx = nids.make_analysis_context();
  nids.analyze_payload(ctx, poly.bytes, meta, &stats);
  EXPECT_EQ(stats.frames_emulated, 0u);
}

}  // namespace
}  // namespace senids::core

namespace senids::core {
namespace {

TEST(DeepAnalysis, ConfirmationKeepsRealDecoders) {
  NidsOptions options;
  options.classifier.analyze_everything = true;
  options.confirm_decoders_by_emulation = true;
  NidsEngine nids(options);
  core::Alert meta;
  AnalysisContext ctx = nids.make_analysis_context();
  auto alerts = nids.analyze_payload(ctx, gen::make_iis_asp_overflow_payload(), meta);
  bool decoder = false;
  for (const auto& a : alerts) {
    if (a.threat == ThreatClass::kDecryptionLoop) decoder = true;
  }
  EXPECT_TRUE(decoder);
}

TEST(DeepAnalysis, ConfirmationKeepsPolymorphicInstances) {
  NidsOptions options;
  options.classifier.analyze_everything = true;
  options.confirm_decoders_by_emulation = true;
  NidsEngine nids(options);
  AnalysisContext ctx = nids.make_analysis_context();
  for (std::uint64_t seed = 600; seed < 610; ++seed) {
    util::Prng prng(seed);
    auto poly = gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, prng);
    core::Alert meta;
    auto alerts = nids.analyze_payload(ctx, gen::wrap_in_overflow(poly.bytes, prng), meta);
    bool decoder = false;
    for (const auto& a : alerts) {
      if (a.threat == ThreatClass::kDecryptionLoop) decoder = true;
    }
    EXPECT_TRUE(decoder) << seed;
  }
}

TEST(DeepAnalysis, ConfirmationDropsNonExecutingShape) {
  // A bare decoder-shaped snippet whose pointer register is never set:
  // statically it matches, but in the sandbox it faults without decoding
  // anything — confirmation must drop the alert.
  gen::Asm a;
  auto head = a.new_label();
  a.mov_r32_imm32(gen::R32::ecx, 8);
  a.bind(head);
  a.xor_mem8_imm8(gen::R32::esi, 0x42);  // esi = 0 in the sandbox: unmapped
  a.inc_r32(gen::R32::esi);
  a.loop_(head);
  util::Bytes code = a.finish();
  // Pad so the extractor sees a binary region.
  util::Bytes payload(32, 0x90);
  payload.insert(payload.end(), code.begin(), code.end());
  payload.insert(payload.end(), 32, 0xCC);

  NidsOptions plain;
  plain.classifier.analyze_everything = true;
  NidsEngine static_engine(plain);
  core::Alert meta;
  AnalysisContext static_ctx = static_engine.make_analysis_context();
  auto static_alerts = static_engine.analyze_payload(static_ctx, payload, meta);
  bool static_decoder = false;
  for (const auto& al : static_alerts) {
    if (al.threat == ThreatClass::kDecryptionLoop) static_decoder = true;
  }
  ASSERT_TRUE(static_decoder);  // precondition: statically it looks real

  NidsOptions confirming = plain;
  confirming.confirm_decoders_by_emulation = true;
  NidsEngine confirming_engine(confirming);
  AnalysisContext confirming_ctx = confirming_engine.make_analysis_context();
  auto confirmed_alerts = confirming_engine.analyze_payload(confirming_ctx, payload, meta);
  for (const auto& al : confirmed_alerts) {
    EXPECT_NE(al.threat, ThreatClass::kDecryptionLoop);
  }
}

}  // namespace
}  // namespace senids::core
