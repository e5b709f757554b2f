// Unit tests for the stage-0 triage prefilter: each screen probe in
// isolation (run statistics, GetPC idiom, template-literal automaton,
// PAYL spectrum), the escalation edge cases (empty unit, max-size unit,
// high-entropy benign data), the escalation guarantees over every attack
// generator, the <10% benign escalation budget, and the engine-level
// counter agreement (screened == escalated + rejected, and the verdict
// cache only ever sees escalated units).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "anomaly/payl.hpp"
#include "core/senids.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/mailworm.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"
#include "semantic/library.hpp"
#include "triage/triage.hpp"
#include "util/prng.hpp"

namespace senids::triage {
namespace {

using util::ByteView;
using util::Bytes;

TriageOptions on_options() {
  TriageOptions options;
  options.mode = TriageMode::kOn;
  return options;
}

TriageFilter make_filter(TriageOptions options = on_options(),
                         extract::ExtractorOptions extractor = {}) {
  return TriageFilter(std::move(options), extractor, semantic::make_standard_library());
}

std::string reason(const TriageDecision& d) {
  return std::string(triage_reason_name(d.reason));
}

Bytes text(std::string_view s) { return Bytes(s.begin(), s.end()); }

void append(Bytes& out, std::string_view s) { out.insert(out.end(), s.begin(), s.end()); }

// ------------------------------------------------------------ raw probes

TEST(Triage, EmptyUnitRejected) {
  const TriageFilter f = make_filter();
  const TriageDecision d = f.screen({});
  EXPECT_FALSE(d.escalate);
  EXPECT_EQ(reason(d), "empty-unit");
}

TEST(Triage, PlainTextRejectedAsNoFramesPossible) {
  const TriageFilter f = make_filter();
  const TriageDecision d = f.screen(util::as_bytes(
      "GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n"
      "Accept: text/html,*/*\r\nConnection: keep-alive\r\n\r\n"));
  EXPECT_FALSE(d.escalate);
  EXPECT_EQ(reason(d), "no-frames-possible");
}

TEST(Triage, RepetitionRunEscalates) {
  // An overflow-filler run (>= kMinRepetition identical bytes) that does
  // not reach the payload end is exactly what longest_repetition frames.
  const TriageFilter f = make_filter();
  Bytes payload(40, std::uint8_t{0x07});
  payload.push_back('!');
  const TriageDecision d = f.screen(payload);
  EXPECT_TRUE(d.escalate);
  EXPECT_EQ(reason(d), "repetition-run");
}

TEST(Triage, RepetitionRunAtPayloadEndIsNotAFrame) {
  // The extractor refuses a repetition frame that extends to the final
  // byte (overflow fillers precede a payload); the screen must mirror
  // that or it would escalate every zero-padded unit.
  const TriageFilter f = make_filter();
  const Bytes payload(40, std::uint8_t{0x07});
  const TriageDecision d = f.screen(payload);
  EXPECT_FALSE(d.escalate);
  // 0x07 is neither printable nor NOP-like: the run is a binary region,
  // i.e. a data-shaped frame with no code evidence.
  EXPECT_EQ(reason(d), "data-no-code-evidence");
}

TEST(Triage, NopSledEscalates) {
  // Alternating NOP-like bytes (0x40..0x5f) below the repetition
  // threshold: only the sled probe can fire.
  const TriageFilter f = make_filter();
  Bytes payload = text("some text then ");
  for (int i = 0; i < 8; ++i) {
    payload.push_back(0x41);
    payload.push_back(0x4f);
  }
  const TriageDecision d = f.screen(payload);
  EXPECT_TRUE(d.escalate);
  EXPECT_EQ(reason(d), "nop-sled");
}

TEST(Triage, SledBelowThresholdRejected) {
  const TriageFilter f = make_filter();
  Bytes payload = text("run: ");
  for (int i = 0; i < 11; ++i) payload.push_back(static_cast<std::uint8_t>(0x40 + i));
  payload.push_back('.');
  const TriageDecision d = f.screen(payload);
  EXPECT_FALSE(d.escalate);
  EXPECT_EQ(reason(d), "no-frames-possible");
}

TEST(Triage, GetPcCallEscalates) {
  const TriageFilter f = make_filter();
  // call -12: the classic jmp/call/pop GetPC displacement.
  const Bytes payload = {'p', 'a', 'd', 0xE8, 0xF4, 0xFF, 0xFF, 0xFF, 'p', 'a', 'd'};
  const TriageDecision d = f.screen(payload);
  EXPECT_TRUE(d.escalate);
  EXPECT_EQ(reason(d), "getpc-code");
}

TEST(Triage, HasGetPcCodeProbe) {
  EXPECT_TRUE(has_getpc_code(Bytes{0xE8, 0x00, 0x00, 0x00, 0x00}));       // call +0
  EXPECT_TRUE(has_getpc_code(Bytes{0xE8, 0xF4, 0xFF, 0xFF, 0xFF}));       // call -12
  EXPECT_TRUE(has_getpc_code(Bytes{0xE8, 0x00, 0x10, 0x00, 0x00}));       // call +0x1000
  EXPECT_FALSE(has_getpc_code(Bytes{0xE8, 0x01, 0x10, 0x00, 0x00}));      // just past
  EXPECT_FALSE(has_getpc_code(Bytes{0xE8, 0x00, 0x00, 0x10, 0x00}));      // megabytes away
  EXPECT_FALSE(has_getpc_code(Bytes{0xE8, 0xF4, 0xFF}));                  // truncated
  EXPECT_TRUE(has_getpc_code(Bytes{0xD9, 0x74, 0x24, 0xF4}));             // fnstenv [esp-12]
  EXPECT_FALSE(has_getpc_code(Bytes{0xD9, 0x74, 0x24, 0xF0}));
  EXPECT_FALSE(has_getpc_code({}));
}

TEST(Triage, ReturnRegionEscalates) {
  // Repeated plausible return-address dwords, little-endian, preceded by
  // non-address bytes so the region starts past offset 0.
  const TriageFilter f = make_filter();
  Bytes payload = text("prefix ");
  for (int i = 0; i < 8; ++i) {
    payload.push_back(0x00);
    payload.push_back(0xf0);
    payload.push_back(0xff);
    payload.push_back(0xbf);  // 0xbffff000, the classic stack address
  }
  const TriageDecision d = f.screen(payload);
  EXPECT_TRUE(d.escalate);
  EXPECT_EQ(reason(d), "return-region");
}

TEST(Triage, TemplateLiteralEscalates) {
  const TriageFilter f = make_filter();
  EXPECT_GT(f.literal_count(), 0u);
  // int 0x80 — the syscall byte pair every execve template needs.
  const TriageDecision d = f.screen(Bytes{'x', 0xCD, 0x80, 'y'});
  EXPECT_TRUE(d.escalate);
  EXPECT_EQ(reason(d), "literal-match");
  // "/bin" — the ebx_points_to string and kFixedConst immediate.
  const TriageDecision d2 = f.screen(util::as_bytes("exec /bin maybe"));
  EXPECT_TRUE(d2.escalate);
  EXPECT_EQ(reason(d2), "literal-match");
}

TEST(Triage, TemplateLiteralsFromStandardLibrary) {
  const auto lits = template_literals(semantic::make_standard_library());
  auto has = [&](const Bytes& needle) {
    for (const Bytes& l : lits) {
      if (l == needle) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(Bytes{0x2f, 0x62, 0x69, 0x6e}));  // "/bin" (LE 0x6e69622f)
  EXPECT_TRUE(has(Bytes{0xCD, 0x80}));              // int 0x80
  EXPECT_TRUE(has(Bytes{0xd3, 0xcb, 0x01, 0x78}));  // zlib-magic fixed const
  // Deduplicated: every literal appears once.
  for (std::size_t i = 1; i < lits.size(); ++i) EXPECT_NE(lits[i - 1], lits[i]);
}

// ------------------------------------------------ decode-then-screen

TEST(Triage, PercentEscapedCodeEscalatesAfterDecode) {
  // %XX escapes hiding a GetPC call: the raw bytes carry no probe hit,
  // the decoded bytes do. (decode_u_escapes handles %XX and %uXXXX.)
  const TriageFilter f = make_filter();
  Bytes payload = text("GET /a?x=");
  for (int i = 0; i < 2; ++i) append(payload, "%E8%F4%FF%FF%FF");
  append(payload, " HTTP/1.0");
  const TriageDecision d = f.screen(payload);
  EXPECT_TRUE(d.escalate);
  EXPECT_EQ(reason(d), "decoded-code-evidence");
}

TEST(Triage, PercentEscapedDataRejected) {
  // The same shape, but the escapes decode to inert text bytes: a
  // data-shaped unicode frame with no code evidence.
  const TriageFilter f = make_filter();
  Bytes payload = text("GET /a?x=");
  for (int i = 0; i < 10; ++i) append(payload, "%61%62%63");
  append(payload, " HTTP/1.0");
  const TriageDecision d = f.screen(payload);
  EXPECT_FALSE(d.escalate);
  EXPECT_EQ(reason(d), "data-no-code-evidence");
}

TEST(Triage, Base64WrappedShellcodeEscalatesAfterDecode) {
  // A mail-worm shaped unit: polymorphic shellcode only visible after
  // base64 decoding. The screen must decode exactly as the extractor
  // would and find the GetPC/sled evidence inside.
  util::Prng prng(77);
  const TriageFilter f = make_filter();
  for (int i = 0; i < 4; ++i) {
    const gen::MailWormSample worm = gen::make_email_worm(prng);
    const TriageDecision d = f.screen(worm.smtp_payload);
    EXPECT_TRUE(d.escalate) << reason(d);
  }
}

// ------------------------------------------------------ edge cases

TEST(Triage, MaxSizeUnitHandled) {
  // A 1 MB unit of one repeated byte: the identical run reaches the
  // payload end, so no repetition frame is possible; 0x00 is neither
  // printable nor NOP-like, so the run is one giant binary region.
  const TriageFilter f = make_filter();
  Bytes payload(1u << 20, std::uint8_t{0x00});
  const TriageDecision d = f.screen(payload);
  EXPECT_FALSE(d.escalate);
  EXPECT_EQ(reason(d), "data-no-code-evidence");

  // One trailing byte converts it into a frameable filler run.
  payload.push_back('X');
  const TriageDecision d2 = f.screen(payload);
  EXPECT_TRUE(d2.escalate);
  EXPECT_EQ(reason(d2), "repetition-run");
}

TEST(Triage, HighEntropyBenignDataRejected) {
  // gzip- and JPEG-shaped payloads (magic + uniform random bytes) are
  // data-shaped frames; with no embedded code the screen rejects them.
  // Fixed seeds keep the corpus free of coincidental GetPC/literal hits.
  const TriageFilter f = make_filter();
  util::Prng prng(4242);
  std::size_t rejected = 0;
  constexpr std::size_t kSamples = 32;
  for (std::size_t i = 0; i < kSamples; ++i) {
    Bytes payload = (i % 2) ? Bytes{0x1f, 0x8b, 0x08, 0x00} : Bytes{0xff, 0xd8};
    const Bytes noise = prng.bytes(1024);
    payload.insert(payload.end(), noise.begin(), noise.end());
    const TriageDecision d = f.screen(payload);
    if (!d.escalate) {
      EXPECT_EQ(reason(d), "data-no-code-evidence");
      ++rejected;
    }
  }
  // Coincidental code evidence in 1 KB of uniform bytes is rare (~2%
  // per sample); the overwhelming majority must be rejected.
  EXPECT_GE(rejected, kSamples - 4);
}

TEST(Triage, ExtractAllDisablesRejection) {
  // Extractor bypass mode frames every payload whole, so nothing can be
  // proven frame-free and the screen must escalate everything.
  extract::ExtractorOptions extractor;
  extractor.extract_all = true;
  const TriageFilter f = make_filter(on_options(), extractor);
  const TriageDecision d = f.screen(util::as_bytes("plain text"));
  EXPECT_TRUE(d.escalate);
  EXPECT_EQ(reason(d), "extract-all");
}

// ------------------------------------------- extractor minimums mirrored

/// `n` characters of the base64 alphabet, cycling a..z: lowercase only,
/// so no run of them is NOP-like or identical.
std::string b64_chars(std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<char>('a' + i % 26));
  return out;
}

/// Base64 text decoding to `n` bytes (n % 3 is 0 or 1), padded with line
/// breaks to at least extract::kMinBase64Encoded characters.
std::string b64_decoding_to(std::size_t n) {
  std::string out = b64_chars(n / 3 * 4) + (n % 3 == 1 ? "xA==" : "");
  while (out.size() < extract::kMinBase64Encoded) out += "\r\n";
  return out;
}

TEST(Triage, NoFramesVerdictAgreesWithExtractorAtEachMinimum) {
  // At each extractor minimum and one below it, the extractor forms a
  // frame exactly when the screen does not rule frames out. A screen
  // threshold that drifted from the extractor's would reject units that
  // form frames (lost alerts), or stop rejecting units that cannot.
  struct Case {
    const char* heuristic;
    std::size_t minimum;
    Bytes (*evidence)(std::size_t n);
  };
  const Case cases[] = {
      {"unicode escapes", extract::kMinUnicodeEscapes,
       [](std::size_t n) {
         Bytes out;
         for (std::size_t i = 0; i < n; ++i) append(out, "%u6162");
         return out;
       }},
      {"repetition", extract::kMinRepetition, [](std::size_t n) { return Bytes(n, 'z'); }},
      {"sled", extract::kMinSled, [](std::size_t n) { return Bytes(n, 0x90); }},
      {"binary region", extract::kMinBinaryRegion,
       [](std::size_t n) {
         Bytes out;
         for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<std::uint8_t>(0x80 + i));
         return out;
       }},
      {"return addresses", extract::kMinReturnAddresses,
       [](std::size_t n) {
         Bytes out;
         for (std::size_t i = 0; i < n; ++i) {
           out.push_back(static_cast<std::uint8_t>('a' + i));
           append(out, "xyw");
         }
         return out;
       }},
      {"base64 encoded", extract::kMinBase64Encoded,
       [](std::size_t n) { return text(b64_chars(n)); }},
      {"base64 decoded", extract::kMinBase64Decoded,
       [](std::size_t n) { return text(b64_decoding_to(n)); }},
  };
  const TriageFilter filter = make_filter();
  const extract::BinaryExtractor extractor;
  std::vector<extract::BinaryFrame> frames;
  for (const Case& c : cases) {
    for (const std::size_t n : {c.minimum - 1, c.minimum}) {
      SCOPED_TRACE(::testing::Message() << c.heuristic << " x " << n);
      // The evidence sits between plain words no heuristic fires on.
      Bytes payload = text("lorem ipsum dolor sit amet ");
      const Bytes evidence = c.evidence(n);
      payload.insert(payload.end(), evidence.begin(), evidence.end());
      append(payload, " consectetur adipiscing elit");
      extractor.extract(payload, frames);
      EXPECT_EQ(!frames.empty(), n >= c.minimum);
      EXPECT_EQ(reason(filter.screen(payload)) == "no-frames-possible", frames.empty());
    }
  }
}

// -------------------------------------------------------- PAYL spectrum

TEST(Triage, SpectrumAnomalyEscalates) {
  // Train a PAYL model on text-like payloads, then screen a payload with
  // a wildly different byte spectrum but no frame evidence at all: only
  // the spectrum probe can (and must) escalate it.
  auto payl = std::make_shared<anomaly::PaylDetector>(
      anomaly::PaylDetector::Options{.threshold = 16.0, .bucket_by_length = true});
  util::Prng prng(9);
  for (int i = 0; i < 16; ++i) {
    Bytes sample;
    for (int j = 0; j < 160; ++j) {
      sample.push_back(static_cast<std::uint8_t>('a' + prng.below(26)));
    }
    payl->train(sample, 80);
  }

  // Punctuation with no 4-byte period (a periodic pattern would read as
  // a repeated return-address dword), no '%', no base64 alphabet, no
  // NOP-like bytes, no long identical runs.
  static constexpr char kPunct[] = {'!', '#', '&', '(', ')', '*', ',', '-',
                                    '.', ':', ';', '<', '>', '?', '{', '}'};
  util::Prng punct_prng(17);
  Bytes odd;
  for (int i = 0; i < 160; ++i) {
    odd.push_back(static_cast<std::uint8_t>(kPunct[punct_prng.below(std::size(kPunct))]));
  }

  // Without a model the payload is provably frame-free.
  const TriageFilter plain = make_filter();
  EXPECT_EQ(reason(plain.screen(odd, 80)), "no-frames-possible");

  TriageOptions options;
  options.mode = TriageMode::kOn;
  options.spectrum = payl;
  const TriageFilter f = make_filter(std::move(options));
  const TriageDecision d = f.screen(odd, 80);
  EXPECT_TRUE(d.escalate);
  EXPECT_EQ(reason(d), "spectrum-anomaly");
  // An untrained port cell scores 0: the model stays silent and the
  // frame-free rejection resumes.
  EXPECT_EQ(reason(f.screen(odd, 8080)), "no-frames-possible");
}

TEST(Triage, ByteSpectrumSharedPrimitive) {
  // The triage spectrum screen and PAYL share one frequency routine.
  const auto spec = anomaly::byte_spectrum(util::as_bytes("aab"));
  EXPECT_DOUBLE_EQ(spec['a'], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(spec['b'], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(spec['c'], 0.0);
  const auto empty = anomaly::byte_spectrum({});
  for (double v : empty) EXPECT_EQ(v, 0.0);
}

// ------------------------------------------------- corpus guarantees

TEST(Triage, EveryAttackCorpusEscalates) {
  const TriageFilter f = make_filter();
  util::Prng prng(123);
  const auto corpus = gen::make_shell_spawn_corpus();
  for (const auto& sample : corpus) {
    EXPECT_TRUE(f.screen(sample.code).escalate) << sample.name;
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const auto adm = gen::admmutate_encode(corpus[i % corpus.size()].code, prng);
    EXPECT_TRUE(f.screen(adm.bytes).escalate) << "admmutate " << i;
    const auto clet = gen::clet_encode(corpus[i % corpus.size()].code, prng);
    EXPECT_TRUE(f.screen(clet.bytes).escalate) << "clet " << i;
  }
  EXPECT_TRUE(f.screen(gen::make_code_red_ii_request()).escalate);
  for (std::size_t i = 0; i < 8; ++i) {
    const auto worm = gen::make_email_worm(prng);
    EXPECT_TRUE(f.screen(worm.smtp_payload).escalate) << "mailworm " << i;
  }
}

TEST(Triage, BenignEscalationUnderTenPercent) {
  const TriageFilter f = make_filter();
  util::Prng prng(31337);
  constexpr std::size_t kSamples = 400;
  std::size_t escalated = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const auto p = gen::make_benign_payload(prng);
    if (f.screen(p.data, p.dst_port).escalate) ++escalated;
  }
  EXPECT_LT(escalated * 10, kSamples) << escalated << "/" << kSamples << " escalated";
}

TEST(Triage, SuspiciousBenignEscalatesWithoutAlerts) {
  // The escalate-on-doubt payloads: sled-lookalike ASCII banners must
  // escalate (a sled frame is possible), and none of the suspicious
  // kinds may ever produce an alert once fully analyzed.
  const TriageFilter f = make_filter();
  util::Prng prng(55);
  gen::TraceBuilder tb(55);
  const net::Endpoint client{net::Ipv4Addr::from_octets(198, 51, 100, 9), 40000};
  const net::Ipv4Addr server = net::Ipv4Addr::from_octets(10, 0, 0, 20);
  std::size_t sleds = 0;
  for (int i = 0; i < 48; ++i) {
    const auto p = gen::make_suspicious_benign_payload(prng);
    if (p.kind == gen::BenignKind::kAsciiSledLookalike) {
      ++sleds;
      const TriageDecision d = f.screen(p.data, p.dst_port);
      EXPECT_TRUE(d.escalate);
      // A banner shorter than kMinRepetition reads as a NOP-like sled; a
      // longer one is caught earlier as an overflow-filler run. Either
      // way it must escalate on a run probe, not slip to rejection.
      EXPECT_TRUE(reason(d) == "nop-sled" || reason(d) == "repetition-run") << reason(d);
    }
    tb.add_benign(client, server, p);
  }
  EXPECT_GT(sleds, 0u);

  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  options.triage.mode = TriageMode::kOn;
  core::NidsEngine nids(options);
  const core::Report report = nids.process_capture(tb.take());
  EXPECT_TRUE(report.alerts.empty());
  EXPECT_GT(report.stats.triage_escalated, 0u);
}

// -------------------------------------------------- engine agreement

TEST(Triage, EngineCountersAgree) {
  gen::TraceBuilder tb(88);
  const net::Endpoint client{net::Ipv4Addr::from_octets(198, 51, 100, 9), 40000};
  const net::Ipv4Addr server = net::Ipv4Addr::from_octets(10, 0, 0, 20);
  const auto corpus = gen::make_shell_spawn_corpus();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto adm = gen::admmutate_encode(corpus[i % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(client, net::Endpoint{server, 80}, adm.bytes);
  }
  for (int i = 0; i < 24; ++i) tb.add_benign(client, server, gen::make_benign_payload(tb.prng()));
  const pcap::Capture capture = tb.take();

  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  options.triage.mode = TriageMode::kOn;
  options.verdict_cache_bytes = 4u << 20;
  core::NidsEngine nids(options);
  ASSERT_NE(nids.triage_filter(), nullptr);
  const core::Report report = nids.process_capture(capture);
  const core::NidsStats& s = report.stats;

  // Every unit is screened; every screened unit is exactly one of
  // escalated / rejected.
  EXPECT_EQ(s.triage_screened, s.units_analyzed);
  EXPECT_EQ(s.triage_screened, s.triage_escalated + s.triage_rejected);
  EXPECT_GT(s.triage_rejected, 0u);
  EXPECT_GT(s.triage_escalated, 0u);
  // Rejected units never reach the verdict cache.
  EXPECT_EQ(s.cache_hits + s.cache_misses + s.cache_bypass,
            s.units_analyzed - s.triage_rejected);
  // The attacks still alert (ADMmutate decoders match the decryption-
  // loop template without needing emulation).
  EXPECT_FALSE(report.alerts.empty());
}

TEST(Triage, EngineOffModeTouchesNoCounters) {
  gen::TraceBuilder tb(89);
  const net::Endpoint client{net::Ipv4Addr::from_octets(198, 51, 100, 9), 40000};
  const net::Ipv4Addr server = net::Ipv4Addr::from_octets(10, 0, 0, 20);
  for (int i = 0; i < 8; ++i) tb.add_benign(client, server, gen::make_benign_payload(tb.prng()));

  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  core::NidsEngine nids(options);
  EXPECT_EQ(nids.triage_filter(), nullptr);
  const core::Report report = nids.process_capture(tb.take());
  EXPECT_EQ(report.stats.triage_screened, 0u);
  EXPECT_EQ(report.stats.triage_escalated, 0u);
  EXPECT_EQ(report.stats.triage_rejected, 0u);
}

TEST(Triage, ReportRendersTierTable) {
  gen::TraceBuilder tb(90);
  const net::Endpoint client{net::Ipv4Addr::from_octets(198, 51, 100, 9), 40000};
  const net::Ipv4Addr server = net::Ipv4Addr::from_octets(10, 0, 0, 20);
  for (int i = 0; i < 8; ++i) tb.add_benign(client, server, gen::make_benign_payload(tb.prng()));

  const pcap::Capture capture = tb.take();
  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  options.triage.mode = TriageMode::kOn;
  core::NidsEngine nids(options);
  const std::string rendered = nids.process_capture(capture).str();
  EXPECT_NE(rendered.find("triage tiers"), std::string::npos);
  EXPECT_NE(rendered.find("stage-0 rejected"), std::string::npos);
  EXPECT_NE(rendered.find("escalated"), std::string::npos);

  // A triage-off run renders no tier table.
  core::NidsOptions off;
  off.classifier.analyze_everything = true;
  core::NidsEngine nids_off(off);
  EXPECT_EQ(nids_off.process_capture(capture).str().find("triage tiers"),
            std::string::npos);
}

// ------------------------------------------------- SIMD/scalar equivalence

TEST(Triage, SimdAndScalarScansAgree) {
  // The stage-0 scan has an AVX2 block path (dispatched at runtime) and
  // a scalar fallback used for prologue, tail, short payloads, and
  // non-x86 builds. Every figure the screen consumes must be identical
  // between the two over adversarially mixed inputs: random bytes,
  // generator traffic, and payloads sized to straddle the 96-byte SIMD
  // threshold and the 32-byte block boundaries.
  util::Prng prng(2024);
  std::vector<Bytes> inputs;
  for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 95u, 96u, 97u, 127u, 128u, 129u, 4096u}) {
    Bytes r(n);
    for (auto& b : r) b = static_cast<std::uint8_t>(prng.below(256));
    inputs.push_back(std::move(r));
  }
  for (int i = 0; i < 200; ++i) {
    inputs.push_back(gen::make_benign_payload(prng).data);
  }
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(gen::make_email_worm(prng).smtp_payload);
    inputs.push_back(gen::make_suspicious_benign_payload(prng).data);
  }
  // Runs crossing block boundaries: sleds, filler, base64 of every phase.
  for (std::size_t off : {0u, 7u, 30u, 31u, 32u, 33u, 63u}) {
    Bytes p(off, std::uint8_t{'.'});
    p.insert(p.end(), 40, std::uint8_t{0x90});
    p.insert(p.end(), 50, std::uint8_t{0xCC});
    for (int k = 0; k < 100; ++k) p.push_back("ABCDabcd0123+/="[k % 15]);
    p.push_back('%');
    p.push_back(0xE8);
    inputs.push_back(std::move(p));
  }
  for (const Bytes& payload : inputs) {
    const detail::ScanProfile simd = detail::scan_profile(payload, true);
    const detail::ScanProfile scalar = detail::scan_profile(payload, false);
    EXPECT_EQ(simd.rep_len, scalar.rep_len) << payload.size();
    EXPECT_EQ(simd.rep_end, scalar.rep_end) << payload.size();
    EXPECT_EQ(simd.sled_len, scalar.sled_len) << payload.size();
    EXPECT_EQ(simd.b64_len, scalar.b64_len) << payload.size();
    EXPECT_EQ(simd.binary_len, scalar.binary_len) << payload.size();
    EXPECT_EQ(simd.percent, scalar.percent) << payload.size();
    EXPECT_EQ(simd.getpc_lead, scalar.getpc_lead) << payload.size();
  }
}

}  // namespace
}  // namespace senids::triage
