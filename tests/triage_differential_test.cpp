// Differential harness for stage-0 triage: every generator corpus is run
// through a triage-off engine and a triage-on engine over the *same*
// capture, across the full deployment matrix — threads {1,4} x shards
// {1,4} x verdict-cache {off,on} — and the sorted alert lists must be
// identical in every field. This is the prefilter's correctness
// contract: rejecting a unit at stage 0 must be indistinguishable from
// fully analyzing it and finding nothing, under every execution shape
// the engine supports.
#include <gtest/gtest.h>

#include <vector>

#include "arch/arch.hpp"
#include "core/senids.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/mailworm.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/shellcode64.hpp"
#include "gen/traffic.hpp"

namespace senids::core {
namespace {

using net::Endpoint;
using net::Ipv4Addr;
using semantic::ThreatClass;

const Ipv4Addr kServer = Ipv4Addr::from_octets(10, 0, 0, 20);
const Endpoint kClient{Ipv4Addr::from_octets(198, 51, 100, 10), 45000};

constexpr ThreatClass kAllThreats[] = {
    ThreatClass::kDecryptionLoop, ThreatClass::kShellSpawn,
    ThreatClass::kPortBindShell,  ThreatClass::kReverseShell,
    ThreatClass::kCodeRedII,      ThreatClass::kCustom,
};

Endpoint attacker(std::size_t i) {
  return Endpoint{Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(10 + i)),
                  static_cast<std::uint16_t>(30000 + i)};
}

struct MatrixPoint {
  std::size_t threads;
  std::size_t shards;
  bool cache;
};

constexpr MatrixPoint kMatrix[] = {
    {1, 1, false}, {1, 1, true}, {1, 4, false}, {1, 4, true},
    {4, 1, false}, {4, 1, true}, {4, 4, false}, {4, 4, true},
};

NidsEngine make_engine(triage::TriageMode mode, const MatrixPoint& p,
                       const arch::Arch* arch = nullptr) {
  NidsOptions options;
  options.arch = arch;
  options.classifier.analyze_everything = true;
  options.threads = p.threads;
  options.shards = p.shards;
  options.verdict_cache_bytes = p.cache ? (8u << 20) : 0;
  options.triage.mode = mode;
  return NidsEngine(options);
}

void expect_alerts_equal(const std::vector<Alert>& a, const std::vector<Alert>& b,
                         const MatrixPoint& p) {
  ASSERT_EQ(a.size(), b.size()) << "threads=" << p.threads << " shards=" << p.shards
                                << " cache=" << p.cache;
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

/// The harness: for every matrix point, a triage-on engine and a
/// triage-off engine must produce identical sorted alert lists and
/// identical per-threat detections over `capture`.
void expect_triage_lossless(const pcap::Capture& capture,
                            const arch::Arch* arch = nullptr) {
  for (const MatrixPoint& p : kMatrix) {
    NidsEngine off = make_engine(triage::TriageMode::kOff, p, arch);
    NidsEngine on = make_engine(triage::TriageMode::kOn, p, arch);
    const Report r_off = off.process_capture(capture);
    const Report r_on = on.process_capture(capture);

    expect_alerts_equal(r_off.alerts, r_on.alerts, p);
    for (ThreatClass t : kAllThreats) {
      EXPECT_EQ(r_off.detected(t), r_on.detected(t))
          << semantic::threat_class_name(t) << " threads=" << p.threads
          << " shards=" << p.shards << " cache=" << p.cache;
    }
    // Rejection skips work, not units: both engines account every unit.
    EXPECT_EQ(r_off.stats.units_analyzed, r_on.stats.units_analyzed);
    // Triage-off engines must not touch the tier counters at all.
    EXPECT_EQ(r_off.stats.triage_screened, 0u);
    // Triage-on invariants: everything screened, two-way split, and the
    // cache only ever sees escalated units.
    EXPECT_EQ(r_on.stats.triage_screened, r_on.stats.units_analyzed);
    EXPECT_EQ(r_on.stats.triage_screened,
              r_on.stats.triage_escalated + r_on.stats.triage_rejected);
    if (p.cache) {
      EXPECT_EQ(r_on.stats.cache_hits + r_on.stats.cache_misses + r_on.stats.cache_bypass,
                r_on.stats.units_analyzed - r_on.stats.triage_rejected);
    }
  }
}

// ------------------------------------------------------------- corpora

pcap::Capture admmutate_corpus(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::make_shell_spawn_corpus();
  for (std::size_t i = 0; i < 8; ++i) {
    const auto poly = gen::admmutate_encode(corpus[i % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, poly.bytes);
  }
  return tb.take();
}

pcap::Capture clet_corpus(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::make_shell_spawn_corpus();
  for (std::size_t i = 0; i < 8; ++i) {
    const auto poly = gen::clet_encode(corpus[i % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, poly.bytes);
  }
  return tb.take();
}

pcap::Capture codered_corpus(std::uint64_t seed, std::size_t flows = 16) {
  gen::TraceBuilder tb(seed);
  const util::Bytes request = gen::make_code_red_ii_request();
  for (std::size_t i = 0; i < flows; ++i) {
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, request);
  }
  return tb.take();
}

pcap::Capture mailworm_corpus(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const Endpoint mx{Ipv4Addr::from_octets(10, 0, 0, 25), 25};
  for (std::size_t i = 0; i < 4; ++i) {
    const auto worm = gen::make_email_worm(tb.prng());
    tb.add_tcp_flow(attacker(i), mx, worm.smtp_payload);
  }
  return tb.take();
}

pcap::Capture benign_corpus(std::uint64_t seed) {
  // The workload triage exists for: plain benign traffic plus the
  // benign-but-suspicious payloads seeded to straddle the
  // reject/escalate boundary (sled-lookalike ASCII, base64 blobs,
  // compressed downloads).
  gen::TraceBuilder tb(seed);
  const Endpoint mx{Ipv4Addr::from_octets(10, 0, 0, 25), 25};
  for (int i = 0; i < 20; ++i) {
    tb.add_benign(kClient, kServer, gen::make_benign_payload(tb.prng()));
  }
  for (int i = 0; i < 6; ++i) {
    tb.add_benign(kClient, kServer, gen::make_suspicious_benign_payload(tb.prng()));
  }
  for (int i = 0; i < 4; ++i) {
    tb.add_tcp_flow(kClient, mx, gen::make_benign_email(tb.prng()));
  }
  return tb.take();
}

pcap::Capture x64_corpus(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::ExploitBuilder64::corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80},
                    gen::ExploitBuilder64::wrap(corpus[i].code, tb.prng()));
  }
  return tb.take();
}

pcap::Capture mixed_corpus(std::uint64_t seed) {
  gen::TraceBuilder tb(seed);
  const auto corpus = gen::make_shell_spawn_corpus();
  const util::Bytes request = gen::make_code_red_ii_request();
  const Endpoint mx{Ipv4Addr::from_octets(10, 0, 0, 25), 25};
  for (std::size_t i = 0; i < 6; ++i) {
    tb.add_tcp_flow(attacker(i), Endpoint{kServer, 80}, request);
    const auto adm = gen::admmutate_encode(corpus[i % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i + 10), Endpoint{kServer, 80}, adm.bytes);
    const auto clet = gen::clet_encode(corpus[(i + 3) % corpus.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i + 20), Endpoint{kServer, 80}, clet.bytes);
    tb.add_benign(kClient, kServer, gen::make_benign_payload(tb.prng()));
    tb.add_benign(kClient, kServer, gen::make_suspicious_benign_payload(tb.prng()));
  }
  const auto worm = gen::make_email_worm(tb.prng());
  tb.add_tcp_flow(attacker(30), mx, worm.smtp_payload);
  return tb.take();
}

// ------------------------------------------- triage-on == triage-off

TEST(TriageDifferential, AdmmutateCorpus) { expect_triage_lossless(admmutate_corpus(201)); }

TEST(TriageDifferential, CletCorpus) { expect_triage_lossless(clet_corpus(202)); }

TEST(TriageDifferential, CodeRedCorpus) { expect_triage_lossless(codered_corpus(203)); }

TEST(TriageDifferential, MailwormCorpus) { expect_triage_lossless(mailworm_corpus(204)); }

TEST(TriageDifferential, BenignCorpus) {
  // The benign control also proves triage earns its keep: a strict
  // majority of benign units must be rejected at stage 0, and neither
  // engine may alert.
  const pcap::Capture capture = benign_corpus(205);
  NidsEngine on = make_engine(triage::TriageMode::kOn, {1, 1, false});
  const Report report = on.process_capture(capture);
  EXPECT_TRUE(report.alerts.empty());
  EXPECT_GT(report.stats.triage_rejected, report.stats.triage_escalated);
  expect_triage_lossless(capture);
}

TEST(TriageDifferential, MixedCorpus) { expect_triage_lossless(mixed_corpus(206)); }

TEST(TriageDifferential, X64Corpus) {
  // The x86-64 attack corpus under the x86_64 engine: triage must stay
  // lossless across the whole matrix, and the escalation path must
  // actually carry the attacks (every wrapped payload alerts).
  const pcap::Capture capture = x64_corpus(209);
  expect_triage_lossless(capture, &arch::Arch::x86_64());
  NidsEngine on =
      make_engine(triage::TriageMode::kOn, {1, 1, true}, &arch::Arch::x86_64());
  const Report r = on.process_capture(capture);
  EXPECT_EQ(r.stats.triage_escalated, gen::ExploitBuilder64::corpus().size());
  EXPECT_FALSE(r.alerts.empty());
}

TEST(TriageDifferential, CacheWarmingUnaffectedByTriage) {
  // Two passes of the same capture through one triage-on cache-on
  // engine: rejected units bypass the cache in both passes, escalated
  // units hit in pass 2, and the alert lists match pass for pass.
  const pcap::Capture capture = mixed_corpus(208);
  NidsEngine on = make_engine(triage::TriageMode::kOn, {1, 1, true});
  const Report first = on.process_capture(capture);
  const Report second = on.process_capture(capture);
  expect_alerts_equal(first.alerts, second.alerts, {1, 1, true});
  EXPECT_GT(first.stats.cache_misses, 0u);
  EXPECT_EQ(second.stats.cache_misses, 0u);
  EXPECT_EQ(second.stats.cache_hits,
            second.stats.units_analyzed - second.stats.triage_rejected -
                second.stats.cache_bypass);
}

}  // namespace
}  // namespace senids::core
