#include "workload.hpp"

#include <algorithm>
#include <cmath>

#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"

namespace perfbench {

namespace {

constexpr net::Ipv4Addr kWebServer = net::Ipv4Addr::from_octets(10, 1, 0, 20);
constexpr net::Ipv4Addr kDnsServer = net::Ipv4Addr::from_octets(10, 1, 0, 53);
constexpr net::Ipv4Addr kMailServer = net::Ipv4Addr::from_octets(10, 1, 0, 25);
constexpr net::Ipv4Addr kDarkBase = net::Ipv4Addr::from_octets(10, 1, 200, 0);
constexpr std::size_t kProbesPerScan = 6;  // one past the default threshold of 5

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(n * scale)));
}

/// The i-th benign client endpoint: 2000 hosts, each reusing a source
/// port at most once, so every flow's 4-tuple is unique.
net::Endpoint benign_client(std::size_t i) {
  constexpr std::size_t kHosts = 2000;
  const auto host = static_cast<std::uint32_t>(i % kHosts);
  return {net::Ipv4Addr{net::Ipv4Addr::from_octets(198, 18, 0, 1).value + host},
          static_cast<std::uint16_t>(1024 + i / kHosts)};
}

net::Ipv4Addr server_for(const gen::BenignPayload& p) {
  switch (p.dst_port) {
    case 53: return kDnsServer;
    case 25: return kMailServer;
    default: return kWebServer;
  }
}

/// Generation state shared by the three workloads: the trace under
/// construction plus the ground truth of every flow added to it.
struct Composer {
  gen::TraceBuilder tb;
  std::vector<FlowTruth> flows;
  const std::vector<gen::ShellcodeSample> shells = gen::make_shell_spawn_corpus();

  explicit Composer(std::uint64_t seed) : tb(seed) {}
  util::Prng& prng() { return tb.prng(); }

  void benign(std::size_t i, const gen::BenignPayload& p) {
    const net::Endpoint client = benign_client(i);
    const net::Ipv4Addr server = server_for(p);
    tb.add_benign(client, server, p);
    flows.push_back({client.ip, server, client.port, p.dst_port, std::nullopt});
  }

  void attack(const net::Endpoint& src, util::ByteView payload, semantic::ThreatClass c) {
    tb.add_tcp_flow(src, net::Endpoint{kWebServer, 80}, payload);
    flows.push_back({src.ip, kWebServer, src.port, 80, c});
  }

  void scan(const net::Endpoint& src) {
    tb.add_syn_scan(src, net::Ipv4Addr{kDarkBase.value + 1}, 80, kProbesPerScan);
  }

  enum class Family : std::uint8_t { kAdmMutate, kClet, kPlainShell };

  /// One unique exploit of the given family, wrapped in the Figure 4
  /// overflow layout; the encoders' and the wrapper's randomness make
  /// every one distinct. As in Table 2, the polymorphic engines encode
  /// the Table 1 corpus's second payload, and they must raise a
  /// decryption-loop alert; plain exploits cycle through the eight Table 1
  /// payloads and must raise a shell-spawn alert. Callers fix the family
  /// mix by count, so it never varies with the seed.
  void unique_exploit(const net::Endpoint& src, Family family) {
    util::Bytes code;
    semantic::ThreatClass expect = semantic::ThreatClass::kDecryptionLoop;
    switch (family) {
      case Family::kAdmMutate:
        code = gen::admmutate_encode(shells[1].code, prng()).bytes;
        break;
      case Family::kClet:
        code = gen::clet_encode(shells[1].code, prng()).bytes;
        break;
      case Family::kPlainShell:
        code = shells[plain_shells++ % shells.size()].code;
        expect = semantic::ThreatClass::kShellSpawn;
        break;
    }
    attack(src, gen::wrap_in_overflow(code, prng()), expect);
  }

  std::size_t plain_shells = 0;
};

Workload finish(std::string name, core::NidsOptions options, Composer& b) {
  Workload w;
  w.name = std::move(name);
  w.options = std::move(options);
  w.dark = classify::Prefix{kDarkBase, 24};
  const pcap::Capture capture = b.tb.take();
  w.wire = pcap::serialize(capture);
  w.records = capture.records.size();
  w.flows = std::move(b.flows);
  return w;
}

/// The sensor's default configuration (what senids_scan runs): serial,
/// classification on, triage on, 64 MB verdict cache.
core::NidsOptions sensor_options() {
  core::NidsOptions o;
  o.threads = 1;
  o.shards = 1;
  o.triage.mode = triage::TriageMode::kOn;
  o.verdict_cache_bytes = 64u << 20;
  return o;
}

/// Table 3 shape: benign background, a Code Red II outbreak whose
/// infected hosts scan the dark /24 and then send the byte-identical
/// Figure 5 request, plus a few unique polymorphic exploits from
/// scanning sources.
Workload wire_mix(std::uint64_t seed, double scale) {
  const std::size_t benign = scaled(100000, scale);
  const std::size_t worms = scaled(3000, scale);
  const std::size_t exploits = scaled(30, scale);
  Composer b(seed);
  const util::Bytes crii = gen::make_code_red_ii_request();

  enum class Kind : std::uint8_t { kBenign, kWorm, kExploit };
  std::vector<Kind> order(benign, Kind::kBenign);
  order.insert(order.end(), worms, Kind::kWorm);
  order.insert(order.end(), exploits, Kind::kExploit);
  b.prng().shuffle(order);

  std::size_t nb = 0, nw = 0, ne = 0;
  for (Kind k : order) {
    if (k == Kind::kBenign) {
      b.benign(nb++, gen::make_benign_payload(b.prng()));
    } else if (k == Kind::kWorm) {
      const net::Endpoint src{net::Ipv4Addr{net::Ipv4Addr::from_octets(100, 64, 0, 1).value +
                                            static_cast<std::uint32_t>(nw)},
                              static_cast<std::uint16_t>(4000 + nw % 1000)};
      ++nw;
      b.scan(src);
      b.attack(src, crii, semantic::ThreatClass::kCodeRedII);
    } else {
      const net::Endpoint src{net::Ipv4Addr{net::Ipv4Addr::from_octets(192, 0, 2, 1).value +
                                            static_cast<std::uint32_t>(ne)},
                              static_cast<std::uint16_t>(31337)};
      b.scan(src);
      b.unique_exploit(src, ne++ % 2 ? Composer::Family::kClet : Composer::Family::kAdmMutate);
    }
  }
  return finish("wire_mix", sensor_options(), b);
}

/// `count` payloads from `make`, with every kind in `kinds` drawn the same
/// number of times (the first `count % kinds` kinds once more): the
/// generator picks kinds uniformly, and fixing their counts keeps the mix
/// of cheap and expensive payloads from varying with the seed.
template <typename Make>
std::vector<gen::BenignPayload> stratified(util::Prng& prng, std::size_t count, Make make,
                                           gen::BenignKind first_kind, std::size_t kinds) {
  std::vector<std::size_t> quota(kinds, count / kinds);
  for (std::size_t k = 0; k < count % kinds; ++k) ++quota[k];
  std::vector<gen::BenignPayload> out;
  out.reserve(count);
  while (out.size() < count) {
    gen::BenignPayload p = make(prng);
    const auto k = static_cast<std::size_t>(p.kind) - static_cast<std::size_t>(first_kind);
    if (quota[k] == 0) continue;
    --quota[k];
    out.push_back(std::move(p));
  }
  return out;
}

/// Section 5.4 shape: every flow analyzed, benign corpus plus a fixed
/// share of benign-but-suspicious payloads that trip triage probes. The
/// corpus is large so that the escalated units (about 1%) are many: the
/// analyzer's cost per escalated unit is heavy-tailed, and with a few
/// hundred of them their total and their tail vary little between seeds.
Workload benign_all(std::uint64_t seed, double scale) {
  const std::size_t flows = scaled(40000, scale);
  const std::size_t suspicious = std::min(flows, scaled(60, scale));
  Composer b(seed);
  std::vector<gen::BenignPayload> corpus =
      stratified(b.prng(), flows - suspicious, gen::make_benign_payload,
                 gen::BenignKind::kHttpRequest, 7);
  std::vector<gen::BenignPayload> odd =
      stratified(b.prng(), suspicious, gen::make_suspicious_benign_payload,
                 gen::BenignKind::kAsciiSledLookalike, 3);
  corpus.insert(corpus.end(), std::make_move_iterator(odd.begin()),
                std::make_move_iterator(odd.end()));
  b.prng().shuffle(corpus);
  for (std::size_t i = 0; i < corpus.size(); ++i) b.benign(i, corpus[i]);
  core::NidsOptions o = sensor_options();
  o.classifier.analyze_everything = true;
  return finish("benign_all", o, b);
}

/// Tables 1-2 shape: one unique exploit per flow, every flow analyzed.
Workload attack_dense(std::uint64_t seed, double scale) {
  const std::size_t flows = scaled(300, scale);
  Composer b(seed);
  for (std::size_t i = 0; i < flows; ++i) {
    const net::Endpoint src{net::Ipv4Addr{net::Ipv4Addr::from_octets(172, 16, 0, 1).value +
                                          static_cast<std::uint32_t>(i)},
                            static_cast<std::uint16_t>(40000 + i % 20000)};
    b.unique_exploit(src, static_cast<Composer::Family>(i % 3));
  }
  core::NidsOptions o = sensor_options();
  o.classifier.analyze_everything = true;
  return finish("attack_dense", o, b);
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                      double scale) {
  if (name == "wire_mix") return wire_mix(seed, scale);
  if (name == "benign_all") return benign_all(seed, scale);
  if (name == "attack_dense") return attack_dense(seed, scale);
  return std::nullopt;
}

core::NidsEngine make_engine(const Workload& w) {
  core::NidsEngine engine(w.options);
  engine.classifier().dark_space().add_unused_prefix(w.dark);
  return engine;
}

}  // namespace perfbench
