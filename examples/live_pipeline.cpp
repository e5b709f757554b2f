// Live pipeline: the deployment shape for continuous monitoring. Each
// frame is fed to a LiveSession the moment it is captured, and alerts
// fire the moment a flow closes — no end-of-batch wait. Here the
// "capture" replays a synthesized trace.
//
//   $ ./live_pipeline
#include <cstdio>

#include "core/senids.hpp"
#include "gen/benign.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"

using namespace senids;

int main() {
  const net::Ipv4Addr honeypot = net::Ipv4Addr::from_octets(10, 0, 0, 7);

  // --- synthesize the "wire": benign flows with two attacks interleaved
  gen::TraceBuilder tb(1337);
  const net::Endpoint attacker{net::Ipv4Addr::from_octets(192, 0, 2, 66), 31337};
  for (int i = 0; i < 40; ++i) {
    const net::Endpoint client{
        net::Ipv4Addr::from_octets(198, 51, 100, static_cast<std::uint8_t>(1 + i)),
        static_cast<std::uint16_t>(40000 + i)};
    tb.add_benign(client, net::Ipv4Addr::from_octets(10, 0, 0, 20),
                  gen::make_benign_payload(tb.prng()));
    if (i == 15) {
      auto poly = gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, tb.prng());
      tb.add_tcp_flow(attacker, net::Endpoint{honeypot, 80},
                      gen::wrap_in_overflow(poly.bytes, tb.prng()));
    }
    if (i == 30) {
      tb.add_tcp_flow(attacker, net::Endpoint{honeypot, 80},
                      gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[8].code,
                                            tb.prng()));
    }
  }
  auto capture = tb.take();
  std::printf("replaying %zu frames through the live pipeline...\n\n",
              capture.records.size());

  // --- the pipeline: every captured frame goes straight to the session
  core::NidsOptions options;
  core::NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(honeypot);

  std::size_t alert_count = 0;
  core::LiveSession session(engine, [&](const core::Alert& alert) {
    ++alert_count;
    std::printf("ALERT %s\n", alert.str().c_str());
  });
  for (const auto& rec : capture.records) session.feed(rec.data);
  session.finish();
  std::printf("\nsession: %zu packets, %zu suspicious, %zu units analyzed\n",
              session.stats().packets, session.stats().suspicious_packets,
              session.stats().units_analyzed);
  std::printf("total alerts: %zu\n", alert_count);
  return alert_count > 0 ? 0 : 1;
}
