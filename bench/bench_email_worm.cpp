// Future-work reproduction: "we intend to classify more exploit
// behaviors ... to detect additional families of malicious traffic (i.e.
// email worms)." Polymorphic worm attachments ride SMTP as base64 MIME
// parts; the extended extraction stage translates them to binary and the
// same decoder/shell semantics fire. Benign mail with document
// attachments is the false-positive control.
#include <cstdio>

#include "bench_util.hpp"
#include "core/senids.hpp"
#include "gen/mailworm.hpp"
#include "util/timer.hpp"

using namespace senids;

int main() {
  bench::title("Future work: email-worm detection over SMTP (base64 attachments)");
  const std::size_t n = bench::env_size("SENIDS_POLY_INSTANCES", 100);

  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  core::NidsEngine static_engine(options);
  options.enable_emulation = true;
  core::NidsEngine deep_engine(options);
  core::AnalysisContext static_ctx = static_engine.make_analysis_context();
  core::AnalysisContext deep_ctx = deep_engine.make_analysis_context();

  util::Prng prng(20060706);
  std::size_t decoder_hits = 0, shell_deep_hits = 0, benign_alerts = 0;
  double worm_ms = 0, benign_ms = 0;

  for (std::size_t i = 0; i < n; ++i) {
    auto worm = gen::make_email_worm(prng);
    core::Alert meta;
    util::WallTimer timer;
    auto static_alerts = static_engine.analyze_payload(static_ctx, worm.smtp_payload, meta);
    auto deep_alerts = deep_engine.analyze_payload(deep_ctx, worm.smtp_payload, meta);
    worm_ms += timer.millis();
    for (const auto& a : static_alerts) {
      if (a.threat == semantic::ThreatClass::kDecryptionLoop) {
        ++decoder_hits;
        break;
      }
    }
    for (const auto& a : deep_alerts) {
      if (a.threat == semantic::ThreatClass::kShellSpawn) {
        ++shell_deep_hits;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    auto mail = gen::make_benign_email(prng, 1024 + prng.below(4096));
    core::Alert meta;
    util::WallTimer timer;
    benign_alerts += deep_engine.analyze_payload(deep_ctx, mail, meta).size();
    benign_ms += timer.millis();
  }

  std::printf("%-44s %6zu/%zu\n", "worm attachments: decoder template (static):",
              decoder_hits, n);
  std::printf("%-44s %6zu/%zu\n", "worm attachments: shell behaviour (deep):",
              shell_deep_hits, n);
  std::printf("%-44s %6zu/%zu\n", "benign document mails: alerts:", benign_alerts, n);
  std::printf("per-mail analysis: %.2f ms worm, %.2f ms benign\n",
              worm_ms / static_cast<double>(n), benign_ms / static_cast<double>(n));
  const bool ok = decoder_hits == n && shell_deep_hits == n && benign_alerts == 0;
  std::printf("result shape %s\n", ok ? "as designed" : "DIVERGES");
  return ok ? 0 : 1;
}
