// Deep-detection extension bench: static templates classify the Table-2
// polymorphic corpus as "decryption loop present"; the emulation stage
// goes further and reports what the encrypted payload actually *does*
// (execve / port binding), plus re-runs the static templates over the
// decoded frame. This implements the dynamic-analysis direction of the
// paper's future work; the substitution is documented in DESIGN.md.
#include <cstdio>

#include "bench_util.hpp"
#include "core/senids.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "util/timer.hpp"

using namespace senids;

int main() {
  bench::title("Deep detection: emulation-backed analysis of encrypted payloads");
  const std::size_t n = bench::env_size("SENIDS_POLY_INSTANCES", 100);

  core::NidsOptions static_opts;
  core::NidsEngine static_engine(static_opts);
  core::NidsOptions deep_opts;
  deep_opts.enable_emulation = true;
  core::NidsEngine deep_engine(deep_opts);

  struct Row {
    const char* corpus;
    std::size_t decoder = 0, shell_static = 0, shell_deep = 0, bind_deep = 0;
    double ms = 0;
  };
  Row rows[2] = {{"ADMmutate x shell", 0, 0, 0, 0, 0.0},
                 {"ADMmutate x bind-shell", 0, 0, 0, 0, 0.0}};

  core::AnalysisContext static_ctx = static_engine.make_analysis_context();
  core::AnalysisContext deep_ctx = deep_engine.make_analysis_context();
  util::Prng prng(777);
  const auto corpus = gen::make_shell_spawn_corpus();
  for (int which = 0; which < 2; ++which) {
    const auto& payload = which == 0 ? corpus[1].code : corpus[8].code;
    Row& row = rows[which];
    util::WallTimer timer;
    for (std::size_t i = 0; i < n; ++i) {
      auto poly = gen::admmutate_encode(payload, prng);
      auto wire = gen::wrap_in_overflow(poly.bytes, prng);
      core::Alert meta;
      auto static_alerts = static_engine.analyze_payload(static_ctx, wire, meta);
      auto deep_alerts = deep_engine.analyze_payload(deep_ctx, wire, meta);
      auto has = [](const std::vector<core::Alert>& alerts, semantic::ThreatClass t) {
        for (const auto& a : alerts) {
          if (a.threat == t) return true;
        }
        return false;
      };
      row.decoder += has(static_alerts, semantic::ThreatClass::kDecryptionLoop);
      row.shell_static += has(static_alerts, semantic::ThreatClass::kShellSpawn);
      row.shell_deep += has(deep_alerts, semantic::ThreatClass::kShellSpawn);
      row.bind_deep += has(deep_alerts, semantic::ThreatClass::kPortBindShell);
    }
    row.ms = timer.millis() / static_cast<double>(n);
  }

  std::printf("%-24s %9s %13s %11s %10s %9s\n", "corpus (N=100 each)", "decoder",
              "shell(static)", "shell(deep)", "bind(deep)", "ms/inst");
  bench::rule();
  for (const Row& row : rows) {
    std::printf("%-24s %6zu/%-3zu %10zu/%-3zu %8zu/%-3zu %7zu/%-3zu %9.2f\n", row.corpus,
                row.decoder, n, row.shell_static, n, row.shell_deep, n, row.bind_deep, n,
                row.ms);
  }
  bench::rule();
  std::printf("static analysis proves a decoder exists; emulation reveals the\n"
              "behaviour behind the encryption (execve / socket-bind-listen).\n");

  const bool ok = rows[0].decoder == n && rows[0].shell_static == 0 &&
                  rows[0].shell_deep == n && rows[1].bind_deep == n;
  std::printf("result shape %s\n", ok ? "as designed" : "DIVERGES");
  return ok ? 0 : 1;
}
