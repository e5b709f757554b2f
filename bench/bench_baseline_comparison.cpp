// Section 3 motivation, quantified: the same corpora evaluated by the
// syntactic signature baseline (Snort-lite), the statistical baseline
// (PAYL-like), and the semantic analyzer. Pattern matching holds up on
// static exploits and collapses on fresh polymorphic instances; spectrum
// padding (Clet) degrades the statistical detector; semantic templates
// hold across all three.
#include <cstdio>

#include "anomaly/payl.hpp"
#include "bench_util.hpp"
#include "gen/benign.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"
#include "sig/rules.hpp"

using namespace senids;

namespace {

struct Rates {
  std::size_t sig = 0, payl = 0, sem = 0, total = 0;
};

void print_row(const char* name, const Rates& r) {
  auto pct = [&](std::size_t hits) {
    return 100.0 * static_cast<double>(hits) / static_cast<double>(r.total);
  };
  std::printf("%-26s %7zu %10.1f%% %10.1f%% %10.1f%%\n", name, r.total, pct(r.sig),
              pct(r.payl), pct(r.sem));
}

}  // namespace

int main() {
  bench::title("Baseline comparison: syntactic vs statistical vs semantic");
  const std::size_t n = bench::env_size("SENIDS_POLY_INSTANCES", 100);

  // --- detectors --------------------------------------------------------
  sig::SignatureEngine snort_lite(sig::make_default_rules());

  anomaly::PaylDetector payl;
  {
    util::Prng train_prng(10);
    for (int i = 0; i < 3000; ++i) {
      gen::BenignPayload p = gen::make_benign_payload(train_prng);
      payl.train(p.data, p.dst_port);
    }
  }

  semantic::SemanticAnalyzer semantic_engine(semantic::make_standard_library());
  semantic::AnalyzerScratch semantic_scratch;

  auto semantic_hit = [&](const util::Bytes& payload) {
    return !semantic_engine.analyze(payload, nullptr, semantic_scratch).empty();
  };

  // --- corpora ----------------------------------------------------------
  util::Prng prng(20061);
  const auto shellcode = gen::make_shell_spawn_corpus()[1].code;

  std::printf("%-26s %7s %11s %11s %11s\n", "corpus", "N", "signature", "PAYL",
              "semantic");
  bench::rule();

  // Static exploits (the signature rules were written for these).
  {
    Rates r;
    for (const auto& sample : gen::make_shell_spawn_corpus()) {
      auto wire = gen::wrap_in_overflow(sample.code, prng);
      ++r.total;
      r.sig += snort_lite.any_match(wire, 80);
      r.payl += payl.is_anomalous(wire, 80);
      r.sem += semantic_hit(wire);
    }
    print_row("static exploits", r);
  }

  // Fresh ADMmutate instances.
  {
    Rates r;
    for (std::size_t i = 0; i < n; ++i) {
      auto instance = gen::admmutate_encode(shellcode, prng);
      auto wire = gen::wrap_in_overflow(instance.bytes, prng);
      ++r.total;
      r.sig += snort_lite.any_match(wire, 80);
      r.payl += payl.is_anomalous(wire, 80);
      r.sem += semantic_hit(wire);
    }
    print_row("ADMmutate polymorphic", r);
  }

  // Clet instances with spectrum padding.
  {
    Rates r;
    for (std::size_t i = 0; i < n; ++i) {
      auto instance = gen::clet_encode(shellcode, prng, /*spectrum_pad=*/256);
      auto wire = gen::wrap_in_overflow(instance.bytes, prng);
      ++r.total;
      r.sig += snort_lite.any_match(wire, 80);
      r.payl += payl.is_anomalous(wire, 80);
      r.sem += semantic_hit(wire);
    }
    print_row("Clet (spectrum padded)", r);
  }

  // Benign traffic (false-positive column).
  {
    Rates r;
    for (std::size_t i = 0; i < n; ++i) {
      gen::BenignPayload p = gen::make_benign_payload(prng);
      ++r.total;
      r.sig += snort_lite.any_match(p.data, p.dst_port);
      r.payl += payl.is_anomalous(p.data, p.dst_port);
      r.sem += semantic_hit(p.data);
    }
    print_row("benign traffic (FP rate)", r);
  }

  bench::rule();
  std::printf("expected shape: signatures near-0%% on polymorphic corpora;\n"
              "semantic at 100%% on every exploit corpus and 0%% on benign.\n");
  return 0;
}
