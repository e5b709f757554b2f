#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "arch/arch.hpp"
#include "frame_corpus.hpp"
#include "one_shot.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "ir/lifter.hpp"
#include "obs/metrics.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/dsl.hpp"
#include "semantic/library.hpp"

namespace senids::semantic {
namespace {

using test_corpus::AnchorFrame;
using test_corpus::analyzer_bomb;
using test_corpus::anchor_corpus;

bool detected(const std::vector<Detection>& ds, ThreatClass threat) {
  for (const auto& d : ds) {
    if (d.threat == threat) return true;
  }
  return false;
}

TEST(Analyzer, DetectsEveryShellSpawnVariant) {
  SemanticAnalyzer analyzer(make_standard_library());
  for (const auto& sample : gen::make_shell_spawn_corpus()) {
    auto ds = test::analyze(analyzer, sample.code);
    EXPECT_TRUE(detected(ds, ThreatClass::kShellSpawn)) << sample.name;
    if (sample.binds_port) {
      EXPECT_TRUE(detected(ds, ThreatClass::kPortBindShell)) << sample.name;
    } else {
      EXPECT_FALSE(detected(ds, ThreatClass::kPortBindShell)) << sample.name;
    }
  }
}

TEST(Analyzer, DetectsIisAspOverflowDecoder) {
  SemanticAnalyzer analyzer(make_standard_library());
  auto ds = test::analyze(analyzer, gen::make_iis_asp_overflow_payload());
  EXPECT_TRUE(detected(ds, ThreatClass::kDecryptionLoop));
}

TEST(Analyzer, DetectsNetskyLikeSample) {
  util::Prng prng(1234);
  auto sample = gen::make_netsky_like_sample(prng);
  SemanticAnalyzer analyzer(make_standard_library());
  auto ds = test::analyze(analyzer, sample);
  EXPECT_TRUE(detected(ds, ThreatClass::kDecryptionLoop));
}

TEST(Analyzer, XorOnlyLibraryMissesAltScheme) {
  // The Table 2 mechanism: the xor template alone cannot see the
  // or/and/not decoder.
  util::Prng prng(7);
  gen::PolyOptions opts;
  opts.xor_scheme_prob = 0.0;  // force the alternate scheme
  auto poly = gen::admmutate_encode(util::to_bytes("PAYLOADPAYLOAD"), prng, opts);
  ASSERT_EQ(poly.scheme, gen::DecoderScheme::kAltOrAndNot);

  SemanticAnalyzer xor_only(make_xor_only_library());
  EXPECT_FALSE(detected(test::analyze(xor_only, poly.bytes), ThreatClass::kDecryptionLoop));

  SemanticAnalyzer full(make_standard_library());
  EXPECT_TRUE(detected(test::analyze(full, poly.bytes), ThreatClass::kDecryptionLoop));
}

TEST(Analyzer, SweepOverAdmmutateSeeds) {
  // Property sweep: every generated instance, regardless of seed and
  // scheme, is caught by the full library.
  SemanticAnalyzer analyzer(make_decoder_library());
  auto payload = gen::make_shell_spawn_corpus()[1].code;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    util::Prng prng(seed);
    auto poly = gen::admmutate_encode(payload, prng);
    EXPECT_TRUE(detected(test::analyze(analyzer, poly.bytes), ThreatClass::kDecryptionLoop))
        << "seed " << seed << " scheme " << static_cast<int>(poly.scheme);
  }
}

TEST(Analyzer, SweepOverCletSeeds) {
  SemanticAnalyzer analyzer(make_xor_only_library());
  auto payload = gen::make_shell_spawn_corpus()[1].code;
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    util::Prng prng(seed);
    auto poly = gen::clet_encode(payload, prng);
    EXPECT_TRUE(detected(test::analyze(analyzer, poly.bytes), ThreatClass::kDecryptionLoop))
        << "seed " << seed;
  }
}

TEST(Analyzer, CleanOnBenignText) {
  SemanticAnalyzer analyzer(make_standard_library());
  std::string html = "<html><body>";
  for (int i = 0; i < 200; ++i) html += "completely ordinary web page text ";
  html += "</body></html>";
  EXPECT_TRUE(test::analyze(analyzer, util::as_bytes(html)).empty());
}

TEST(Analyzer, CleanOnRandomBytes) {
  SemanticAnalyzer analyzer(make_standard_library());
  util::Prng prng(555);
  for (int trial = 0; trial < 10; ++trial) {
    auto noise = prng.bytes(4096);
    EXPECT_TRUE(test::analyze(analyzer, noise).empty()) << "trial " << trial;
  }
}

TEST(Analyzer, EmptyFrameYieldsNothing) {
  SemanticAnalyzer analyzer(make_standard_library());
  util::Bytes empty;
  EXPECT_TRUE(test::analyze(analyzer, empty).empty());
}

TEST(Analyzer, StatsAreAccumulated) {
  SemanticAnalyzer analyzer(make_standard_library());
  AnalyzerStats stats;
  test::analyze(analyzer, gen::make_iis_asp_overflow_payload(), &stats);
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_GE(stats.candidate_runs, 1u);
  EXPECT_GE(stats.traces, 1u);
  EXPECT_GE(stats.instructions_lifted, 10u);
  EXPECT_GE(stats.template_matches_tried, 1u);
}

TEST(Analyzer, OneDetectionPerTemplatePerFrame) {
  // Two decoders in one frame still produce a single xor-template hit.
  auto one = gen::make_iis_asp_overflow_payload(0x41);
  auto two = gen::make_iis_asp_overflow_payload(0x42);
  util::Bytes both = one;
  both.insert(both.end(), 64, 0x90);
  both.insert(both.end(), two.begin(), two.end());
  SemanticAnalyzer analyzer(make_xor_only_library());
  auto ds = test::analyze(analyzer, both);
  EXPECT_EQ(ds.size(), 1u);
}

TEST(Analyzer, DetectionCarriesBindings) {
  SemanticAnalyzer analyzer(make_xor_only_library());
  auto ds = test::analyze(analyzer, gen::make_iis_asp_overflow_payload(0x5d));
  ASSERT_EQ(ds.size(), 1u);
  ASSERT_TRUE(ds[0].bindings.contains("K"));
  EXPECT_EQ(ds[0].bindings.at("K"), "0x5d");
}

TEST(Analyzer, DetectionBindingsOutliveLaterLifts) {
  // A decoder and a plain shell spawn in one frame: two detections made
  // from two different traces, i.e. from two different lifts into the
  // scratch's one LiftResult.
  util::Bytes frame = gen::make_iis_asp_overflow_payload(0x5d);
  frame.insert(frame.end(), 64, 0x90);
  const util::Bytes shell = gen::make_shell_spawn_corpus()[0].code;
  frame.insert(frame.end(), shell.begin(), shell.end());
  SemanticAnalyzer analyzer(make_standard_library());
  AnalyzerScratch scratch;
  const auto ds = analyzer.analyze(frame, nullptr, scratch);
  ASSERT_GE(ds.size(), 2u);
  EXPECT_NE(ds.front().entry_offset, ds.back().entry_offset);

  // Keep lifting into the same scratch: same-shaped decoders with other
  // keys land their nodes where the first frame's nodes were.
  util::Prng prng(7);
  for (std::uint8_t key : {0x42, 0x17, 0xa5}) {
    EXPECT_FALSE(analyzer.analyze(gen::make_iis_asp_overflow_payload(key), nullptr, scratch)
                     .empty());
    analyzer.analyze(gen::admmutate_encode(shell, prng).bytes, nullptr, scratch);
  }

  const auto fresh = test::analyze(analyzer, frame);
  ASSERT_EQ(fresh.size(), ds.size());
  bool saw_key = false;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds[i].template_name, fresh[i].template_name);
    EXPECT_EQ(ds[i].bindings, fresh[i].bindings) << ds[i].template_name;
    if (auto it = ds[i].bindings.find("K"); it != ds[i].bindings.end()) {
      EXPECT_EQ(it->second, "0x5d");
      saw_key = true;
    }
  }
  EXPECT_TRUE(saw_key);
}

TEST(Analyzer, ScratchReuseSeesBytesRewrittenInPlace) {
  // One scratch, one buffer whose bytes change between calls while its
  // address and size stay the same. The scan table is matched to a frame
  // by address, size and mode only, so each call must rescan: it has to
  // return what a fresh scratch returns on the bytes as they are now.
  const std::vector<util::Bytes> contents = {
      gen::make_iis_asp_overflow_payload(0x5d), gen::make_shell_spawn_corpus()[0].code,
      gen::make_iis_asp_overflow_payload(0x42), util::Bytes(64, 0x40)};
  std::size_t size = 0;
  for (const util::Bytes& c : contents) size = std::max(size, c.size());
  util::Bytes frame(size, 0x90);
  const std::uint8_t* const storage = frame.data();
  auto render = [](const std::vector<Detection>& ds) {
    std::ostringstream out;
    for (const Detection& d : ds) {
      out << d.template_name << " entry " << d.entry_offset << " match " << d.match_offset;
      for (const auto& [var, value] : d.bindings) out << " " << var << "=" << value;
      out << "\n";
    }
    return out.str();
  };
  SemanticAnalyzer analyzer(make_standard_library());
  AnalyzerScratch scratch;
  std::vector<std::string> seen;
  for (const util::Bytes& c : contents) {
    std::fill(frame.begin(), frame.end(), 0x90);
    std::copy(c.begin(), c.end(), frame.begin());
    ASSERT_EQ(frame.data(), storage);
    const std::string got = render(analyzer.analyze(frame, nullptr, scratch));
    EXPECT_EQ(got, render(test::analyze(analyzer, frame)));
    seen.push_back(got);
  }
  // Each rewrite changed the verdict: a stale table would repeat one.
  EXPECT_NE(seen[0].find("K=0x5d"), std::string::npos) << seen[0];
  EXPECT_NE(seen[1], seen[0]);
  EXPECT_NE(seen[2].find("K=0x42"), std::string::npos) << seen[2];
  EXPECT_EQ(seen[3], "");
}

TEST(Analyzer, RespectsMaxEntriesOption) {
  SemanticAnalyzer::Options opts;
  opts.max_entries = 1;
  SemanticAnalyzer analyzer(make_standard_library(), opts);
  // Still functional (the first entry is the interesting one here).
  auto ds = test::analyze(analyzer, gen::make_iis_asp_overflow_payload());
  EXPECT_FALSE(ds.empty());
}


// ------------------------------------------------ anchor-filter soundness

/// A syscall on int `vector`, any number.
Stmt st_int(std::uint16_t vector) {
  Stmt s;
  s.kind = Stmt::Kind::kSyscall;
  s.vector = vector;
  return s;
}

/// Templates exercising the anchor bits no library template uses: a
/// width-0 (any) store, and syscalls on vectors other than 0x80/0x100.
std::vector<Template> hand_built_templates() {
  Template any_store;
  any_store.name = "any-store";
  any_store.stmts.push_back(st_mem_write(p_any(), p_any()));
  Template int2e;
  int2e.name = "int-2e";
  int2e.stmts.push_back(st_int(0x2e));
  Template store_then_int21;
  store_then_int21.name = "store-then-int-21";
  store_then_int21.stmts.push_back(st_mem_write(p_any(), p_any()));
  store_then_int21.stmts.push_back(st_int(0x21));
  Template int2e_then_80;
  int2e_then_80.name = "int-2e-then-80";
  int2e_then_80.stmts.push_back(st_int(0x2e));
  int2e_then_80.stmts.push_back(st_int(0x80));
  return {any_store, int2e, store_then_int21, int2e_then_80};
}

std::vector<Template> dsl_standard_templates() {
  std::ifstream in(SENIDS_SOURCE_DIR "/templates/standard.tmpl", std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = parse_templates(buf.str());
  auto* templates = std::get_if<std::vector<Template>>(&parsed);
  return templates ? *templates : std::vector<Template>{};
}

std::vector<std::pair<std::string, std::vector<Template>>> anchor_template_sets() {
  auto dsl = dsl_standard_templates();
  EXPECT_FALSE(dsl.empty()) << "templates/standard.tmpl did not parse";
  return {{"standard", make_standard_library()},
          {"decoder", make_decoder_library()},
          {"extended", make_extended_library()},
          {"standard.tmpl", std::move(dsl)},
          {"hand-built", hand_built_templates()}};
}

/// The candidate entries analyze() tries on `frame`, and whether any
/// candidate went untried, rebuilt independently of
/// arch::Arch::find_entries: the runs sorted here again, every run swept
/// again with the by-value decoder, and every candidate enumerated
/// before the entry budget is applied.
struct EntryList {
  std::vector<std::size_t> entries;
  bool untried = false;
};

EntryList reference_entries(const SemanticAnalyzer::Options& opt, util::ByteView frame) {
  const arch::Arch& isa = opt.arch ? *opt.arch : arch::Arch::x86_32();
  auto runs = test::code_runs(frame, opt.min_run_insns, isa);
  std::stable_sort(runs.begin(), runs.end(), [](const arch::CodeRun& a,
                                                const arch::CodeRun& b) {
    return a.insn_count > b.insn_count;
  });
  std::vector<std::size_t> candidates;
  std::vector<char> seen(frame.size(), 0);
  auto add = [&](std::size_t off) {
    if (off >= frame.size() || seen[off]) return;
    seen[off] = 1;
    candidates.push_back(off);
  };
  for (const auto& run : runs) {
    add(run.start);
    for (const auto& insn :
         arch::linear_sweep(frame, run.start, opt.max_trace_insns, isa.mode())) {
      if (auto target = insn.branch_target(); target && *target < insn.offset) {
        add(*target);
      }
      if (insn.mnemonic == arch::Mnemonic::kCall) add(insn.end_offset());
    }
  }
  EntryList out;
  out.untried = candidates.size() > opt.max_entries;
  if (out.untried) candidates.resize(opt.max_entries);
  out.entries = std::move(candidates);
  return out;
}

/// Calls `visit(entry, code)` for every lifted trace analyze() examines
/// on `frame`, in the same order, rebuilt from the public arch and ir
/// calls with the analyzer's options. Stops when `visit` returns false.
template <class Visit>
void for_each_trace(const SemanticAnalyzer& analyzer, util::ByteView frame, Visit visit) {
  const SemanticAnalyzer::Options& opt = analyzer.options();
  const arch::Arch& isa = opt.arch ? *opt.arch : arch::Arch::x86_32();
  arch::ScanScratch scan;
  std::size_t budget = opt.max_total_insns;
  std::vector<arch::Instruction> trace;
  ir::LiftResult lifted;
  for (std::size_t entry : reference_entries(opt, frame).entries) {
    if (budget == 0) return;
    isa.execution_trace(frame, entry, std::min(opt.max_trace_insns, budget), trace, scan);
    if (trace.size() < opt.min_run_insns) continue;
    budget -= std::min(budget, trace.size());
    ir::lift(trace, lifted);
    if (!visit(entry, LiftedCode{&trace, &lifted.events, frame})) return;
  }
}

TEST(Analyzer, EntryListMatchesReference) {
  std::vector<std::pair<std::string, util::Bytes>> frames;
  for (AnchorFrame& f : anchor_corpus()) frames.emplace_back(f.name, std::move(f.bytes));
  util::Prng noise(4096);
  frames.emplace_back("random 4 KB", noise.bytes(4096));
  frames.emplace_back("bomb 4 KB", analyzer_bomb(4096));
  std::vector<std::pair<std::string, SemanticAnalyzer::Options>> limits(4);
  limits[0].first = "default limits";
  limits[1].first = "max_entries 1";
  limits[1].second.max_entries = 1;
  limits[2].first = "max_entries 4";
  limits[2].second.max_entries = 4;
  limits[3].first = "max_trace_insns 8";
  limits[3].second.max_trace_insns = 8;

  arch::ScanScratch scratch;  // reused across frames, as a worker does
  std::vector<arch::CodeRun> runs;
  std::vector<std::size_t> entries;
  std::size_t untried = 0, complete = 0;
  for (const arch::Arch* isa : arch::Arch::all()) {
    for (auto& [limit_name, opt] : limits) {
      opt.arch = isa;
      for (const auto& [frame_name, frame] : frames) {
        const EntryList want = reference_entries(opt, frame);
        const bool got_untried =
            isa->find_entries(frame, 0, frame.size(), opt.min_run_insns, opt.max_trace_insns,
                              opt.max_entries, runs, entries, scratch);
        const std::string where =
            std::string(isa->name()) + ", " + limit_name + ", " + frame_name;
        EXPECT_EQ(entries, want.entries) << where;
        EXPECT_EQ(got_untried, want.untried) << where;
        ++(want.untried ? untried : complete);
      }
    }
  }
  // Both outcomes of the budget are exercised.
  EXPECT_GT(untried, 0u);
  EXPECT_GT(complete, 0u);
}

TEST(Analyzer, EntryBudgetFlagsUntriedRuns) {
  // Eight 0x41, one 0x0F, eight 0x42: two decode runs, at offsets 0 and
  // 9 (0F 42 42 42 is a cmovb, so the run at 0 is out of step with the
  // run at 9). With room for one entry the second run goes untried, and
  // the frame says so.
  util::Bytes frame(8, 0x41);
  frame.push_back(0x0F);
  frame.insert(frame.end(), 8, 0x42);
  const auto runs = test::code_runs(frame);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].start, 0u);
  EXPECT_EQ(runs[1].start, 9u);
  for (const std::size_t max_entries : {1u, 2u}) {
    SemanticAnalyzer::Options opt;
    opt.max_entries = max_entries;
    AnalyzerStats stats;
    test::analyze(SemanticAnalyzer(make_standard_library(), opt), frame, &stats);
    EXPECT_EQ(stats.traces, max_entries);
    EXPECT_EQ(stats.entry_budget_exhausted, max_entries == 1 ? 1u : 0u)
        << "max_entries " << max_entries;
  }
}

TEST(Analyzer, AnchorsNeverSkipAMatch) {
  const auto frames = anchor_corpus();
  std::map<std::string, std::size_t> matches;  // per template name
  for (const auto& [set_name, templates] : anchor_template_sets()) {
    std::vector<AnchorWord> anchors;
    for (const Template& t : templates) anchors.push_back(template_anchors(t));
    for (const AnchorFrame& f : frames) {
      SemanticAnalyzer::Options opt;
      opt.arch = f.arch;
      const SemanticAnalyzer analyzer(templates, opt);
      for_each_trace(analyzer, f.bytes, [&](std::size_t entry, const LiftedCode& code) {
        const AnchorWord features = trace_anchors(*code.events);
        for (std::size_t ti = 0; ti < templates.size(); ++ti) {
          if (!match_template(templates[ti], code)) continue;
          ++matches[templates[ti].name];
          EXPECT_TRUE(anchors_admit(anchors[ti], features))
              << set_name << " template " << templates[ti].name << " on " << f.name
              << " entry " << entry;
        }
        return true;
      });
    }
  }
  // The property is only as strong as the matches behind it.
  for (const Template& t : hand_built_templates()) {
    EXPECT_GT(matches[t.name], 0u) << t.name;
  }
  for (const Template& t : make_extended_library()) {
    EXPECT_GT(matches[t.name], 0u) << t.name;
  }
}

TEST(TraceFacts, BucketsListTheEventsEachAnchorAdmits) {
  TraceFacts facts;  // one, reset for every trace, as the analyzer keeps it
  std::size_t traces = 0;
  for (const AnchorFrame& f : anchor_corpus()) {
    SemanticAnalyzer::Options opt;
    opt.arch = f.arch;
    const SemanticAnalyzer analyzer(make_standard_library(), opt);
    for_each_trace(analyzer, f.bytes, [&](std::size_t entry, const LiftedCode& code) {
      facts.reset(code);
      const auto& events = *code.events;
      EXPECT_EQ(facts.features, trace_anchors(events)) << f.name << " entry " << entry;
      for (unsigned b = 0; b < kAnchorBits; ++b) {
        const auto bit = static_cast<AnchorWord>(1u << b);
        std::vector<std::uint32_t> want;
        for (std::size_t i = 0; i < events.size(); ++i) {
          if ((trace_anchors({events[i]}) & bit) != 0) want.push_back(static_cast<std::uint32_t>(i));
        }
        const auto got = facts.admitting(bit);
        EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
            << f.name << " entry " << entry << " bit " << b;
      }
      ++traces;
      return true;
    });
  }
  EXPECT_GT(traces, 100u);
}

TEST(Analyzer, DetectionsEqualEveryTemplateOnEveryTrace) {
  const auto frames = anchor_corpus();
  std::size_t detections = 0;
  for (const auto& [set_name, templates] : anchor_template_sets()) {
    for (const AnchorFrame& f : frames) {
      SemanticAnalyzer::Options opt;
      opt.arch = f.arch;
      const SemanticAnalyzer analyzer(templates, opt);
      // Brute force: every template not yet fired, on every trace.
      std::vector<Detection> want;
      std::vector<char> fired(templates.size(), 0);
      for_each_trace(analyzer, f.bytes, [&](std::size_t entry, const LiftedCode& code) {
        for (std::size_t ti = 0; ti < templates.size(); ++ti) {
          if (fired[ti]) continue;
          auto m = match_template(templates[ti], code);
          if (!m) continue;
          fired[ti] = 1;
          Detection d{templates[ti].name, templates[ti].threat, entry, m->start_offset, {}};
          for (const auto& [var, value] : m->bindings) {
            d.bindings.emplace(var, ir::to_string(value));
          }
          want.push_back(std::move(d));
        }
        return want.size() < templates.size();
      });
      const auto got = test::analyze(analyzer, f.bytes);
      const std::string where = set_name + " on " + f.name;
      ASSERT_EQ(got.size(), want.size()) << where;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].template_name, want[i].template_name) << where << " #" << i;
        EXPECT_EQ(got[i].threat, want[i].threat) << where << " #" << i;
        EXPECT_EQ(got[i].entry_offset, want[i].entry_offset) << where << " #" << i;
        EXPECT_EQ(got[i].match_offset, want[i].match_offset) << where << " #" << i;
        // Rendered equality is struct_eq: to_string renders every field
        // struct_eq compares.
        EXPECT_EQ(got[i].bindings, want[i].bindings) << where << " #" << i;
      }
      detections += got.size();
    }
  }
  EXPECT_GT(detections, 0u);
}

TEST(Analyzer, TriedPlusSkippedCoversEveryTemplateOnEveryTrace) {
  // On a frame where nothing fires, every trace accounts for every
  // template once: either it was tried or its anchors ruled it out.
  SemanticAnalyzer analyzer(make_standard_library());
  std::string html = "<html><body>";
  for (int i = 0; i < 200; ++i) html += "completely ordinary web page text ";
  html += "</body></html>";
  AnalyzerStats stats;
  ASSERT_TRUE(test::analyze(analyzer, util::as_bytes(html), &stats).empty());
  ASSERT_GT(stats.traces, 0u);
  EXPECT_GT(stats.templates_skipped, 0u);
  EXPECT_EQ(stats.template_matches_tried + stats.templates_skipped,
            stats.traces * analyzer.templates().size());
}

TEST(Analyzer, RegistryCountersMatchStats) {
  // analyze() publishes each frame's counts once, on its way out: every
  // senids_analyzer_*_total series advances by exactly the matching
  // AnalyzerStats field, whether or not the caller asked for the stats.
  struct Series {
    const char* name;
    const char* help;
    std::size_t AnalyzerStats::*field;
  };
  const Series series[] = {
      {"senids_analyzer_frames_total", "Frames run through the semantic analyzer",
       &AnalyzerStats::frames},
      {"senids_analyzer_runs_total", "Candidate decode runs found",
       &AnalyzerStats::candidate_runs},
      {"senids_analyzer_bytes_decoded_total",
       "Offsets the candidate scan decoded, each window offset once per unit",
       &AnalyzerStats::bytes_decoded},
      {"senids_analyzer_traces_total",
       "Execution traces lifted to IR, each payload trace once per unit",
       &AnalyzerStats::traces},
      {"senids_analyzer_traces_shared_total",
       "Traces skipped because an earlier window of the unit analyzed the same payload trace",
       &AnalyzerStats::traces_shared},
      {"senids_analyzer_insns_lifted_total",
       "Instructions lifted to IR, at most max_total_insns per unit",
       &AnalyzerStats::instructions_lifted},
      {"senids_analyzer_matches_tried_total", "Template match attempts",
       &AnalyzerStats::template_matches_tried},
      {"senids_analyzer_templates_skipped_total",
       "Templates not tried on a trace that lacks their anchor features",
       &AnalyzerStats::templates_skipped},
      {"senids_analyzer_entry_budget_exhausted_total",
       "Units that filled the per-unit candidate-entry budget",
       &AnalyzerStats::entry_budget_exhausted},
      {"senids_analyzer_insn_budget_exhausted_total",
       "Units that burned the per-unit instruction budget",
       &AnalyzerStats::insn_budget_exhausted},
  };
  ASSERT_EQ(std::size(series), kAnalyzerCountFields.size());
  obs::set_metrics_enabled(true);
  obs::Registry& registry = obs::Registry::instance();

  util::Prng prng(2024);
  std::vector<util::Bytes> frames;
  for (int i = 0; i < 3; ++i) {
    frames.push_back(gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, prng).bytes);
  }
  std::string html = "<html><body>";
  for (int i = 0; i < 200; ++i) html += "completely ordinary web page text ";
  html += "</body></html>";
  frames.emplace_back(html.begin(), html.end());
  frames.push_back(prng.bytes(4096));
  frames.emplace_back();  // empty: counts nothing

  // The default budgets, and budgets small enough that both bailouts fire.
  SemanticAnalyzer::Options tight;
  tight.max_entries = 4;
  tight.max_total_insns = 40;
  const SemanticAnalyzer analyzers[] = {SemanticAnalyzer(make_standard_library()),
                                        SemanticAnalyzer(make_standard_library(), tight)};
  // The analyzer registers its series (with their help text) on first
  // use; let it, before the lookups below could register them bare.
  test::analyze(analyzers[0], frames.back());
  AnalyzerStats total;
  for (const SemanticAnalyzer& analyzer : analyzers) {
    for (const util::Bytes& frame : frames) {
      AnalyzerStats expected;
      for (const bool with_stats : {true, false}) {
        std::vector<std::uint64_t> before;
        for (const Series& s : series) before.push_back(registry.counter(s.name).value());
        // Each frame is a unit of two windows, the frame twice at one
        // origin: the second window's traces are all shared, and it
        // decodes nothing.
        AnalyzerStats stats;
        AnalyzerScratch scratch;
        analyzer.begin_unit(scratch, frame);
        for (int window = 0; window < 2; ++window) {
          analyzer.analyze(frame, 0, with_stats ? &stats : nullptr, scratch);
        }
        if (with_stats) expected = stats;
        EXPECT_EQ(expected.bytes_decoded, frame.size());
        for (std::size_t i = 0; i < std::size(series); ++i) {
          EXPECT_EQ(registry.counter(series[i].name).value() - before[i],
                    expected.*series[i].field)
              << series[i].name << " on a " << frame.size() << "-byte frame, "
              << (with_stats ? "with" : "without") << " stats";
        }
      }
      merge_analyzer(total, expected);
    }
  }
  // Every series moved at least once here, and each is registered under
  // its pinned name and help text.
  const std::string text = registry.prometheus_text();
  for (const Series& s : series) {
    EXPECT_GT(total.*s.field, 0u) << s.name;
    EXPECT_NE(text.find(std::string("# HELP ") + s.name + " " + s.help + "\n"),
              std::string::npos)
        << s.name;
  }
  EXPECT_EQ(total.frames, 2 * 2 * (frames.size() - 1));
}
}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

TEST(Analyzer, FnstenvGetPcInstancesDetected) {
  gen::PolyOptions opts;
  opts.fnstenv_getpc_prob = 1.0;
  SemanticAnalyzer analyzer(make_decoder_library());
  auto payload = gen::make_shell_spawn_corpus()[1].code;
  for (std::uint64_t seed = 400; seed < 412; ++seed) {
    util::Prng prng(seed);
    auto poly = gen::admmutate_encode(payload, prng, opts);
    bool hit = false;
    for (const auto& d : test::analyze(analyzer, poly.bytes)) {
      if (d.threat == ThreatClass::kDecryptionLoop) hit = true;
    }
    EXPECT_TRUE(hit) << "seed " << seed;
  }
}

}  // namespace
}  // namespace senids::semantic
