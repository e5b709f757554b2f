// senids_disasm: inspect a binary blob the way the NIDS does — linear
// listing, execution-order trace, lifted semantic events, junk marking,
// and template verdicts. Input is a file of raw bytes or hex text.
//
//   senids_disasm [options] <file|->
//     --hex            input is hex text (whitespace tolerated)
//     --entry <n>      trace entry offset, a whole number below the input
//                      size (default: best candidate run)
//     --events         print lifted semantic events
//     --junk           mark dead (junk) instructions in the listing
//     --match          run the standard template library and report
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ir/deadcode.hpp"
#include "ir/lifter.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"
#include "util/hexdump.hpp"
#include "arch/arch.hpp"
#include "arch/format.hpp"

using namespace senids;

int main(int argc, char** argv) {
  bool hex = false, events = false, junk = false, match = false;
  std::optional<std::string_view> entry_text;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--hex") {
      hex = true;
    } else if (arg == "--events") {
      events = true;
    } else if (arg == "--junk") {
      junk = true;
    } else if (arg == "--match") {
      match = true;
    } else if (arg == "--entry" && i + 1 < argc) {
      entry_text = argv[++i];
    } else if (arg == "--help" || arg == "-h" || (!arg.empty() && arg[0] == '-' && arg != "-")) {
      std::fprintf(stderr,
                   "usage: %s [--hex] [--entry <n>] [--events] [--junk] [--match] <file|->\n",
                   argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    } else {
      path = std::string(arg);
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "missing input file (use - for stdin)\n");
    return 2;
  }

  std::string raw;
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    raw = buf.str();
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    raw = buf.str();
  }

  util::Bytes code;
  if (hex) {
    auto parsed = util::from_hex(raw);
    if (!parsed) {
      std::fprintf(stderr, "invalid hex input\n");
      return 1;
    }
    code = std::move(*parsed);
  } else {
    code = util::to_bytes(raw);
  }
  if (code.empty()) {
    std::fprintf(stderr, "empty input\n");
    return 1;
  }

  // Pick the entry: explicit, or the longest candidate run (the scanner
  // lists it first). The scan also fills `scan` with the decodes every
  // trace below reads.
  const arch::Arch& isa = arch::Arch::x86_32();
  arch::ScanScratch scan;
  std::vector<arch::CodeRun> runs;
  isa.find_code_runs(code, 1, runs, scan);
  std::size_t entry = runs.empty() ? 0 : runs.front().start;
  if (entry_text) {
    const char* end = entry_text->data() + entry_text->size();
    const auto [ptr, ec] = std::from_chars(entry_text->data(), end, entry);
    if (ec != std::errc{} || ptr != end || entry >= code.size()) {
      std::fprintf(stderr, "bad --entry value '%.*s': want a whole number from 0 to %zu\n",
                   static_cast<int>(entry_text->size()), entry_text->data(), code.size() - 1);
      return 2;
    }
  }

  std::vector<arch::Instruction> trace;
  isa.execution_trace(code, entry, 4096, trace, scan);
  std::printf("; %zu bytes, entry +0x%zx, %zu instructions in execution order\n",
              code.size(), entry, trace.size());

  ir::DeadCodeResult dead;
  if (junk) dead = ir::find_dead_code(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::printf("%08zx:  %-40s%s\n", std::size_t{trace[i].offset}, arch::format(trace[i]).c_str(),
                junk && dead.dead[i] ? " ; junk" : "");
  }

  if (events) {
    ir::LiftResult lifted;
    ir::lift(trace, lifted);
    std::printf("\n; semantic events (%zu, %zu approximations)\n", lifted.events.size(),
                lifted.approximated);
    for (const auto& ev : lifted.events) {
      switch (ev.kind) {
        case ir::EventKind::kMemWrite:
          std::printf("  @%04x  mem%u[%s] := %s\n", ev.insn_offset, ev.width,
                      ir::to_string(ev.addr).c_str(), ir::to_string(ev.value).c_str());
          break;
        case ir::EventKind::kRegWrite:
          std::printf("  @%04x  %s := %s\n", ev.insn_offset,
                      arch::Reg{ev.reg, arch::RegWidth::k32}.name().data(),
                      ir::to_string(ev.value).c_str());
          break;
        case ir::EventKind::kBranch:
          std::printf("  @%04x  branch%s%s target=%s\n", ev.insn_offset,
                      ev.conditional ? " cond" : "", ev.is_call ? " call" : "",
                      ev.target ? std::to_string(*ev.target).c_str() : "?");
          break;
        case ir::EventKind::kSyscall:
          std::printf("  @%04x  int 0x%02x eax=%s ebx=%s\n", ev.insn_offset, ev.vector,
                      ir::to_string(ev.syscall_regs[0]).c_str(),
                      ir::to_string(ev.syscall_regs[3]).c_str());
          break;
      }
    }
  }

  if (match) {
    semantic::SemanticAnalyzer::Options opts;
    opts.min_run_insns = 1;  // hand-fed snippets can be tiny
    semantic::SemanticAnalyzer analyzer(semantic::make_extended_library(), opts);
    semantic::AnalyzerScratch scratch;
    auto detections = analyzer.analyze(code, nullptr, scratch);
    std::printf("\n; template verdicts\n");
    if (detections.empty()) std::printf("  no matches\n");
    std::vector<arch::Instruction> mtrace;
    ir::LiftResult mlift;
    for (const auto& d : detections) {
      std::printf("  MATCH %-28s (%s) entry=+0x%zx\n", d.template_name.c_str(),
                  std::string(semantic::threat_class_name(d.threat)).c_str(),
                  d.entry_offset);
      // Re-run the match at the detected entry to show the explanation.
      isa.execution_trace(code, d.entry_offset, 4096, mtrace, scan);
      ir::lift(mtrace, mlift);
      semantic::LiftedCode lc{&mtrace, &mlift.events, code};
      for (const auto& t : analyzer.templates()) {
        if (t.name != d.template_name) continue;
        if (auto m = semantic::match_template(t, lc)) {
          std::printf("%s", semantic::format_match(t, lc, *m).c_str());
        }
      }
    }
    return detections.empty() ? 0 : 3;
  }
  return 0;
}
