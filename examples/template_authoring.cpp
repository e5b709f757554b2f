// Template authoring: write a detection template in the DSL, load it,
// and test it against both a matching and a non-matching code sample —
// the workflow for extending the NIDS to new exploit families without
// recompiling (the paper's stated future work).
//
//   $ ./template_authoring              # uses the built-in demo template
//   $ ./template_authoring my.tmpl      # loads templates from a file
#include <cstdio>
#include <fstream>
#include <sstream>

#include "gen/emitter.hpp"
#include "ir/lifter.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/dsl.hpp"
#include "arch/format.hpp"
#include "arch/scan.hpp"

using namespace senids;

namespace {

constexpr const char kDemoTemplates[] = R"(
# A decoder that XORs each byte with a key, walks a pointer, and loops.
template my-xor-decoder : decryption-loop {
  store *A = xor(load(*A), K)
  advance A
  loopback
}

# Linux chmod("/...", ...) exploit behaviour: syscall 15 with the path
# embedded in the payload.
template chmod-exploit : custom {
  syscall 0x0f path "/etc"
}
)";

/// A chmod("/etc/shadow", 0666)-style payload (jmp/call/pop).
util::Bytes chmod_sample() {
  gen::Asm a;
  auto lmain = a.new_label();
  auto lget = a.new_label();
  a.jmp_short(lget);
  a.bind(lmain);
  a.pop_r32(gen::R32::ebx);
  a.xor_r32_r32(gen::R32::eax, gen::R32::eax);
  a.mov_r32_imm32(gen::R32::ecx, 0666);
  a.mov_r8_imm8(gen::R8::al, 0x0f);
  a.int_imm(0x80);
  a.bind(lget);
  a.call(lmain);
  a.raw(util::as_bytes("/etc/shadowX"));
  return a.finish();
}

/// A benign-looking routine: copies and sums a buffer, no decoding.
util::Bytes benign_sample() {
  gen::Asm a;
  auto head = a.new_label();
  a.xor_r32_r32(gen::R32::edx, gen::R32::edx);
  a.bind(head);
  a.mov_r8_mem(gen::R8::al, gen::R32::esi);
  a.alu_r8_r8(0, gen::R8::dl, gen::R8::al);  // add dl, al (checksum)
  a.inc_r32(gen::R32::esi);
  a.dec_r32(gen::R32::ecx);
  a.jnz(head);
  a.ret();
  return a.finish();
}

util::Bytes xor_decoder_sample() {
  gen::Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(gen::R32::edi, 0x42);
  a.inc_r32(gen::R32::edi);
  a.loop_(head);
  return a.finish();
}

void test_sample(const semantic::SemanticAnalyzer& analyzer, const char* name,
                 const util::Bytes& code) {
  std::printf("\n-- sample: %s --\n", name);
  std::printf("%s", arch::format_listing(arch::linear_sweep(code)).c_str());
  semantic::AnalyzerScratch scratch;
  auto detections = analyzer.analyze(code, nullptr, scratch);
  if (detections.empty()) {
    std::printf("=> no template matches\n");
    return;
  }
  for (const auto& d : detections) {
    std::printf("=> matched '%s' (%s) at +0x%zx\n", d.template_name.c_str(),
                std::string(semantic::threat_class_name(d.threat)).c_str(),
                d.match_offset);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = kDemoTemplates;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  }

  auto parsed = semantic::parse_templates(source);
  if (auto* err = std::get_if<semantic::ParseError>(&parsed)) {
    std::fprintf(stderr, "template parse error at line %zu: %s\n", err->line,
                 err->message.c_str());
    return 1;
  }
  auto templates = std::get<std::vector<semantic::Template>>(parsed);
  std::printf("loaded %zu template(s):\n", templates.size());
  for (const auto& t : templates) {
    std::printf("  %-24s class=%s, %zu statement(s)\n", t.name.c_str(),
                std::string(semantic::threat_class_name(t.threat)).c_str(),
                t.stmts.size());
  }

  semantic::SemanticAnalyzer analyzer(std::move(templates));
  test_sample(analyzer, "xor decoder (should match my-xor-decoder)",
              xor_decoder_sample());
  test_sample(analyzer, "chmod exploit (should match chmod-exploit)", chmod_sample());
  test_sample(analyzer, "benign checksum loop (should not match)", benign_sample());
  return 0;
}
