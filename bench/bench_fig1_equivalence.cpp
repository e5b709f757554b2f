// Figure 1 / Figure 2 reproduction: three syntactically different
// decryption routines — plain, key-obfuscated, and garbage+out-of-order —
// all satisfy the single xor-decryption template.
#include <cstdio>

#include "bench_util.hpp"
#include "gen/emitter.hpp"
#include "ir/lifter.hpp"
#include "semantic/library.hpp"
#include "arch/format.hpp"
#include "arch/arch.hpp"

using namespace senids;
using gen::Asm;
using gen::R32;
using gen::R8;

namespace {

util::Bytes figure_1a() {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::eax, 0x95);
  a.inc_r32(R32::eax);
  a.loop_(head);
  return a.finish();
}

util::Bytes figure_1b() {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.mov_r32_imm32(R32::ebx, 0x31);
  a.add_r32_imm(R32::ebx, 0x64);
  a.xor_mem8_r8(R32::eax, R8::bl);
  a.add_r32_imm(R32::eax, 1);
  a.loop_(head);
  return a.finish();
}

util::Bytes figure_1c() {
  Asm a;
  auto one = a.new_label();
  auto two = a.new_label();
  auto three = a.new_label();
  auto decode = a.new_label();
  a.bind(decode);
  a.mov_r32_imm32(R32::ecx, 0);
  a.inc_r32(R32::ecx);
  a.inc_r32(R32::ecx);
  a.jmp_short(one);
  a.bind(two);
  a.add_r32_imm(R32::eax, 1);
  a.jmp_short(three);
  a.bind(one);
  a.mov_r32_imm32(R32::ebx, 0x31);
  a.add_r32_imm(R32::ebx, 0x64);
  a.xor_mem8_r8(R32::eax, R8::bl);
  a.jmp_short(two);
  a.bind(three);
  a.loop_(decode);
  return a.finish();
}

void evaluate(const char* name, const util::Bytes& code) {
  bench::section(name);
  arch::ScanScratch scratch;
  std::vector<arch::Instruction> trace;
  arch::Arch::x86_32().execution_trace(code, 0, 4096, trace, scratch);
  std::printf("%s", arch::format_listing(arch::linear_sweep(code)).c_str());
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  semantic::LiftedCode lc{&trace, &lifted.events, code};
  const semantic::Template& t = semantic::builtin_template("xor-decrypt-loop");
  auto m = semantic::match_template(t, lc);
  if (m) {
    std::uint32_t key = 0;
    auto it = m->bindings.find("K");
    if (it != m->bindings.end()) ir::is_const(it->second, &key);
    std::printf("=> satisfies '%s' (P |= T), key K = 0x%02x\n", t.name.c_str(), key);
  } else {
    std::printf("=> NO MATCH (unexpected)\n");
  }
}

}  // namespace

int main() {
  bench::title("Figure 1/2: one behaviour template vs three equivalent syntaxes");
  evaluate("(a) simple xor decryption routine", figure_1a());
  evaluate("(b) obfuscated key, substituted advance", figure_1b());
  evaluate("(c) garbage instructions + out-of-order blocks", figure_1c());
  std::printf("\npaper: all three routines match the single Figure-2 template\n");
  return 0;
}
