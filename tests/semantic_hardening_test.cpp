// Regression tests for the false-positive hardening constraints in the
// template matcher. Each constraint was added to kill a concrete
// coincidental match observed in the Section-5.4 benign corpus; these
// tests pin both directions (real decoders still match, the FP shapes do
// not).
#include <gtest/gtest.h>

#include <chrono>

#include "frame_corpus.hpp"
#include "one_shot.hpp"
#include "gen/emitter.hpp"
#include "ir/lifter.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"

namespace senids::semantic {
namespace {

using gen::Asm;
using gen::R32;
using gen::R8;
using util::Bytes;

std::optional<MatchResult> run_match(const Template& t, const Bytes& code,
                                     std::size_t entry = 0) {
  auto trace = test::trace(code, entry);
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  LiftedCode lc{&trace, &lifted.events, code};
  return match_template(t, lc);
}

bool any_decoder_match(const Bytes& code) {
  for (const auto& t : make_decoder_library()) {
    if (run_match(t, code)) return true;
  }
  return false;
}

// ------------------------------------------------- store width == 8 bits

TEST(Hardening, DwordStoreRejected) {
  // add dword [ecx], imm32 ; dec ecx ; ... ; jcc back — observed FP shape.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.raw({std::initializer_list<std::uint8_t>{0x81, 0x01, 0x9c, 0x26, 0x36, 0x12}});
  // ^ add dword ptr [ecx], 0x1236269c
  a.inc_r32(R32::ecx);
  a.dec_r32(R32::edx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ------------------------------------------- stride equals element size

TEST(Hardening, StrideMismatchRejected) {
  // byte store but the pointer advances by 4 (lodsd-style walk).
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(6, R32::esi, 0x5a);  // xor byte [esi], 0x5a
  a.add_r32_imm(R32::esi, 4);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// --------------------------------------- pointer survives to the back edge

TEST(Hardening, PointerClobberedBeforeBranchRejected) {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(6, R32::esi, 0x5a);
  a.inc_r32(R32::esi);
  a.mov_r32_imm32(R32::esi, 0x1234);  // pointer overwritten: next iteration broken
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ----------------------------------------------- advance is a pure step

TEST(Hardening, MemWritingAdvanceRejected) {
  // movsb advances edi but also overwrites the "decoded" byte.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.raw8(0xC0);  // rol byte ptr [edi], 0xf  => C0 0F 0F
  a.raw8(0x0F);
  a.raw8(0x0F);
  a.raw8(0xA4);  // movsb
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// -------------------------------------------------------- loop discipline

TEST(Hardening, OverflowConditionRejected) {
  // jo-terminated "loop" — no real engine branches on overflow.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(0, R32::ebx, 0x3f);  // add byte [ebx], 0x3f
  a.dec_r32(R32::ebx);
  a.dec_r32(R32::ecx);
  a.jcc(0x0, head);  // jo
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, FlagSourceMustBeRegisterCount) {
  // The nearest flag-setter before the jnz is the memory add itself, not
  // a register counter.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.inc_r32(R32::esi);                 // advance first
  a.alu_mem8_imm8(0, R32::esi, 0x3f);  // add byte [esi], 0x3f (sets flags last)
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ----------------------------------------- counter and pointer separation

TEST(Hardening, PointerAsLoopCounterRejected) {
  // dec edi both advances the pointer and feeds the branch condition.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(5, R32::edi, 0xe9);  // sub byte [edi], 0xe9
  a.dec_r32(R32::edi);
  a.jcc(0x8, head);  // js
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, LoopClassWithEcxPointerRejected) {
  // loop decrements ecx; using ecx as the decode pointer conflates the
  // two roles.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(0, R32::ecx, 0x2f);  // add byte [ecx], 0x2f
  a.dec_r32(R32::ecx);                 // "advance"
  a.loop_(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ------------------------------------------------ invertibility of f(v)

TEST(Hardening, NonInvertibleOrTransformRejected) {
  // or byte [esi], k destroys information: not a decoder.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(1, R32::esi, 0x40);  // or byte [esi], 0x40
  a.inc_r32(R32::esi);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, NonInvertibleAndTransformRejected) {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(4, R32::esi, 0x0f);  // and byte [esi], 0x0f
  a.inc_r32(R32::esi);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, InvertibleNotTransformStillMatches) {
  // not byte [esi] is a bijection built from the alt template's operator
  // set — a legitimate (if degenerate) decode transform... but it has no
  // constant leaf, so the alternate template's key requirement rejects
  // it. Pin that behaviour.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.raw({std::initializer_list<std::uint8_t>{0xF6, 0x16}});  // not byte ptr [esi]
  a.inc_r32(R32::esi);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ------------------------------------------ real decoders still match

TEST(Hardening, CanonicalDecodersStillMatch) {
  // xor via imm, xor via register key, additive, and the or/and/not xor.
  {
    Asm a;
    auto head = a.new_label();
    a.bind(head);
    a.xor_mem8_imm8(R32::esi, 0x42);
    a.inc_r32(R32::esi);
    a.loop_(head);
    EXPECT_TRUE(any_decoder_match(a.finish()));
  }
  {
    Asm a;
    auto head = a.new_label();
    a.bind(head);
    a.alu_mem8_imm8(0, R32::edi, 0x11);  // add byte [edi], 0x11
    a.inc_r32(R32::edi);
    a.dec_r32(R32::ecx);
    a.jnz(head);
    EXPECT_TRUE(any_decoder_match(a.finish()));
  }
  {
    // The Figure-7 or/and/not xor-equivalent is invertible and must pass.
    Asm a;
    auto head = a.new_label();
    a.bind(head);
    a.mov_r8_mem(R8::al, R32::esi);
    a.alu_r8_imm8(1, R8::al, 0x5a);
    a.mov_r8_mem(R8::bl, R32::esi);
    a.alu_r8_imm8(4, R8::bl, 0x5a);
    a.not_r8(R8::bl);
    a.alu_r8_r8(4, R8::al, R8::bl);
    a.mov_mem_r8(R32::esi, 0, R8::al);
    a.inc_r32(R32::esi);
    a.loop_(head);
    EXPECT_TRUE(any_decoder_match(a.finish()));
  }
}

TEST(Hardening, RorDecoderMatchesExtensionTemplate) {
  // The rotate template lives in the extended (opt-in) library.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.mov_r8_mem(R8::al, R32::esi);
  a.shift_r8_imm8(1, R8::al, 3);  // ror al, 3
  a.mov_mem_r8(R32::esi, 0, R8::al);
  a.inc_r32(R32::esi);
  a.loop_(head);
  Bytes code = a.finish();
  EXPECT_FALSE(any_decoder_match(code));  // not in the standard decoder set
  EXPECT_TRUE(run_match(builtin_template("ror-decrypt-loop"), code).has_value());
}

TEST(Hardening, BackwardWalkingDecoderStillMatches) {
  // Decoders may walk downward (dec pointer) with a separate counter.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0x33);
  a.dec_r32(R32::esi);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_TRUE(any_decoder_match(a.finish()));
}

}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

// Constraints added after the 566 MB false-positive sweep; each pins the
// concrete coincidental shape that survived the earlier hardening.

TEST(Hardening, KeyFromPointerRegisterRejected) {
  // add byte [edx], dh — the "key" is carved out of the walking pointer.
  Asm a;
  auto head = a.new_label();
  a.mov_r32_imm32(R32::edx, 0x47549ba2);
  a.bind(head);
  a.raw({std::initializer_list<std::uint8_t>{0x00, 0x32}});  // add [edx], dh
  a.dec_r32(R32::edx);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, JecxzBackedgeRejected) {
  // jecxz loops while ecx is zero: not a count-down loop.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(0, R32::esi, 0x21);  // add byte [esi], 0x21
  a.inc_r32(R32::esi);
  a.jecxz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, StringOpAdvanceRejected) {
  // cmpsb advances esi as a comparison side effect, not a pointer walk.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0xa6);
  a.raw8(0xA6);  // cmpsb
  a.loop_(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, RegisterKeyFromOtherFamilyStillMatches) {
  // Sanity: a key in a register of a *different* family is legitimate.
  Asm a;
  auto head = a.new_label();
  a.mov_r8_imm8(R8::bl, 0x42);
  a.bind(head);
  a.xor_mem8_r8(R32::esi, R8::bl);
  a.inc_r32(R32::esi);
  a.loop_(head);
  EXPECT_TRUE(any_decoder_match(a.finish()));
}

}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

TEST(Hardening, GarbageCounterInitRejected) {
  // The counter register holds a junk-derived (non-constant-foldable)
  // value at loop entry: not a plausible length.
  Asm a;
  auto head = a.new_label();
  a.mov_r32_mem(R32::ecx, R32::esp);  // ecx = some runtime value
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0x42);
  a.inc_r32(R32::esi);
  a.loop_(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, HugeCounterInitRejected) {
  Asm a;
  auto head = a.new_label();
  a.mov_r32_imm32(R32::ecx, 0x40000000);  // 1 GiB "payload": implausible
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0x42);
  a.inc_r32(R32::esi);
  a.loop_(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, UninitializedCounterStillAccepted) {
  // Figure 1 shape: the snippet assumes the caller set ecx.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::eax, 0x95);
  a.inc_r32(R32::eax);
  a.loop_(head);
  EXPECT_TRUE(any_decoder_match(a.finish()));
}

TEST(Hardening, ConstCounterInitAccepted) {
  Asm a;
  auto head = a.new_label();
  a.mov_r32_imm32(R32::ecx, 128);
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0x42);
  a.inc_r32(R32::esi);
  a.loop_(head);
  EXPECT_TRUE(any_decoder_match(a.finish()));
}

// ------------------------------------------ attempt cap (safety valve)

/// A hand-built event stream whose first match costs a known number of
/// search attempts: `n` register writes of the constants 1..n, then one
/// store of the constant n. The template binds K at a register write and
/// demands a later store of K, so every register write but the last
/// fails only after scanning the rest of the stream. Attempts up to the
/// match: n for the first statement plus n + (n-1) + ... + 2 + 1 for the
/// second, i.e. n + n(n+1)/2.
struct CapProbe {
  std::vector<arch::Instruction> trace;
  std::vector<ir::Event> events;
  ir::ExprArena arena;
  LiftedCode code() const { return LiftedCode{&trace, &events, {}}; }
};

CapProbe make_cap_probe(std::size_t n) {
  CapProbe p;
  p.trace.resize(n + 1);
  p.events.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    ir::Event& ev = p.events[i];
    ev.insn_index = i;
    ev.insn_offset = i;
    ev.kind = i < n ? ir::EventKind::kRegWrite : ir::EventKind::kMemWrite;
    ev.value = p.arena.mk_const(static_cast<std::uint32_t>(i < n ? i + 1 : n));
    if (i == n) ev.addr = p.arena.mk_const(0x1000);
  }
  return p;
}

TEST(Hardening, AttemptCapBoundsSearch) {
  Template t;
  t.name = "bind-then-store";
  t.stmts.push_back(st_reg_write(p_const("K")));
  t.stmts.push_back(st_mem_write(p_any(), p_const("K")));
  auto attempts = [](std::size_t n) { return n + n * (n + 1) / 2; };
  std::size_t n = 1;
  while (attempts(n + 1) <= kMatchAttemptCap) ++n;

  // The largest stream whose only match lies within the cap still matches.
  const CapProbe within = make_cap_probe(n);
  auto m = match_template(t, within.code());
  ASSERT_TRUE(m);
  EXPECT_EQ(m->matched_events, (std::vector<std::size_t>{n - 1, n}));

  // One more register write pushes the only match past the cap.
  const CapProbe beyond = make_cap_probe(n + 1);
  EXPECT_FALSE(match_template(t, beyond.code()));
}

// ------------------------------------------- bindings on shared subtrees

TEST(Hardening, SharedSubtreeBindingRendersBounded) {
  // 40 x `add esi, esi` before a xor decoder: each doubling is add(x, x)
  // over one shared node, so the pointer the decoder walks is a DAG of 41
  // nodes whose tree has 2^40 leaves. The detection must still be made,
  // and rendering its bindings must stop early instead of unfolding it.
  Bytes code;
  for (int i = 0; i < 40; ++i) code.insert(code.end(), {0x01, 0xf6});  // add esi, esi
  code.insert(code.end(), {0x80, 0x36, 0x95,                          // xor byte [esi], 0x95
                           0x46,                                      // inc esi
                           0xe2, 0xfa});                              // loop xor
  SemanticAnalyzer analyzer(make_standard_library());
  const auto detections = test::analyze(analyzer, code);
  ASSERT_FALSE(detections.empty());
  bool cut = false;
  for (const auto& d : detections) {
    for (const auto& [var, value] : d.bindings) {
      EXPECT_LE(value.size(), 1100u) << var;
      cut = cut || value.ends_with("...");
    }
  }
  EXPECT_TRUE(cut);
}

// ------------------------------------------ DAG-shaped hostile inputs

/// Seconds `analyze` takes on `frame` with the standard library, and the
/// detections it makes.
std::pair<double, std::vector<Detection>> timed_analyze(const Bytes& frame) {
  const SemanticAnalyzer analyzer(make_standard_library());
  const auto t0 = std::chrono::steady_clock::now();
  auto detections = test::analyze(analyzer, frame);
  return {std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(),
          std::move(detections)};
}

TEST(Hardening, EqualLaddersLiftInBoundedTime) {
  // `xor eax, ebx` over two equal, separately built or/not ladders: the
  // simplifier's x ^ x test compares two DAGs whose trees have 2^40
  // leaves. Linear code takes milliseconds.
  const auto [seconds, detections] = timed_analyze(test_corpus::equal_ladders(40));
  EXPECT_LT(seconds, 2.0);
  EXPECT_TRUE(detections.empty());
}

TEST(Hardening, LadderDecoderMatchesInBoundedTime) {
  // A decoder loop whose stored byte is a 40-step or/not ladder: it
  // passes the alternate ADMmutate decoder's transform, so the transform
  // walk and the invertibility check run over a DAG whose tree has 2^40
  // leaves. x | ~x is 0xff for every input, so no decoder fires.
  const Bytes frame = test_corpus::ladder_decoder(40);
  const auto [seconds, detections] = timed_analyze(frame);
  EXPECT_LT(seconds, 2.0);
  EXPECT_TRUE(detections.empty());
  EXPECT_FALSE(run_match(builtin_template("admmutate-alt-decoder"), frame));
}

}  // namespace
}  // namespace senids::semantic
