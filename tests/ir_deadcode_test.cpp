#include <gtest/gtest.h>

#include "one_shot.hpp"
#include "gen/emitter.hpp"
#include "gen/poly.hpp"
#include "ir/deadcode.hpp"

namespace senids::ir {
namespace {

using gen::Asm;
using gen::R32;
using util::Bytes;

DeadCodeResult analyze(const Bytes& code, arch::RegSet exit_live = {}) {
  auto trace = test::trace(code, 0);
  return find_dead_code(trace, exit_live);
}

TEST(DeadCode, OverwrittenDefIsDead) {
  Asm a;
  a.mov_r32_imm32(R32::eax, 1);   // dead: overwritten below, never read
  a.mov_r32_imm32(R32::eax, 2);
  a.push_r32(R32::eax);           // observes eax
  Bytes code = a.finish();
  auto r = analyze(code);
  ASSERT_EQ(r.dead.size(), 3u);
  EXPECT_TRUE(r.dead[0]);
  EXPECT_FALSE(r.dead[1]);
  EXPECT_FALSE(r.dead[2]);
}

TEST(DeadCode, UsedDefIsLive) {
  Asm a;
  a.mov_r32_imm32(R32::eax, 1);
  a.alu_r32_r32(0, R32::ebx, R32::eax);  // add ebx, eax: reads eax
  a.push_r32(R32::ebx);
  auto r = analyze(a.finish());
  EXPECT_FALSE(r.dead[0]);
}

TEST(DeadCode, CmpWithoutBranchIsDead) {
  Asm a;
  a.cmp_r32_imm8(R32::eax, 5);  // flags never consumed
  a.push_r32(R32::eax);
  auto r = analyze(a.finish());
  EXPECT_TRUE(r.dead[0]);
}

TEST(DeadCode, CmpFeedingBranchIsLive) {
  Asm a;
  auto skip = a.new_label();
  a.cmp_r32_imm8(R32::eax, 5);
  a.jcc(0x5, skip);  // jne consumes the flags
  a.nop();
  a.bind(skip);
  a.ret();
  auto r = analyze(a.finish());
  EXPECT_FALSE(r.dead[0]);
}

TEST(DeadCode, StoresAndSyscallsNeverDead) {
  Asm a;
  a.mov_mem_imm8(R32::eax, 0, 0x41);  // memory write: observable
  a.int_imm(0x80);                    // side effect
  auto r = analyze(a.finish());
  EXPECT_FALSE(r.dead[0]);
  EXPECT_FALSE(r.dead[1]);
}

TEST(DeadCode, ExitLivenessKeepsFinalDefs) {
  Asm a;
  a.mov_r32_imm32(R32::eax, 7);  // live only if the caller says eax matters
  Bytes code = a.finish();
  EXPECT_TRUE(analyze(code).dead[0]);
  EXPECT_FALSE(analyze(code, arch::RegSet::all()).dead[0]);
}

TEST(DeadCode, FlagsKilledByLaterDef) {
  Asm a;
  auto lbl = a.new_label();
  a.cmp_r32_imm8(R32::eax, 1);    // dead: flags re-defined before the jcc
  a.cmp_r32_imm8(R32::ebx, 2);    // live: feeds the branch
  a.jcc(0x4, lbl);                // je
  a.bind(lbl);
  a.ret();
  auto r = analyze(a.finish());
  EXPECT_TRUE(r.dead[0]);
  EXPECT_FALSE(r.dead[1]);
}

TEST(DeadCode, FindsInjectedJunkInPolymorphicDecoder) {
  // The engine's junk operates on registers the decoder never reads: a
  // substantial fraction must be flagged dead while the decoder core
  // (store, advance, counter, branch) stays live.
  util::Prng prng(17);
  gen::PolyOptions opts;
  opts.junk_prob = 0.9;
  auto poly = gen::admmutate_encode(util::to_bytes("PAYLOADBYTES"), prng, opts);
  auto trace = test::trace(poly.bytes, 0);
  auto r = find_dead_code(trace);
  EXPECT_GT(r.dead_count, 0u);
  // The decoder's own instructions must not be flagged: the memory store
  // is observable by definition; check it explicitly.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto du = arch::def_use(trace[i]);
    if (du.mem_write || du.side_effect) EXPECT_FALSE(r.dead[i]) << i;
  }
}

TEST(DeadCode, BswapDoesNotKillFlagProducer) {
  // Regression: bswap carried a phantom flags_def, so a comparison
  // followed by bswap + conditional branch looked dead and could be
  // deleted out from under the branch.
  static const std::uint8_t kCode[] = {
      0x39, 0xD8,        // cmp eax, ebx   (flag producer)
      0x0F, 0xC9,        // bswap ecx      (must NOT clobber flags)
      0x75, 0xFA,        // jne -6         (flag consumer)
  };
  auto trace = arch::linear_sweep(kCode, 0);
  ASSERT_EQ(trace.size(), 3u);
  const auto du = arch::def_use(trace[1]);
  EXPECT_FALSE(du.flags_def);
  auto r = find_dead_code(trace);
  EXPECT_FALSE(r.dead[0]);
}

TEST(DeadCode, IntoReadsFlags) {
  // Regression: into traps on OF, so it must count as a flag consumer —
  // otherwise the arithmetic that sets OF looks dead.
  static const std::uint8_t kCode[] = {
      0x01, 0xD8,  // add eax, ebx (sets OF)
      0xCE,        // into
  };
  auto trace = arch::linear_sweep(kCode, 0);
  ASSERT_EQ(trace.size(), 2u);
  const auto du = arch::def_use(trace[1]);
  EXPECT_TRUE(du.flags_use);
  EXPECT_TRUE(du.side_effect);
}

TEST(DeadCode, RepStringReadsAndWritesCounter) {
  // Regression: rep movsd consumes ecx, so the `mov ecx, N` feeding it
  // must stay live.
  static const std::uint8_t kCode[] = {
      0xB9, 0x10, 0x00, 0x00, 0x00,  // mov ecx, 16
      0xF3, 0xA5,                    // rep movsd
  };
  auto trace = arch::linear_sweep(kCode, 0);
  ASSERT_EQ(trace.size(), 2u);
  auto r = find_dead_code(trace);
  EXPECT_FALSE(r.dead[0]);
}

TEST(DeadCode, ByteWriteKeepsTheRestOfTheRegisterLive) {
  // `mov cl, 0x10` replaces only the low byte of ecx, and `loop` reads all
  // of ecx: the xor that cleared the upper 24 bits is live.
  Asm a;
  a.xor_r32_r32(R32::ecx, R32::ecx);
  a.mov_r8_imm8(gen::R8::cl, 0x10);
  auto head = a.new_label();
  a.bind(head);
  a.inc_r32(R32::esi);
  a.loop_(head);
  auto r = analyze(a.finish());
  ASSERT_EQ(r.dead.size(), 4u);
  EXPECT_FALSE(r.dead[0]) << "xor ecx, ecx";
  EXPECT_FALSE(r.dead[1]) << "mov cl, 0x10";
}

TEST(DeadCode, FullWidthWriteStillKills) {
  // A 32-bit write replaces the whole register: the xor before it is dead.
  Asm a;
  a.xor_r32_r32(R32::ecx, R32::ecx);
  a.mov_r32_imm32(R32::ecx, 0x10);
  auto head = a.new_label();
  a.bind(head);
  a.inc_r32(R32::esi);
  a.loop_(head);
  auto r = analyze(a.finish());
  ASSERT_EQ(r.dead.size(), 4u);
  EXPECT_TRUE(r.dead[0]);
  EXPECT_FALSE(r.dead[1]);
}

TEST(DeadCode, HighRegisterLivenessCrossesInstructions) {
  // On x86-64, r8 is read two instructions after it is written: the mov
  // is live, as it is for a low register at the same distance.
  static const std::uint8_t kCode[] = {
      0x49, 0xC7, 0xC0, 0x01, 0x00, 0x00, 0x00,  // mov r8, 1
      0x90,                                      // nop
      0x41, 0x50,                                // push r8
  };
  const auto trace = arch::linear_sweep(kCode, 0, SIZE_MAX, arch::Mode::k64);
  ASSERT_EQ(trace.size(), 3u);
  const auto r = find_dead_code(trace);
  EXPECT_FALSE(r.dead[0]) << "mov r8, 1";
  EXPECT_FALSE(r.dead[2]) << "push r8";
}

TEST(DeadCode, EmptyTrace) {
  auto r = find_dead_code({});
  EXPECT_EQ(r.dead_count, 0u);
  EXPECT_TRUE(r.dead.empty());
}

}  // namespace
}  // namespace senids::ir
