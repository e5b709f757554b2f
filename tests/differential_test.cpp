// Differential testing: the symbolic lifter (src/ir) and the concrete
// emulator (src/emu) implement IA-32 semantics independently. For random
// straight-line programs over a modeled instruction subset, every
// register value the lifter proves *constant* must equal the value the
// emulator computes. Divergence means one of the two semantics is wrong.
#include <gtest/gtest.h>

#include "one_shot.hpp"
#include "emu/cpu.hpp"
#include "gen/emitter.hpp"
#include "ir/lifter.hpp"
#include "util/prng.hpp"

namespace senids {
namespace {

using gen::Asm;
using gen::R32;
using gen::R8;
using util::Bytes;
using arch::RegFamily;

/// Generate a random straight-line program from instructions both
/// implementations model exactly. Registers are seeded with constants
/// first so most results fold to constants in the lifter.
Bytes random_program(util::Prng& prng, std::size_t insns) {
  Asm a;
  // Deterministic initial constants for eax, ebx, edx, esi, edi (ecx kept
  // free for shifts; esp/ebp untouched).
  const R32 pool[] = {R32::eax, R32::ebx, R32::edx, R32::esi, R32::edi};
  for (R32 r : pool) {
    a.mov_r32_imm32(r, static_cast<std::uint32_t>(prng.next()));
  }
  auto pick = [&] { return pool[prng.below(std::size(pool))]; };
  for (std::size_t i = 0; i < insns; ++i) {
    switch (prng.below(12)) {
      case 0: a.alu_r32_r32(0, pick(), pick()); break;          // add
      case 1: a.alu_r32_r32(5, pick(), pick()); break;          // sub
      case 2: a.alu_r32_r32(6, pick(), pick()); break;          // xor
      case 3: a.alu_r32_r32(1, pick(), pick()); break;          // or
      case 4: a.alu_r32_r32(4, pick(), pick()); break;          // and
      case 5:
        a.alu_r32_imm(static_cast<std::uint8_t>(prng.below(2) ? 0 : 6), pick(),
                      static_cast<std::int32_t>(prng.next() & 0x7fffffff));
        break;
      case 6: a.inc_r32(pick()); break;
      case 7: a.dec_r32(pick()); break;
      case 8: a.mov_r32_r32(pick(), pick()); break;
      case 9: a.not_r32(pick()); break;
      case 10: a.xchg_r32_r32(pick(), pick()); break;
      default:
        a.mov_r8_imm8(gen::low8(static_cast<R32>(prng.below(4) == 1 ? 0 : prng.below(4))),
                      static_cast<std::uint8_t>(prng.next()));
        break;
    }
  }
  a.raw8(0xF4);  // hlt
  return a.finish();
}

class LifterVsEmulator : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LifterVsEmulator, ConstantsAgree) {
  util::Prng prng(GetParam());
  const Bytes code = random_program(prng, 24);

  // Concrete execution.
  emu::VirtualMemory mem(code);
  emu::Cpu cpu(mem, emu::kFrameBase);
  ASSERT_EQ(cpu.run(1000), emu::StopReason::kHalted);

  // Symbolic execution over the same trace.
  auto trace = test::trace(code, 0);
  ir::LiftResult lifted;
  ir::lift(trace, lifted);

  // Final symbolic value per register = last RegWrite event.
  std::array<ir::ExprPtr, 8> final_value{};
  for (const auto& ev : lifted.events) {
    if (ev.kind == ir::EventKind::kRegWrite) {
      final_value[static_cast<unsigned>(ev.reg)] = ev.value;
    }
  }
  int checked = 0;
  for (unsigned f = 0; f < 8; ++f) {
    std::uint32_t sym;
    if (final_value[f] && ir::is_const(final_value[f], &sym)) {
      EXPECT_EQ(sym, cpu.reg(static_cast<RegFamily>(f)))
          << "register family " << f << " seed " << GetParam();
      ++checked;
    }
  }
  // The program seeds five registers with constants and applies pure
  // constant-to-constant ops, so the lifter must fold essentially all of
  // them; require at least the seeded count minus margin.
  EXPECT_GE(checked, 4) << "lifter folded too little; seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LifterVsEmulator,
                         ::testing::Range<std::uint64_t>(0, 64));

/// Stack round-trips: push/pop pairs must agree between the two engines.
class StackDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StackDifferential, PushPopAgree) {
  util::Prng prng(GetParam());
  Asm a;
  const R32 pool[] = {R32::eax, R32::ebx, R32::edx, R32::esi, R32::edi};
  std::vector<R32> pushed;
  for (R32 r : pool) a.mov_r32_imm32(r, static_cast<std::uint32_t>(prng.next()));
  const std::size_t depth = 1 + prng.below(5);
  for (std::size_t i = 0; i < depth; ++i) {
    const R32 r = pool[prng.below(std::size(pool))];
    a.push_r32(r);
    pushed.push_back(r);
  }
  for (std::size_t i = 0; i < depth; ++i) {
    a.pop_r32(pool[prng.below(std::size(pool))]);
  }
  a.raw8(0xF4);
  const Bytes code = a.finish();

  emu::VirtualMemory mem(code);
  emu::Cpu cpu(mem, emu::kFrameBase);
  ASSERT_EQ(cpu.run(1000), emu::StopReason::kHalted);

  auto trace = test::trace(code, 0);
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  std::array<ir::ExprPtr, 8> final_value{};
  for (const auto& ev : lifted.events) {
    if (ev.kind == ir::EventKind::kRegWrite) {
      final_value[static_cast<unsigned>(ev.reg)] = ev.value;
    }
  }
  for (unsigned f = 0; f < 8; ++f) {
    if (f == static_cast<unsigned>(RegFamily::kSp)) continue;
    std::uint32_t sym;
    if (final_value[f] && ir::is_const(final_value[f], &sym)) {
      EXPECT_EQ(sym, cpu.reg(static_cast<RegFamily>(f))) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackDifferential,
                         ::testing::Range<std::uint64_t>(100, 132));

/// Byte-transform agreement: the matcher's invertibility evaluator models
/// rotates with 8-bit semantics; the emulator executes real rotates. For
/// each rotate/shift decoder body, the decoded byte from the emulator
/// must equal direct evaluation.
class ByteTransformDifferential
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ByteTransformDifferential, EmulatorMatchesArithmetic) {
  const auto [subop, count] = GetParam();
  for (int input = 0; input < 256; input += 37) {
    Asm a;
    a.mov_r8_imm8(R8::al, static_cast<std::uint8_t>(input));
    a.shift_r8_imm8(static_cast<std::uint8_t>(subop), R8::al,
                    static_cast<std::uint8_t>(count));
    a.raw8(0xF4);
    const Bytes code = a.finish();
    emu::VirtualMemory mem(code);
    emu::Cpu cpu(mem, emu::kFrameBase);
    ASSERT_EQ(cpu.run(100), emu::StopReason::kHalted);

    const unsigned v = static_cast<unsigned>(input);
    const unsigned n = static_cast<unsigned>(count) & 7;
    unsigned want = 0;
    switch (subop) {
      case 0: want = n ? ((v << n) | (v >> (8 - n))) & 0xff : v; break;  // rol
      case 1: want = n ? ((v >> n) | (v << (8 - n))) & 0xff : v; break;  // ror
      case 4: want = (v << (count & 31)) & 0xff; break;                  // shl
      case 5: want = (v & 0xff) >> (count & 31); break;                  // shr
    }
    EXPECT_EQ(cpu.reg(RegFamily::kAx) & 0xff, want)
        << "subop " << subop << " count " << count << " input " << input;
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, ByteTransformDifferential,
                         ::testing::Combine(::testing::Values(0, 1, 4, 5),
                                            ::testing::Values(1, 3, 5, 7)));

}  // namespace
}  // namespace senids

namespace senids {
namespace {

/// Memory differential: programs that write constants to in-frame
/// scratch addresses and read them back — the lifter's forwarded value
/// and the emulator's byte must agree.
class MemoryDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoryDifferential, StoreLoadRoundTripsAgree) {
  util::Prng prng(GetParam());
  gen::Asm a;
  // Scratch area inside the frame, well past the code.
  const std::uint32_t scratch = 0x100;
  a.mov_r32_imm32(gen::R32::esi, emu::kFrameBase + scratch);
  const std::uint32_t v1 = static_cast<std::uint32_t>(prng.next());
  const std::uint8_t v2 = static_cast<std::uint8_t>(prng.next());
  a.mov_mem_imm32(gen::R32::esi, 0, v1);
  a.mov_mem_imm8(gen::R32::esi, 8, v2);
  a.mov_r32_mem(gen::R32::eax, gen::R32::esi, 0);  // eax = v1
  a.mov_r8_mem(gen::R8::bl, gen::R32::esi, 8);     // bl = v2
  a.alu_r32_r32(0, gen::R32::eax, gen::R32::ebx);  // mix them
  a.raw8(0xF4);
  util::Bytes code = a.finish();
  code.resize(0x200, 0);

  emu::VirtualMemory mem(code);
  emu::Cpu cpu(mem, emu::kFrameBase);
  ASSERT_EQ(cpu.run(1000), emu::StopReason::kHalted);

  // The lifter cannot know ebx's initial upper bits, but the final eax is
  // init-ebx dependent... so compare the *stored memory bytes* instead:
  // both engines must agree on what landed in the frame.
  auto trace = test::trace(code, 0);
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  std::uint32_t lifter_v1 = 0;
  bool found = false;
  for (const auto& ev : lifted.events) {
    if (ev.kind == ir::EventKind::kMemWrite && ev.width == 32 &&
        ir::is_const(ev.value, &lifter_v1)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(lifter_v1, v1);
  EXPECT_EQ(mem.read32(emu::kFrameBase + scratch).value(), v1);
  EXPECT_EQ(mem.read8(emu::kFrameBase + scratch + 8).value(), v2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryDifferential,
                         ::testing::Range<std::uint64_t>(200, 216));

}  // namespace
}  // namespace senids
