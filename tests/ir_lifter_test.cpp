#include <gtest/gtest.h>

#include "one_shot.hpp"
#include "gen/emitter.hpp"
#include "ir/lifter.hpp"

namespace senids::ir {
namespace {

using gen::Asm;
using gen::R32;
using gen::R8;
using util::Bytes;
using arch::RegFamily;

/// Returned by value: the move keeps every node of the arena in place.
LiftResult lift_code(const Bytes& code, std::size_t entry = 0) {
  LiftResult r;
  lift(test::trace(code, entry), r);
  return r;
}

const Event* find_mem_write(const LiftResult& r, std::size_t nth = 0) {
  std::size_t seen = 0;
  for (const Event& e : r.events) {
    if (e.kind == EventKind::kMemWrite && seen++ == nth) return &e;
  }
  return nullptr;
}

const Event* find_syscall(const LiftResult& r) {
  for (const Event& e : r.events) {
    if (e.kind == EventKind::kSyscall) return &e;
  }
  return nullptr;
}

TEST(Lifter, MovImmediateWritesConst) {
  Asm a;
  a.mov_r32_imm32(R32::ebx, 0x1234);
  auto r = lift_code(a.finish());
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].kind, EventKind::kRegWrite);
  EXPECT_EQ(r.events[0].reg, RegFamily::kBx);
  std::uint32_t v;
  ASSERT_TRUE(is_const(r.events[0].value, &v));
  EXPECT_EQ(v, 0x1234u);
}

TEST(Lifter, XorZeroingGivesConstZero) {
  Asm a;
  a.xor_r32_r32(R32::eax, R32::eax);
  auto r = lift_code(a.finish());
  std::uint32_t v;
  ASSERT_TRUE(is_const(r.events[0].value, &v));
  EXPECT_EQ(v, 0u);
}

TEST(Lifter, SplitKeyConstructionFolds) {
  // mov ebx, 0x31 ; add ebx, 0x64 -> ebx == 0x95 (Figure 1(b)).
  Asm a;
  a.mov_r32_imm32(R32::ebx, 0x31);
  a.add_r32_imm(R32::ebx, 0x64);
  auto r = lift_code(a.finish());
  std::uint32_t v;
  ASSERT_TRUE(is_const(r.events.back().value, &v));
  EXPECT_EQ(v, 0x95u);
}

TEST(Lifter, SubRegisterWriteReadsBackConst) {
  // xor eax,eax ; mov al, 0x0b : eax must be the constant 0x0b.
  Asm a;
  a.xor_r32_r32(R32::eax, R32::eax);
  a.mov_r8_imm8(R8::al, 0x0b);
  auto r = lift_code(a.finish());
  std::uint32_t v;
  ASSERT_TRUE(is_const(r.events.back().value, &v));
  EXPECT_EQ(v, 0x0bu);
}

TEST(Lifter, SubRegisterWriteOverUnknownKeepsLowByte) {
  // mov bl, 0x42 over an uninitialized ebx: the merge expression must
  // still expose low byte 0x42 when bl is read back (checked via a xor).
  Asm a;
  a.mov_r8_imm8(R8::bl, 0x42);
  a.xor_mem8_r8(R32::eax, R8::bl);
  auto r = lift_code(a.finish());
  const Event* store = find_mem_write(r);
  ASSERT_NE(store, nullptr);
  // Value is Xor(load8(init eax), 0x42): the bl read collapsed to const.
  ASSERT_EQ(store->value->kind, ExprKind::kBin);
  EXPECT_EQ(store->value->bop, BinOp::kXor);
  std::uint32_t v;
  ASSERT_TRUE(is_const(store->value->rhs, &v));
  EXPECT_EQ(v, 0x42u);
}

TEST(Lifter, XorDecoderStoreShape) {
  // xor byte [eax], 0x95: canonical decoder event.
  Asm a;
  a.xor_mem8_imm8(R32::eax, 0x95);
  auto r = lift_code(a.finish());
  const Event* store = find_mem_write(r);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->width, 8);
  EXPECT_EQ(to_string(store->addr), "init(eax)");
  EXPECT_EQ(to_string(store->value), "xor(load8@0(init(eax)), 0x95)");
}

TEST(Lifter, SplitLoadModifyStoreSameShape) {
  // mov dl,[eax]; xor dl,0x95; mov [eax],dl — semantically identical to
  // the single-instruction form; the stored value must normalize to the
  // same expression.
  Asm a;
  a.mov_r8_mem(R8::dl, R32::eax);
  a.alu_r8_imm8(6, R8::dl, 0x95);
  a.mov_mem_r8(R32::eax, 0, R8::dl);
  auto r = lift_code(a.finish());
  const Event* store = find_mem_write(r);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(to_string(store->value), "xor(load8@0(init(eax)), 0x95)");
}

TEST(Lifter, PushStoresValueAndMovesEsp) {
  Asm a;
  a.push_imm32(0x6e69622f);
  auto r = lift_code(a.finish());
  const Event* store = find_mem_write(r);
  ASSERT_NE(store, nullptr);
  std::uint32_t v;
  ASSERT_TRUE(is_const(store->value, &v));
  EXPECT_EQ(v, 0x6e69622fu);
  EXPECT_EQ(to_string(store->addr), "add(init(esp), 0xfffffffc)");
}

TEST(Lifter, PushPopForwardsValue) {
  Asm a;
  a.push_imm8(0x0b);
  a.pop_r32(R32::eax);
  auto r = lift_code(a.finish());
  std::uint32_t v;
  ASSERT_TRUE(is_const(r.events.back().value, &v));
  EXPECT_EQ(v, 0x0bu);
}

TEST(Lifter, StackedPushesPopInOrder) {
  Asm a;
  a.push_imm32(0xAAAA);
  a.push_imm32(0xBBBB);
  a.pop_r32(R32::eax);  // 0xBBBB
  a.pop_r32(R32::ebx);  // 0xAAAA (needs the no-alias skip over the newer store)
  auto r = lift_code(a.finish());
  std::uint32_t va = 0, vb = 0;
  const Event* wa = nullptr;
  const Event* wb = nullptr;
  for (const Event& e : r.events) {
    if (e.kind == EventKind::kRegWrite && e.reg == RegFamily::kAx) wa = &e;
    if (e.kind == EventKind::kRegWrite && e.reg == RegFamily::kBx) wb = &e;
  }
  ASSERT_TRUE(wa && wb);
  ASSERT_TRUE(is_const(wa->value, &va));
  ASSERT_TRUE(is_const(wb->value, &vb));
  EXPECT_EQ(va, 0xBBBBu);
  EXPECT_EQ(vb, 0xAAAAu);
}

TEST(Lifter, MovEbxEspTracksDerivedPointer) {
  Asm a;
  a.push_imm32(0x6e69622f);
  a.mov_r32_r32(R32::ebx, R32::esp);
  auto r = lift_code(a.finish());
  EXPECT_EQ(to_string(r.events.back().value), "add(init(esp), 0xfffffffc)");
}

TEST(Lifter, CallPushesReturnAddressConstant) {
  // jmp get; main: pop ebx; get: call main — ebx must be the constant
  // offset of the byte after the call (the GetPC idiom).
  Asm a;
  auto lmain = a.new_label();
  auto lget = a.new_label();
  a.jmp_short(lget);
  a.bind(lmain);
  a.pop_r32(R32::ebx);
  a.ret();
  a.bind(lget);
  a.call(lmain);
  Bytes code = a.finish();
  const std::size_t after_call = code.size();  // call is the last instruction

  auto r = lift_code(code);
  const Event* ebx_write = nullptr;
  for (const Event& e : r.events) {
    if (e.kind == EventKind::kRegWrite && e.reg == RegFamily::kBx) ebx_write = &e;
  }
  ASSERT_NE(ebx_write, nullptr);
  std::uint32_t v;
  ASSERT_TRUE(is_const(ebx_write->value, &v));
  EXPECT_EQ(v, after_call);
}

TEST(Lifter, IncBecomesAddOne) {
  Asm a;
  a.inc_r32(R32::esi);
  auto r = lift_code(a.finish());
  EXPECT_EQ(to_string(r.events[0].value), "add(init(esi), 0x1)");
}

TEST(Lifter, LeaAdvanceMatchesIncShape) {
  Asm a1, a2;
  a1.inc_r32(R32::esi);
  a2.lea(R32::esi, R32::esi, 1);
  auto r1 = lift_code(a1.finish());
  auto r2 = lift_code(a2.finish());
  EXPECT_TRUE(struct_eq(r1.events[0].value, r2.events[0].value));
}

TEST(Lifter, SubMinusOneMatchesIncShape) {
  Asm a1, a2;
  a1.inc_r32(R32::edi);
  a2.sub_r32_imm(R32::edi, -1);
  auto r1 = lift_code(a1.finish());
  auto r2 = lift_code(a2.finish());
  EXPECT_TRUE(struct_eq(r1.events[0].value, r2.events[0].value));
}

TEST(Lifter, SyscallCapturesRegisters) {
  Asm a;
  a.xor_r32_r32(R32::eax, R32::eax);
  a.mov_r8_imm8(R8::al, 0x0b);
  a.mov_r32_imm32(R32::ebx, 0x1000);
  a.int_imm(0x80);
  auto r = lift_code(a.finish());
  const Event* sys = find_syscall(r);
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->vector, 0x80);
  std::uint32_t v;
  ASSERT_TRUE(is_const(sys->syscall_regs[static_cast<unsigned>(RegFamily::kAx)], &v));
  EXPECT_EQ(v, 0x0bu);
  ASSERT_TRUE(is_const(sys->syscall_regs[static_cast<unsigned>(RegFamily::kBx)], &v));
  EXPECT_EQ(v, 0x1000u);
}

TEST(Lifter, SyscallClobbersEax) {
  Asm a;
  a.mov_r32_imm32(R32::eax, 1);
  a.int_imm(0x80);
  a.mov_r32_r32(R32::ebx, R32::eax);
  auto r = lift_code(a.finish());
  // ebx's new value must NOT be const 1 (the kernel overwrote eax).
  std::uint32_t v;
  EXPECT_FALSE(is_const(r.events.back().value, &v));
}

TEST(Lifter, BranchEventsCarryTargets) {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.inc_r32(R32::eax);
  a.loop_(head);
  auto r = lift_code(a.finish());
  const Event* branch = nullptr;
  for (const Event& e : r.events) {
    if (e.kind == EventKind::kBranch) branch = &e;
  }
  ASSERT_NE(branch, nullptr);
  EXPECT_TRUE(branch->conditional);
  ASSERT_TRUE(branch->target.has_value());
  EXPECT_EQ(*branch->target, 0u);
  EXPECT_TRUE(branch->backward);
}

TEST(Lifter, LoopDecrementsEcx) {
  Asm a;
  auto head = a.new_label();
  a.mov_r32_imm32(R32::ecx, 10);
  a.bind(head);
  a.nop();
  a.loop_(head);
  auto r = lift_code(a.finish());
  // Find the ecx write produced by loop: value must be const 9.
  bool found = false;
  for (const Event& e : r.events) {
    std::uint32_t v;
    if (e.kind == EventKind::kRegWrite && e.reg == RegFamily::kCx && is_const(e.value, &v) &&
        v == 9) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lifter, StosWritesAtEdi) {
  Asm a;
  a.raw8(0xAA);  // stosb
  auto r = lift_code(a.finish());
  const Event* store = find_mem_write(r);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->width, 8);
  EXPECT_EQ(to_string(store->addr), "init(edi)");
}

TEST(Lifter, XchgSwapsValues) {
  Asm a;
  a.mov_r32_imm32(R32::eax, 1);
  a.mov_r32_imm32(R32::ebx, 2);
  a.xchg_r32_r32(R32::eax, R32::ebx);
  a.mov_r32_r32(R32::ecx, R32::eax);  // ecx = 2
  auto r = lift_code(a.finish());
  std::uint32_t v;
  ASSERT_TRUE(is_const(r.events.back().value, &v));
  EXPECT_EQ(v, 2u);
}

TEST(Lifter, NotBuildsUnaryExpr) {
  Asm a;
  a.mov_r8_mem(R8::bl, R32::esi);
  a.not_r8(R8::bl);
  a.mov_mem_r8(R32::esi, 0, R8::bl);
  auto r = lift_code(a.finish());
  const Event* store = find_mem_write(r);
  ASSERT_NE(store, nullptr);
  // Stored value: And(Not(load8), 0xff) — the mask survives since Not
  // smears high bits.
  EXPECT_EQ(to_string(store->value), "and(not(load8@0(init(esi))), 0xff)");
}

TEST(Lifter, UnmodeledInstructionCountsApproximated) {
  Asm a;
  a.cdq();  // modeled as a clobber
  auto r = lift_code(a.finish());
  EXPECT_EQ(r.approximated, 0u);  // cdq is an exact clobber of edx, not approximated
  Asm b;
  b.raw8(0x0F);
  b.raw8(0x31);  // rdtsc
  auto r2 = lift_code(b.finish());
  EXPECT_GE(r2.approximated, 1u);
}

TEST(Lifter, EmptyTrace) {
  LiftResult r;
  lift({}, r);
  EXPECT_TRUE(r.events.empty());
  EXPECT_EQ(r.approximated, 0u);
}

TEST(Lifter, ReusedResultMatchesFreshLift) {
  // Lifting into a result that already holds a longer trace releases the
  // old events and nodes: what is left is exactly a fresh lift.
  Asm big;
  for (int i = 0; i < 200; ++i) big.xor_mem8_imm8(R32::eax, static_cast<std::uint8_t>(i));
  Asm small;
  small.mov_r32_imm32(R32::ebx, 0x1000);
  small.xor_mem8_imm8(R32::ebx, 0x95);
  const Bytes small_code = small.finish();
  LiftResult reused = lift_code(big.finish());
  lift(test::trace(small_code, 0), reused);
  const LiftResult fresh = lift_code(small_code);
  ASSERT_EQ(reused.events.size(), fresh.events.size());
  for (std::size_t i = 0; i < fresh.events.size(); ++i) {
    EXPECT_EQ(reused.events[i].kind, fresh.events[i].kind) << i;
    EXPECT_EQ(to_string(reused.events[i].value), to_string(fresh.events[i].value)) << i;
    EXPECT_EQ(to_string(reused.events[i].addr), to_string(fresh.events[i].addr)) << i;
  }
}

}  // namespace
}  // namespace senids::ir

namespace senids::ir {
namespace {

using gen::Asm;
using gen::R32;
using util::Bytes;
using arch::RegFamily;

TEST(LifterMore, PushaPopaRoundTripRegisters) {
  Asm a;
  a.mov_r32_imm32(R32::ebx, 0x42);
  a.raw8(0x60);  // pusha
  a.mov_r32_imm32(R32::ebx, 0x99);
  a.raw8(0x61);  // popa: ebx restored
  a.mov_r32_r32(R32::edx, R32::ebx);
  auto r = lift_code(a.finish());
  std::uint32_t v = 0;
  ASSERT_FALSE(r.events.empty());
  ASSERT_TRUE(is_const(r.events.back().value, &v));
  EXPECT_EQ(v, 0x42u);
}

TEST(LifterMore, LeaveRestoresFrame) {
  Asm a;
  a.mov_r32_imm32(R32::ebp, 0x1000);  // fake frame pointer
  a.push_r32(R32::ebp);               // [esp] = 0x1000
  a.mov_r32_r32(R32::ebp, R32::esp);  // enter-style prologue
  a.sub_r32_imm(R32::esp, 8);
  a.raw8(0xC9);                       // leave: esp = ebp; pop ebp
  a.mov_r32_r32(R32::eax, R32::ebp);  // eax = restored 0x1000
  auto r = lift_code(a.finish());
  std::uint32_t v = 0;
  ASSERT_TRUE(is_const(r.events.back().value, &v));
  EXPECT_EQ(v, 0x1000u);
}

TEST(LifterMore, MoffsStoreProducesAbsoluteAddress) {
  Asm a;
  a.raw8(0xA2);  // mov [moffs8], al
  a.raw8(0x44);
  a.raw8(0x33);
  a.raw8(0x22);
  a.raw8(0x11);
  auto r = lift_code(a.finish());
  const Event* store = nullptr;
  for (const auto& ev : r.events) {
    if (ev.kind == EventKind::kMemWrite) store = &ev;
  }
  ASSERT_NE(store, nullptr);
  std::uint32_t addr = 0;
  ASSERT_TRUE(is_const(store->addr, &addr));
  EXPECT_EQ(addr, 0x11223344u);
  EXPECT_EQ(store->width, 8);
}

TEST(LifterMore, XchgWithMemory) {
  Asm a;
  a.mov_r32_imm32(R32::ebx, 7);
  a.raw8(0x87);  // xchg [eax], ebx
  a.raw8(0x18);
  auto r = lift_code(a.finish());
  // One store of the old ebx (7) at [eax]; ebx now holds the load.
  bool store_of_7 = false;
  for (const auto& ev : r.events) {
    std::uint32_t v;
    if (ev.kind == EventKind::kMemWrite && is_const(ev.value, &v) && v == 7) {
      store_of_7 = true;
    }
  }
  EXPECT_TRUE(store_of_7);
}

TEST(LifterMore, EnterEmitsFramePush) {
  Asm a;
  a.raw8(0xC8);  // enter 0x10, 0
  a.raw8(0x10);
  a.raw8(0x00);
  a.raw8(0x00);
  auto r = lift_code(a.finish());
  bool pushed_ebp = false;
  for (const auto& ev : r.events) {
    if (ev.kind == EventKind::kMemWrite && ir::to_string(ev.value) == "init(ebp)") {
      pushed_ebp = true;
    }
  }
  EXPECT_TRUE(pushed_ebp);
}

}  // namespace
}  // namespace senids::ir
