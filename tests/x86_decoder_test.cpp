#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "arch/decoder.hpp"
#include "arch/defuse.hpp"
#include "arch/format.hpp"

namespace senids::arch {
namespace {

using util::Bytes;

Instruction decode_bytes(std::initializer_list<std::uint8_t> bytes) {
  Bytes b(bytes);
  return decode(b, 0);
}

/// Decode and render; empty string when invalid.
std::string disasm(std::initializer_list<std::uint8_t> bytes) {
  Instruction insn = decode_bytes(bytes);
  if (!insn.valid()) return "";
  return format(insn);
}

// ---------------------------------------------------------- single forms

TEST(Decoder, Nop) {
  Instruction i = decode_bytes({0x90});
  EXPECT_EQ(i.mnemonic, Mnemonic::kNop);
  EXPECT_EQ(i.length, 1);
}

TEST(Decoder, MovR32Imm32) {
  Instruction i = decode_bytes({0xB8, 0x78, 0x56, 0x34, 0x12});
  EXPECT_EQ(i.mnemonic, Mnemonic::kMov);
  EXPECT_EQ(i.length, 5);
  EXPECT_EQ(i.ops[0].reg, kEax);
  EXPECT_EQ(i.ops[1].imm(), 0x12345678);
  EXPECT_EQ(disasm({0xBB, 0x31, 0x00, 0x00, 0x00}), "mov ebx, 0x31");
}

TEST(Decoder, MovR8Imm8) {
  EXPECT_EQ(disasm({0xB0, 0x0b}), "mov al, 0xb");
  EXPECT_EQ(disasm({0xB3, 0x95}), "mov bl, 0x95");  // byte imm is zero-extended
  EXPECT_EQ(disasm({0xB7, 0x01}), "mov bh, 0x1");
}

TEST(Decoder, XorMem8Imm8) {
  // xor byte ptr [eax], 0x95  (Figure 1(a)'s key instruction)
  Instruction i = decode_bytes({0x80, 0x30, 0x95});
  EXPECT_EQ(i.mnemonic, Mnemonic::kXor);
  ASSERT_EQ(i.ops[0].kind, OperandKind::kMem);
  EXPECT_EQ(i.ops[0].mem().base, kEax);
  EXPECT_EQ(i.ops[0].mem().width, RegWidth::k8Lo);
  EXPECT_EQ(disasm({0x80, 0x30, 0x95}), "xor byte ptr [eax], 0x95");
}

TEST(Decoder, XorMem8Reg8) {
  // xor byte ptr [eax], bl
  Instruction i = decode_bytes({0x30, 0x18});
  EXPECT_EQ(i.mnemonic, Mnemonic::kXor);
  EXPECT_EQ(i.ops[0].kind, OperandKind::kMem);
  EXPECT_EQ(i.ops[1].reg.name(), "bl");
}

TEST(Decoder, IncDecPushPop) {
  EXPECT_EQ(disasm({0x40}), "inc eax");
  EXPECT_EQ(disasm({0x4F}), "dec edi");
  EXPECT_EQ(disasm({0x53}), "push ebx");
  EXPECT_EQ(disasm({0x5D}), "pop ebp");
}

TEST(Decoder, LoopAndJecxz) {
  // loop -5 from offset 0: target = 2 + (-5) -> negative (out of buffer)
  Instruction i = decode_bytes({0xE2, 0xFB});
  EXPECT_EQ(i.mnemonic, Mnemonic::kLoop);
  EXPECT_FALSE(i.branch_target().has_value());  // negative target

  Bytes code{0x90, 0x90, 0x90, 0xE2, 0xFB};
  Instruction j = decode(code, 3);
  ASSERT_TRUE(j.branch_target().has_value());
  EXPECT_EQ(*j.branch_target(), 0u);  // 5 - 5

  EXPECT_EQ(decode_bytes({0xE3, 0x10}).mnemonic, Mnemonic::kJecxz);
  EXPECT_EQ(decode_bytes({0xE0, 0x10}).mnemonic, Mnemonic::kLoopne);
  EXPECT_EQ(decode_bytes({0xE1, 0x10}).mnemonic, Mnemonic::kLoope);
}

TEST(Decoder, JmpRel8AndRel32) {
  Instruction s = decode_bytes({0xEB, 0x05});
  EXPECT_EQ(s.mnemonic, Mnemonic::kJmp);
  EXPECT_EQ(*s.branch_target(), 7u);
  Instruction n = decode_bytes({0xE9, 0x10, 0x00, 0x00, 0x00});
  EXPECT_EQ(*n.branch_target(), 0x15u);
  EXPECT_TRUE(n.ends_flow());
}

TEST(Decoder, CallRel32) {
  Instruction i = decode_bytes({0xE8, 0xF0, 0xFF, 0xFF, 0xFF});
  EXPECT_EQ(i.mnemonic, Mnemonic::kCall);
  EXPECT_FALSE(i.branch_target().has_value());  // negative (backwards off start)
  Bytes code(32, 0x90);
  code[20] = 0xE8;
  code[21] = 0xEB;  // -21: 25 - 21 = 4
  code[22] = code[23] = code[24] = 0xFF;
  Instruction j = decode(code, 20);
  ASSERT_TRUE(j.branch_target());
  EXPECT_EQ(*j.branch_target(), 4u);
}

TEST(Decoder, ConditionalJumps) {
  Instruction i = decode_bytes({0x75, 0x02});
  EXPECT_EQ(i.mnemonic, Mnemonic::kJcc);
  EXPECT_EQ(i.cond, Cond::kNe);
  EXPECT_EQ(disasm({0x74, 0x00}), "je loc_2");
  // Two-byte near form.
  Instruction n = decode_bytes({0x0F, 0x84, 0x00, 0x01, 0x00, 0x00});
  EXPECT_EQ(n.mnemonic, Mnemonic::kJcc);
  EXPECT_EQ(n.cond, Cond::kE);
  EXPECT_EQ(*n.branch_target(), 0x106u);
}

TEST(Decoder, IntVector) {
  Instruction i = decode_bytes({0xCD, 0x80});
  EXPECT_EQ(i.mnemonic, Mnemonic::kInt);
  EXPECT_EQ(i.ops[0].imm(), 0x80);
  EXPECT_EQ(decode_bytes({0xCC}).mnemonic, Mnemonic::kInt3);
}

TEST(Decoder, ArithmeticFamily) {
  EXPECT_EQ(disasm({0x01, 0xD8}), "add eax, ebx");
  EXPECT_EQ(disasm({0x29, 0xC8}), "sub eax, ecx");
  EXPECT_EQ(disasm({0x31, 0xC0}), "xor eax, eax");
  EXPECT_EQ(disasm({0x09, 0xFA}), "or edx, edi");
  EXPECT_EQ(disasm({0x21, 0xF3}), "and ebx, esi");
  EXPECT_EQ(disasm({0x39, 0xC1}), "cmp ecx, eax");
  EXPECT_EQ(disasm({0x19, 0xD2}), "sbb edx, edx");
  EXPECT_EQ(disasm({0x11, 0xC9}), "adc ecx, ecx");
}

TEST(Decoder, ArithmeticDirectionBit) {
  // 03 /r : add r32, rm32 (operands reversed vs 01).
  EXPECT_EQ(disasm({0x03, 0xD8}), "add ebx, eax");
  EXPECT_EQ(disasm({0x2B, 0xC8}), "sub ecx, eax");
}

TEST(Decoder, ArithmeticAccumulatorImm) {
  EXPECT_EQ(disasm({0x04, 0x05}), "add al, 0x5");
  EXPECT_EQ(disasm({0x2D, 0x10, 0x00, 0x00, 0x00}), "sub eax, 0x10");
  EXPECT_EQ(disasm({0x35, 0xFF, 0x00, 0x00, 0x00}), "xor eax, 0xff");
}

TEST(Decoder, Group1Immediates) {
  EXPECT_EQ(disasm({0x83, 0xC0, 0x01}), "add eax, 0x1");
  EXPECT_EQ(disasm({0x83, 0xE8, 0x01}), "sub eax, 0x1");
  EXPECT_EQ(disasm({0x83, 0xC6, 0xFF}), "add esi, -0x1");  // sign-extended
  EXPECT_EQ(disasm({0x81, 0xC3, 0x64, 0x00, 0x00, 0x00}), "add ebx, 0x64");
  EXPECT_EQ(disasm({0x80, 0xF1, 0x42}), "xor cl, 0x42");
}

TEST(Decoder, Lea) {
  EXPECT_EQ(disasm({0x8D, 0x46, 0x01}), "lea eax, dword ptr [esi + 0x1]");
  // lea with register operand (mod 3) is invalid.
  EXPECT_FALSE(decode_bytes({0x8D, 0xC0}).valid());
}

TEST(Decoder, ModRmDisplacements) {
  EXPECT_EQ(disasm({0x8B, 0x43, 0x08}), "mov eax, dword ptr [ebx + 0x8]");
  EXPECT_EQ(disasm({0x8B, 0x43, 0xF8}), "mov eax, dword ptr [ebx - 0x8]");
  EXPECT_EQ(disasm({0x8B, 0x83, 0x00, 0x01, 0x00, 0x00}),
            "mov eax, dword ptr [ebx + 0x100]");
  // Absolute disp32 (mod 00, rm 101).
  EXPECT_EQ(disasm({0x8B, 0x05, 0x44, 0x33, 0x22, 0x11}),
            "mov eax, dword ptr [0x11223344]");
  // [ebp] requires disp8 form.
  EXPECT_EQ(disasm({0x8B, 0x45, 0x00}), "mov eax, dword ptr [ebp]");
}

TEST(Decoder, SibForms) {
  // mov eax, [esp]
  EXPECT_EQ(disasm({0x8B, 0x04, 0x24}), "mov eax, dword ptr [esp]");
  // mov eax, [ebx + esi*4]
  EXPECT_EQ(disasm({0x8B, 0x04, 0xB3}), "mov eax, dword ptr [ebx + esi*4]");
  // mov eax, [esi*8 + disp32] (no base: SIB base 101, mod 00)
  EXPECT_EQ(disasm({0x8B, 0x04, 0xF5, 0x10, 0x00, 0x00, 0x00}),
            "mov eax, dword ptr [esi*8 + 0x10]");
  // index 100 means no index: mov eax, [esp + 4]
  EXPECT_EQ(disasm({0x8B, 0x44, 0x24, 0x04}), "mov eax, dword ptr [esp + 0x4]");
}

TEST(Decoder, OperandSizePrefix) {
  Instruction i = decode_bytes({0x66, 0xB8, 0x34, 0x12});
  EXPECT_EQ(i.mnemonic, Mnemonic::kMov);
  EXPECT_EQ(i.length, 4);
  EXPECT_EQ(i.ops[0].reg.name(), "ax");
  EXPECT_EQ(i.ops[1].imm(), 0x1234);
}

TEST(Decoder, AddressSizePrefixRejected) {
  EXPECT_FALSE(decode_bytes({0x67, 0x8B, 0x04}).valid());
}

TEST(Decoder, RepPrefixOnStringOps) {
  Instruction i = decode_bytes({0xF3, 0xAA});
  EXPECT_EQ(i.mnemonic, Mnemonic::kStos);
  EXPECT_TRUE(i.prefixes.has(Prefixes::kRep));
  EXPECT_EQ(format(i), "rep stosb");
  EXPECT_EQ(disasm({0xA5}), "movsd");
  EXPECT_EQ(disasm({0xAC}), "lodsb");
  EXPECT_EQ(disasm({0xAE}), "scasb");
}

TEST(Decoder, ShiftGroups) {
  EXPECT_EQ(disasm({0xC0, 0xE0, 0x04}), "shl al, 0x4");
  EXPECT_EQ(disasm({0xC1, 0xE8, 0x02}), "shr eax, 0x2");
  EXPECT_EQ(disasm({0xD0, 0xC8}), "ror al, 0x1");
  EXPECT_EQ(disasm({0xD3, 0xC0}), "rol eax, cl");
  EXPECT_EQ(disasm({0xC1, 0xF8, 0x01}), "sar eax, 0x1");
}

TEST(Decoder, UnaryGroup3) {
  EXPECT_EQ(disasm({0xF7, 0xD0}), "not eax");
  EXPECT_EQ(disasm({0xF6, 0xD3}), "not bl");
  EXPECT_EQ(disasm({0xF7, 0xD8}), "neg eax");
  EXPECT_EQ(disasm({0xF7, 0xE3}), "mul ebx");
  EXPECT_EQ(disasm({0xF7, 0xF9}), "idiv ecx");
  EXPECT_EQ(disasm({0xF6, 0xC0, 0x01}), "test al, 0x1");
  EXPECT_EQ(disasm({0xA8, 0x80}), "test al, 0x80");
}

TEST(Decoder, Group5) {
  EXPECT_EQ(disasm({0xFF, 0xE0}), "jmp eax");
  EXPECT_EQ(disasm({0xFF, 0xD0}), "call eax");
  EXPECT_EQ(disasm({0xFF, 0x30}), "push dword ptr [eax]");
  EXPECT_EQ(disasm({0xFF, 0xC0}), "inc eax");
  EXPECT_EQ(disasm({0xFE, 0xC8}), "dec al");
  // far call (/3) unsupported
  EXPECT_FALSE(decode_bytes({0xFF, 0xD8}).valid());
}

TEST(Decoder, TwoByteOpcodes) {
  EXPECT_EQ(disasm({0x0F, 0xB6, 0xC3}), "movzx eax, bl");
  EXPECT_EQ(disasm({0x0F, 0xBE, 0xC3}), "movsx eax, bl");
  EXPECT_EQ(disasm({0x0F, 0xB7, 0xC3}), "movzx eax, bx");
  EXPECT_EQ(disasm({0x0F, 0xAF, 0xC3}), "imul eax, ebx");
  EXPECT_EQ(disasm({0x0F, 0x31}), "rdtsc");
  EXPECT_EQ(disasm({0x0F, 0xA2}), "cpuid");
  EXPECT_EQ(disasm({0x0F, 0xC8}), "bswap eax");
  EXPECT_EQ(disasm({0x0F, 0x95, 0xC0}), "setne al");
  EXPECT_EQ(disasm({0x0F, 0x44, 0xC3}), "cmove eax, ebx");
  EXPECT_EQ(disasm({0x0F, 0xA3, 0xD8}), "bt eax, ebx");
  EXPECT_EQ(disasm({0x0F, 0xBC, 0xC3}), "bsf eax, ebx");
}

TEST(Decoder, XchgForms) {
  EXPECT_EQ(disasm({0x91}), "xchg eax, ecx");
  EXPECT_EQ(disasm({0x87, 0xD9}), "xchg ecx, ebx");
  EXPECT_EQ(disasm({0x86, 0xD9}), "xchg cl, bl");
}

TEST(Decoder, StackAndFrame) {
  EXPECT_EQ(disasm({0x68, 0x2F, 0x2F, 0x73, 0x68}), "push 0x68732f2f");
  EXPECT_EQ(disasm({0x6A, 0x0B}), "push 0xb");
  EXPECT_EQ(disasm({0x6A, 0xFF}), "push -0x1");  // sign-extended
  EXPECT_EQ(disasm({0xC9}), "leave");
  EXPECT_EQ(disasm({0xC8, 0x10, 0x00, 0x02}), "enter 0x10, 0x2");
  EXPECT_EQ(disasm({0x60}), "pusha");
  EXPECT_EQ(disasm({0x61}), "popa");
  EXPECT_EQ(disasm({0x8F, 0xC0}), "pop eax");
}

TEST(Decoder, Returns) {
  Instruction r = decode_bytes({0xC3});
  EXPECT_EQ(r.mnemonic, Mnemonic::kRet);
  EXPECT_TRUE(r.ends_flow());
  EXPECT_EQ(disasm({0xC2, 0x08, 0x00}), "ret 0x8");
  EXPECT_EQ(disasm({0xCB}), "retf");
}

TEST(Decoder, MoffsForms) {
  EXPECT_EQ(disasm({0xA1, 0x10, 0x00, 0x00, 0x00}), "mov eax, dword ptr [0x10]");
  EXPECT_EQ(disasm({0xA2, 0x10, 0x00, 0x00, 0x00}), "mov byte ptr [0x10], al");
}

TEST(Decoder, MiscOneByte) {
  EXPECT_EQ(disasm({0x98}), "cwde");
  EXPECT_EQ(disasm({0x99}), "cdq");
  EXPECT_EQ(disasm({0xF4}), "hlt");
  EXPECT_EQ(disasm({0xFC}), "cld");
  EXPECT_EQ(disasm({0xD6}), "salc");
  EXPECT_EQ(disasm({0xD7}), "xlat");
  EXPECT_EQ(disasm({0x9C}), "pushf");
  EXPECT_EQ(disasm({0x9E}), "sahf");
  EXPECT_EQ(disasm({0x27}), "daa");
  EXPECT_EQ(disasm({0x37}), "aaa");
}

TEST(Decoder, InvalidBytes) {
  // x87 escape, far jmp, and LES are not modeled.
  EXPECT_FALSE(decode_bytes({0xD8, 0xC0}).valid());
  EXPECT_FALSE(decode_bytes({0xEA, 1, 2, 3, 4, 5, 6}).valid());
  EXPECT_FALSE(decode_bytes({0xC4, 0x00}).valid());
  // Invalid instructions consume exactly one byte for resynchronization.
  EXPECT_EQ(decode_bytes({0xD8, 0xC0}).length, 1);
}

TEST(Decoder, TruncatedInstructionInvalid) {
  EXPECT_FALSE(decode_bytes({0xB8, 0x01}).valid());       // mov eax, imm32 cut
  EXPECT_FALSE(decode_bytes({0x8B}).valid());             // missing ModRM
  EXPECT_FALSE(decode_bytes({0x0F}).valid());             // bare escape
  EXPECT_FALSE(decode_bytes({0x8B, 0x04}).valid());       // missing SIB
}

TEST(Decoder, EmptyAndOutOfRangeOffset) {
  Bytes empty;
  EXPECT_FALSE(decode(empty, 0).valid());
  Bytes one{0x90};
  EXPECT_FALSE(decode(one, 5).valid());
}

TEST(Decoder, PrefixOnlyStreamInvalid) {
  // 15 prefixes exceed the architectural length cap.
  Bytes b(16, 0x66);
  EXPECT_FALSE(decode(b, 0).valid());
}

TEST(Decoder, NeverCrashesOnArbitraryBytes) {
  // Exhaustive two-byte fuzz: every (first, second) combination.
  Bytes buf(8, 0x00);
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      buf[0] = static_cast<std::uint8_t>(a);
      buf[1] = static_cast<std::uint8_t>(b);
      Instruction insn = decode(buf, 0);
      if (insn.valid()) {
        EXPECT_GE(insn.length, 1);
        EXPECT_LE(insn.length, buf.size());
      } else {
        EXPECT_LE(insn.length, 1);
      }
    }
  }
}

TEST(LinearSweep, StopsAtInvalid) {
  Bytes code{0x90, 0x40, 0xD8, 0x90};  // nop, inc eax, (bad), nop
  auto insns = linear_sweep(code);
  ASSERT_EQ(insns.size(), 2u);
  EXPECT_EQ(insns[1].mnemonic, Mnemonic::kInc);
}

TEST(LinearSweep, RespectsMaxCount) {
  Bytes code(100, 0x90);
  EXPECT_EQ(linear_sweep(code, 0, 10).size(), 10u);
}

TEST(LinearSweep, OffsetsAreCumulative) {
  Bytes code{0xB8, 1, 0, 0, 0, 0x40, 0x90};
  auto insns = linear_sweep(code);
  ASSERT_EQ(insns.size(), 3u);
  EXPECT_EQ(insns[0].offset, 0u);
  EXPECT_EQ(insns[1].offset, 5u);
  EXPECT_EQ(insns[2].offset, 6u);
}

// ------------------------------------------------------------ def/use

TEST(DefUse, MovRegReg) {
  DefUse du = def_use(decode_bytes({0x89, 0xD8}));  // mov eax, ebx
  EXPECT_TRUE(du.defs.contains(kEax));
  EXPECT_FALSE(du.defs.contains(kEbx));
  EXPECT_TRUE(du.uses.contains(kEbx));
  EXPECT_FALSE(du.uses.contains(kEax));
}

TEST(DefUse, XorIsReadModifyWrite) {
  DefUse du = def_use(decode_bytes({0x31, 0xD8}));  // xor eax, ebx
  EXPECT_TRUE(du.defs.contains(kEax));
  EXPECT_TRUE(du.uses.contains(kEax));
  EXPECT_TRUE(du.uses.contains(kEbx));
  EXPECT_TRUE(du.flags_def);
}

TEST(DefUse, MemOperandTouchesAddressRegs) {
  DefUse du = def_use(decode_bytes({0x80, 0x30, 0x95}));  // xor byte [eax], imm
  EXPECT_TRUE(du.uses.contains(kEax));
  EXPECT_TRUE(du.mem_read);
  EXPECT_TRUE(du.mem_write);
}

TEST(DefUse, PushUsesStack) {
  DefUse du = def_use(decode_bytes({0x53}));  // push ebx
  EXPECT_TRUE(du.uses.contains(kEbx));
  EXPECT_TRUE(du.defs.contains(kEsp));
  EXPECT_TRUE(du.mem_write);
}

TEST(DefUse, IntReadsEverythingDefinesEax) {
  DefUse du = def_use(decode_bytes({0xCD, 0x80}));
  EXPECT_EQ(du.uses.raw(), RegSet::all().raw());
  EXPECT_TRUE(du.defs.contains(kEax));
  EXPECT_TRUE(du.side_effect);
}

TEST(DefUse, LoopTouchesEcx) {
  DefUse du = def_use(decode_bytes({0xE2, 0xF0}));
  EXPECT_TRUE(du.defs.contains(kEcx));
  EXPECT_TRUE(du.uses.contains(kEcx));
  EXPECT_TRUE(du.side_effect);
}

TEST(DefUse, LeaDoesNotTouchMemory) {
  DefUse du = def_use(decode_bytes({0x8D, 0x46, 0x01}));  // lea eax, [esi+1]
  EXPECT_TRUE(du.defs.contains(kEax));
  EXPECT_TRUE(du.uses.contains(kEsi));
  EXPECT_FALSE(du.mem_read);
  EXPECT_FALSE(du.mem_write);
}

TEST(DefUse, SubRegisterAliasesFamily) {
  DefUse du = def_use(decode_bytes({0xB3, 0x01}));  // mov bl, 1
  EXPECT_TRUE(du.defs.contains(kEbx));
}

TEST(RegSet, Operations) {
  RegSet s;
  EXPECT_TRUE(s.empty());
  s.add(kEax);
  s.add(kEbx);
  EXPECT_TRUE(s.contains(kEax));
  EXPECT_FALSE(s.contains(kEcx));
  RegSet t;
  t.add(kEcx);
  EXPECT_FALSE(s.intersects(t));
  t.add(kEax);
  EXPECT_TRUE(s.intersects(t));
  EXPECT_EQ(s.str(), "eax,ebx");
}

}  // namespace
}  // namespace senids::arch
