// x86-64 decoder coverage: the long-mode half of the arch::Arch contract.
// Three angles, mirroring the ISSUE acceptance list:
//   1. shared-encoding differential — byte strings legal in both modes
//      must decode to the same mnemonic, length, and def/use summary
//      (REX-free encodings only; REX bytes *are* the mode difference);
//   2. 64-only encodings (REX operands, `syscall`, RIP-relative) decode
//      under Mode::k64 and mean something else (or nothing) under k32;
//   3. 32-only encodings (BCD, pusha/popa, into, salc) are invalid under
//      long mode — the sled-pool regression that motivated kSled64Pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "arch/arch.hpp"
#include "arch/decoder.hpp"
#include "arch/defuse.hpp"
#include "arch/format.hpp"

namespace senids::arch {
namespace {

using util::Bytes;

Instruction decode32(std::initializer_list<std::uint8_t> bytes) {
  Bytes b(bytes);
  return decode(b, 0, Mode::k32);
}

Instruction decode64(std::initializer_list<std::uint8_t> bytes) {
  Bytes b(bytes);
  return decode(b, 0, Mode::k64);
}

// ------------------------------------------- shared-encoding differential

// Encodings with no REX byte and no mode-dependent operand meaning: both
// decoders must agree on mnemonic, length, and the def/use summary. (The
// operand *width* of stack ops differs by design — long mode pushes 64
// bits — but the families touched are identical.)
TEST(X64Differential, SharedEncodingsAgree) {
  const std::vector<Bytes> shared = {
      {0x90},                                // nop
      {0xB8, 0x78, 0x56, 0x34, 0x12},        // mov eax, imm32
      {0x31, 0xC0},                          // xor eax, eax
      {0x31, 0xDB},                          // xor ebx, ebx
      {0x89, 0xE3},                          // mov ebx, esp
      {0x50},                                // push ax-family
      {0x5B},                                // pop bx-family
      {0x68, 0x2F, 0x2F, 0x73, 0x68},        // push imm32
      {0x6A, 0x0B},                          // push imm8
      {0xE8, 0x04, 0x00, 0x00, 0x00},        // call rel32
      {0xEB, 0x10},                          // jmp rel8
      {0x74, 0x05},                          // je rel8
      {0xC3},                                // ret
      {0xC2, 0x08, 0x00},                    // ret imm16
      {0xCD, 0x80},                          // int 0x80
      {0xCC},                                // int3
      {0xF7, 0xE3},                          // mul ebx
      {0x8B, 0x03},                          // mov eax, [bx-family]
      {0x80, 0x30, 0x95},                    // xor byte ptr [ax-family], 0x95
      {0xAA},                                // stosb
      {0xF3, 0xAA},                          // rep stosb
      {0xFE, 0xC0},                          // inc al
      {0x0F, 0xBE, 0xC0},                    // movsx eax, al
      {0xD9, 0x74, 0x24, 0xF4},              // fnstenv [esp-12]
      {0xE2, 0xFE},                          // loop
  };
  for (const Bytes& bytes : shared) {
    const Instruction a = decode(bytes, 0, Mode::k32);
    const Instruction b = decode(bytes, 0, Mode::k64);
    ASSERT_TRUE(a.valid()) << format(a);
    ASSERT_TRUE(b.valid()) << format(b);
    EXPECT_EQ(a.mnemonic, b.mnemonic) << format(a) << " vs " << format(b);
    EXPECT_EQ(a.length, b.length) << format(a);
    const DefUse da = def_use(a);
    const DefUse db = def_use(b);
    EXPECT_EQ(da.defs.raw(), db.defs.raw()) << format(a);
    EXPECT_EQ(da.uses.raw(), db.uses.raw()) << format(a);
    EXPECT_EQ(da.mem_read, db.mem_read) << format(a);
    EXPECT_EQ(da.mem_write, db.mem_write) << format(a);
    EXPECT_EQ(da.side_effect, db.side_effect) << format(a);
  }
  // Modes are stamped on the instruction itself, so downstream consumers
  // can never mix the rules up.
  EXPECT_EQ(decode32({0x90}).mode, Mode::k32);
  EXPECT_EQ(decode64({0x90}).mode, Mode::k64);
}

// ---------------------------------------------------- 64-only encodings

TEST(X64Decoder, RexWMovImm64) {
  // mov rbx, 0x68732f2f6e69622f — the execve path constant in one insn.
  const Instruction i = decode64({0x48, 0xBB, 0x2F, 0x62, 0x69, 0x6E, 0x2F, 0x2F, 0x73,
                                  0x68});
  ASSERT_TRUE(i.valid());
  EXPECT_EQ(i.mnemonic, Mnemonic::kMov);
  EXPECT_EQ(i.length, 10);
  EXPECT_EQ(i.ops[0].reg.family, RegFamily::kBx);
  EXPECT_EQ(i.ops[0].reg.width, RegWidth::k64);
  EXPECT_EQ(static_cast<std::uint64_t>(i.ops[1].imm()), 0x68732f2f6e69622full);
  // The same bytes in 32-bit mode: 0x48 is dec eax, not a REX prefix.
  const Instruction j = decode32({0x48, 0xBB, 0x2F, 0x62, 0x69, 0x6E, 0x2F, 0x2F, 0x73,
                                  0x68});
  EXPECT_EQ(j.mnemonic, Mnemonic::kDec);
  EXPECT_EQ(j.length, 1);
}

TEST(X64Decoder, RexBExtendedRegisters) {
  // push r15 / pop r9: REX.B extends the opcode-embedded register.
  const Instruction push = decode64({0x41, 0x57});
  ASSERT_TRUE(push.valid());
  EXPECT_EQ(push.mnemonic, Mnemonic::kPush);
  EXPECT_EQ(push.ops[0].reg.family, RegFamily::kR15);
  EXPECT_TRUE(def_use(push).uses.contains_family(RegFamily::kR15));
  EXPECT_TRUE(def_use(push).defs.contains_family(RegFamily::kSp));
  // mov r15, rax (REX.W + REX.B, 89 /r).
  const Instruction mov = decode64({0x49, 0x89, 0xC7});
  ASSERT_TRUE(mov.valid());
  EXPECT_EQ(mov.mnemonic, Mnemonic::kMov);
  EXPECT_EQ(mov.ops[0].reg.family, RegFamily::kR15);
  EXPECT_EQ(mov.ops[0].reg.width, RegWidth::k64);
  EXPECT_TRUE(def_use(mov).defs.contains_family(RegFamily::kR15));
  EXPECT_TRUE(def_use(mov).uses.contains_family(RegFamily::kAx));
  // In 32-bit mode 0x41 / 0x49 are inc ecx / dec ecx — one-byte opcodes.
  EXPECT_EQ(decode32({0x41, 0x57}).mnemonic, Mnemonic::kInc);
  EXPECT_EQ(decode32({0x41, 0x57}).length, 1);
}

TEST(X64Decoder, SyscallIs64Only) {
  const Instruction s = decode64({0x0F, 0x05});
  ASSERT_TRUE(s.valid());
  EXPECT_EQ(s.mnemonic, Mnemonic::kSyscall);
  EXPECT_EQ(s.length, 2);
  EXPECT_TRUE(def_use(s).side_effect);
  // The 32-bit decoder never emits kSyscall (int 0x80 is the mechanism).
  EXPECT_FALSE(decode32({0x0F, 0x05}).valid());
}

TEST(X64Decoder, RipRelativeAddressing) {
  // mov eax, [rip + 0x10]: mod=00 rm=101 is RIP-relative in long mode,
  // absolute disp32 in legacy mode.
  const Instruction r64 = decode64({0x8B, 0x05, 0x10, 0x00, 0x00, 0x00});
  ASSERT_TRUE(r64.valid());
  ASSERT_EQ(r64.ops[1].kind, OperandKind::kMem);
  EXPECT_TRUE(r64.ops[1].mem().rip);
  EXPECT_FALSE(r64.ops[1].mem().has_base());
  EXPECT_EQ(r64.ops[1].mem().disp, 0x10);
  const Instruction r32 = decode32({0x8B, 0x05, 0x10, 0x00, 0x00, 0x00});
  ASSERT_TRUE(r32.valid());
  ASSERT_EQ(r32.ops[1].kind, OperandKind::kMem);
  EXPECT_FALSE(r32.ops[1].mem().rip);
}

TEST(X64Decoder, DefaultStackWidthIs64) {
  // push/pop are default-64 in long mode even without REX.W.
  EXPECT_EQ(decode64({0x50}).op_width, RegWidth::k64);
  EXPECT_EQ(decode64({0x68, 0x01, 0x00, 0x00, 0x00}).op_width, RegWidth::k64);
  EXPECT_EQ(decode32({0x50}).op_width, RegWidth::k32);
}

// ---------------------------------------------------- 32-only encodings

TEST(X64Decoder, LegacyOnlyOpcodesInvalidInLongMode) {
  // Every byte here decodes in 32-bit mode but is an invalid opcode (or a
  // REX prefix, i.e. not this instruction) under x86-64. This is the
  // regression behind ExploitBuilder64's separate sled pool: 0x27 (daa)
  // is NOP-like filler for 32-bit sleds and undecodable in long mode.
  const std::initializer_list<std::uint8_t> legacy_only = {
      0x27,  // daa
      0x2F,  // das
      0x37,  // aaa
      0x3F,  // aas
      0x60,  // pusha
      0x61,  // popa
      0xCE,  // into
      0xD6,  // salc
  };
  for (std::uint8_t op : legacy_only) {
    EXPECT_TRUE(decode32({op}).valid()) << std::hex << int(op);
    EXPECT_FALSE(decode64({op}).valid()) << std::hex << int(op);
  }
  // inc/dec r32 one-byte forms become REX prefixes: 0x40 followed by
  // nothing decodable is invalid, not "inc eax".
  EXPECT_EQ(decode32({0x40}).mnemonic, Mnemonic::kInc);
  EXPECT_FALSE(decode64({0x40}).valid());
}

// ------------------------------------------------------- registry sanity

TEST(X64Arch, RegistryExposesBothArches) {
  EXPECT_EQ(Arch::x86_32().mode(), Mode::k32);
  EXPECT_EQ(Arch::x86_64().mode(), Mode::k64);
  EXPECT_EQ(Arch::x86_64().pointer_bits(), 64u);
  EXPECT_EQ(Arch::by_name("x86_64"), &Arch::x86_64());
  EXPECT_EQ(Arch::by_name("x86_32"), &Arch::x86_32());
  EXPECT_EQ(Arch::by_name("mips"), nullptr);
  EXPECT_EQ(&Arch::of_mode(Mode::k64), &Arch::x86_64());
  ASSERT_EQ(Arch::all().size(), 2u);
  // The decode hook stamps the arch's mode.
  Bytes nop{0x90};
  EXPECT_EQ(Arch::x86_64().decode(nop, 0).mode, Mode::k64);
  // x86-64 syscall convention: rax number, rdi/rsi/rdx first args,
  // lifted as vector 0x100.
  const auto convs = Arch::x86_64().syscall_conventions();
  ASSERT_FALSE(convs.empty());
  EXPECT_EQ(convs[0].vector, 0x100);
  EXPECT_EQ(convs[0].number_reg, RegFamily::kAx);
  EXPECT_EQ(convs[0].args[0], RegFamily::kDi);
  EXPECT_EQ(convs[0].args[1], RegFamily::kSi);
  EXPECT_EQ(convs[0].args[2], RegFamily::kDx);
}

}  // namespace
}  // namespace senids::arch
