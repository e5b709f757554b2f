// Test frames shared by the scanner and analyzer suites: the anchor
// corpus (generated exploits, decoders, benign payloads, noise, each with
// the architecture it is analyzed under) and the pathological inputs the
// scanner must stay correct and bounded on.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "extract/unicode.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/emitter.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/shellcode64.hpp"
#include "util/prng.hpp"

namespace senids::test_corpus {

/// A frame and the architecture it is analyzed under.
struct AnchorFrame {
  std::string name;
  util::Bytes bytes;
  const arch::Arch* arch;
};

/// Byte and dword stores, then int 0x2e, int 0x80 and int 0x21: traces
/// with syscalls on vectors other than 0x80 and 0x100.
inline util::Bytes other_vector_code() {
  return {0x31, 0xC0,  // xor eax, eax
          0xB0, 0x10,  // mov al, 0x10
          0x89, 0x03,  // mov [ebx], eax
          0x88, 0x03,  // mov [ebx], al
          0x50,        // push eax
          0xCD, 0x2E,  // int 0x2e
          0x43,        // inc ebx
          0xCD, 0x80,  // int 0x80
          0xCD, 0x21,  // int 0x21
          0xC3};       // ret
}

/// A counted byte-decoder loop whose body is `transform` (add and ror
/// decoders: the library templates the generators do not produce).
template <class Body>
inline util::Bytes counted_decoder(Body transform) {
  gen::Asm a;
  a.mov_r32_imm32(gen::R32::ecx, 64);
  a.mov_r32_imm32(gen::R32::edx, 0);
  auto head = a.new_label();
  a.bind(head);
  transform(a);
  a.inc_r32(gen::R32::esi);
  a.loop_(head);
  a.inc_r32(gen::R32::edx);
  return a.finish();
}

inline std::vector<AnchorFrame> anchor_corpus() {
  const arch::Arch* x32 = &arch::Arch::x86_32();
  const arch::Arch* x64 = &arch::Arch::x86_64();
  std::vector<AnchorFrame> out;
  const auto shells = gen::make_shell_spawn_corpus();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    util::Prng prng(seed);
    out.push_back({"admmutate " + std::to_string(seed),
                   gen::admmutate_encode(shells[1].code, prng).bytes, x32});
    out.push_back({"clet " + std::to_string(seed),
                   gen::clet_encode(shells[1].code, prng).bytes, x32});
  }
  util::Prng wrap(9);
  for (const auto& s : shells) {
    out.push_back({"exploit " + s.name, gen::wrap_in_overflow(s.code, wrap), x32});
  }
  out.push_back({"iis-asp", gen::make_iis_asp_overflow_payload(), x32});
  for (const auto& s : gen::ExploitBuilder64::corpus()) {
    out.push_back(
        {"exploit64 " + s.name, gen::ExploitBuilder64::wrap(s.code, wrap), x64});
  }
  out.push_back({"reverse shell",
                 gen::wrap_in_overflow(gen::make_reverse_shell(0x0a000001, 0x5c11), wrap),
                 x32});
  out.push_back({"add decoder", counted_decoder([](gen::Asm& a) {
                   a.alu_mem8_imm8(0, gen::R32::esi, 0x21);  // add byte [esi], 0x21
                 }),
                 x32});
  out.push_back({"ror decoder", counted_decoder([](gen::Asm& a) {
                   a.mov_r8_mem(gen::R8::al, gen::R32::esi);
                   a.shift_r8_imm8(1, gen::R8::al, 3);  // ror al, 3
                   a.mov_mem_r8(gen::R32::esi, 0, gen::R8::al);
                 }),
                 x32});
  const util::Bytes code_red = gen::make_code_red_ii_request();
  out.push_back({"code red ii", code_red, x32});
  out.push_back(
      {"code red ii %u frame", extract::decode_u_escapes(code_red).decoded, x32});
  util::Prng benign(21);
  for (int i = 0; i < 6; ++i) {
    out.push_back(
        {"benign " + std::to_string(i), gen::make_benign_payload(benign).data, x32});
  }
  util::Prng noise(555);
  for (int i = 0; i < 2; ++i) {
    out.push_back({"random " + std::to_string(i), noise.bytes(1024), x32});
  }
  out.push_back({"other vectors", other_vector_code(), x32});
  return out;
}

/// `bytes` of the analyzer bomb: a 16-byte `inc eax; xor [esi],al;
/// inc esi; dec ecx; jnz; call +0` block, repeated.
inline util::Bytes analyzer_bomb(std::size_t bytes) {
  static constexpr std::uint8_t kBlock[] = {0x40, 0x30, 0x06, 0x46, 0x49, 0x0F,
                                            0x85, 0xF5, 0xFF, 0xFF, 0xFF, 0xE8,
                                            0x00, 0x00, 0x00, 0x00};
  util::Bytes out;
  while (out.size() < bytes) out.insert(out.end(), std::begin(kBlock), std::end(kBlock));
  out.resize(bytes);
  return out;
}

/// `bytes` of `mov eax, 0x90909090` (B8 90 90 90 90), repeated. Each
/// block's second byte starts a run of nops that resynchronizes onto the
/// next block, so thousands of runs converge onto one chain.
inline util::Bytes convergent_pattern(std::size_t bytes) {
  static constexpr std::uint8_t kBlock[] = {0xB8, 0x90, 0x90, 0x90, 0x90};
  util::Bytes out;
  while (out.size() < bytes) out.insert(out.end(), std::begin(kBlock), std::end(kBlock));
  out.resize(bytes);
  return out;
}

/// Two equal but separately built or/not ladders, then `xor eax, ebx`:
/// `mov eax, [esi]; mov ebx, eax`, n x `mov edx, eax; not edx; or eax,
/// edx`, n x `mov edx, ebx; not edx; or ebx, edx`, `xor eax, ebx` and 6
/// nops. Each ladder step reaches the step below along two paths, so the
/// simplifier's x ^ x test compares DAGs whose trees have 2^n leaves.
inline util::Bytes equal_ladders(std::size_t n) {
  util::Bytes out = {0x8B, 0x06, 0x89, 0xC3};
  for (std::size_t i = 0; i < n; ++i) out.insert(out.end(), {0x89, 0xC2, 0xF7, 0xD2, 0x09, 0xD0});
  for (std::size_t i = 0; i < n; ++i) out.insert(out.end(), {0x89, 0xDA, 0xF7, 0xD2, 0x09, 0xD3});
  out.insert(out.end(), {0x31, 0xD8});
  out.insert(out.end(), 6, 0x90);
  return out;
}

/// A byte decoder loop that stores an or/not ladder over the loaded
/// byte: `mov al, [esi]`, n x `mov bl, al; not bl; or al, bl`, then
/// `mov [esi], al; inc esi; dec ecx; jnz` back to offset 0. The stored
/// value is a DAG of O(n) nodes whose tree has 2^n leaves, and it passes
/// the or/and/not transform of the alternate ADMmutate decoder template.
inline util::Bytes ladder_decoder(std::size_t n) {
  util::Bytes out = {0x8A, 0x06};
  for (std::size_t i = 0; i < n; ++i) out.insert(out.end(), {0x88, 0xC3, 0xF6, 0xD3, 0x08, 0xD8});
  out.insert(out.end(), {0x88, 0x06, 0x46, 0x49, 0x0F, 0x85});
  const auto rel = static_cast<std::uint32_t>(-static_cast<std::int64_t>(out.size() + 4));
  for (int shift = 0; shift < 32; shift += 8) out.push_back(static_cast<std::uint8_t>(rel >> shift));
  return out;
}

/// Frames for scanner checks, each scanned under every architecture: the
/// anchor corpus, 4 KB of random bytes, the 4 KB analyzer bomb, the 4 KB
/// convergent pattern and the bare ExploitBuilder64 payloads.
inline std::vector<std::pair<std::string, util::Bytes>> scan_corpus() {
  std::vector<std::pair<std::string, util::Bytes>> frames;
  for (AnchorFrame& f : anchor_corpus()) frames.emplace_back(f.name, std::move(f.bytes));
  util::Prng noise(4096);
  frames.emplace_back("random 4 KB", noise.bytes(4096));
  frames.emplace_back("bomb 4 KB", analyzer_bomb(4096));
  frames.emplace_back("convergent 4 KB", convergent_pattern(4096));
  for (const auto& s : gen::ExploitBuilder64::corpus()) {
    frames.emplace_back("payload64 " + s.name, s.code);
  }
  return frames;
}

}  // namespace senids::test_corpus
