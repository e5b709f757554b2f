// GPR register model shared by every architecture the decoder knows.
// Registers are identified by (family, width) where the family is the
// underlying architectural register; this makes aliasing queries (does
// writing AL clobber EAX? does writing R8B clobber R8?) trivial, which
// the def-use analysis in the semantic matcher depends on. Families 0-7
// are the classic IA-32 set; families 8-15 (R8..R15) exist only in
// 64-bit mode and are never produced by the 32-bit decoder.
#pragma once

#include <cstdint>
#include <string_view>

namespace senids::arch {

/// The sixteen GPR families, in standard encoding order, then kNone. The
/// 32-bit decoder only ever emits kAx..kDi; kR8..kR15 require a REX prefix.
enum class RegFamily : std::uint8_t {
  kAx, kCx, kDx, kBx, kSp, kBp, kSi, kDi,
  kR8, kR9, kR10, kR11, kR12, kR13, kR14, kR15,
  kNone,  // no register: an absent memory-operand base or index (kNoReg)
};

enum class RegWidth : std::uint8_t { k8Lo, k8Hi, k16, k32, k64 };

struct Reg {
  RegFamily family{};
  RegWidth width{};

  friend bool operator==(const Reg&, const Reg&) = default;

  /// True if the two registers share storage (e.g. AL vs EAX, but not
  /// AL vs AH? AH and AL share EAX but not each other's bits; for clobber
  /// analysis we treat any same-family pair as aliasing, which is sound).
  [[nodiscard]] bool aliases(const Reg& other) const noexcept {
    return family == other.family;
  }

  [[nodiscard]] std::string_view name() const noexcept;
};

/// Decode-table constructors: index is the 3-bit register field, or the
/// REX-extended 4-bit field in 64-bit mode.
Reg reg64(unsigned index) noexcept;
Reg reg32(unsigned index) noexcept;
Reg reg16(unsigned index) noexcept;
/// 8-bit register for an encoding index. Without a REX prefix, encodings
/// 4-7 are AH,CH,DH,BH; with any REX prefix present they become
/// SPL,BPL,SIL,DIL (low bytes of families 4-7) and 8-15 select R8B..R15B.
Reg reg8(unsigned index, bool rex_present = false) noexcept;

inline constexpr Reg kNoReg{RegFamily::kNone, RegWidth::k32};
inline constexpr Reg kEax{RegFamily::kAx, RegWidth::k32};
inline constexpr Reg kEcx{RegFamily::kCx, RegWidth::k32};
inline constexpr Reg kEdx{RegFamily::kDx, RegWidth::k32};
inline constexpr Reg kEbx{RegFamily::kBx, RegWidth::k32};
inline constexpr Reg kEsp{RegFamily::kSp, RegWidth::k32};
inline constexpr Reg kEbp{RegFamily::kBp, RegWidth::k32};
inline constexpr Reg kEsi{RegFamily::kSi, RegWidth::k32};
inline constexpr Reg kEdi{RegFamily::kDi, RegWidth::k32};
inline constexpr Reg kAl{RegFamily::kAx, RegWidth::k8Lo};
inline constexpr Reg kCl{RegFamily::kCx, RegWidth::k8Lo};
inline constexpr Reg kRax{RegFamily::kAx, RegWidth::k64};
inline constexpr Reg kRdi{RegFamily::kDi, RegWidth::k64};
inline constexpr Reg kRsi{RegFamily::kSi, RegWidth::k64};
inline constexpr Reg kRsp{RegFamily::kSp, RegWidth::k64};

/// Number of bits in a register of the given width.
unsigned width_bits(RegWidth w) noexcept;

}  // namespace senids::arch
