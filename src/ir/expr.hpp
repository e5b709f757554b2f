// Symbolic value expressions. The lifter executes an instruction trace
// over these instead of concrete values; constant folding and algebraic
// normalization mean that syntactically different code computing the same
// value produces the *same* expression tree. This is what lets one
// template match `xor byte ptr [eax], 95h` and
// `mov ebx,31h; add ebx,64h; xor byte ptr [eax], bl` — both store
// Xor(Load(init_eax), 0x95).
//
// All expressions are 32-bit values (IA-32 native width); narrow loads
// and sub-register reads are represented zero-extended with explicit
// masks, which the simplifier folds away whenever operands are constant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/reg.hpp"

namespace senids::ir {

enum class ExprKind : std::uint8_t { kConst, kInitReg, kLoad, kBin, kUn, kUnknown };

enum class BinOp : std::uint8_t {
  kAdd, kSub, kXor, kOr, kAnd, kShl, kShr, kSar, kRol, kRor, kMul
};

enum class UnOp : std::uint8_t { kNot, kNeg };

struct Expr;
/// A node in the ExprArena that built it; valid until that arena resets.
using ExprPtr = const Expr*;

/// Immutable expression node. Build only through the ExprArena
/// factories, which enforce normalization invariants (constants folded,
/// commutative operands ordered, identities removed).
struct Expr {
  ExprKind kind{};
  arch::RegFamily family{};      // kInitReg
  std::uint8_t load_width = 32;  // kLoad, bits
  BinOp bop{};
  UnOp uop{};
  /// Upper bound on the number of significant bits of the value
  /// (e.g. an 8-bit load has value_bits == 8 even before masking). Used
  /// by the simplifier to drop covering masks: And(x, m) == x whenever m
  /// covers value_bits(x) bits.
  std::uint8_t value_bits = 32;
  std::uint32_t cval = 0;        // kConst
  std::uint32_t generation = 0;  // kLoad: memory version at load time
  std::uint32_t unknown_id = 0;  // kUnknown
  std::size_t cached_hash = 0;
  ExprPtr addr = nullptr;        // kLoad
  ExprPtr lhs = nullptr;         // kBin / kUn
  ExprPtr rhs = nullptr;         // kBin
};
static_assert(std::is_trivially_destructible_v<Expr>);

// ------------------------------------------------------------- the arena

/// Owns the expression nodes of one lift. The factories bump-allocate
/// into fixed-size heap chunks that survive reset() and moves: node
/// addresses stay valid when the arena is moved, a reset reuses the
/// high-water mark, and no buffer is sized to a whole frame. Not
/// thread-safe.
class ExprArena {
 public:
  /// End every node's lifetime. The chunks are kept for reuse; under
  /// ASan they stay poisoned until then.
  void reset() noexcept;

  ExprPtr mk_const(std::uint32_t v);
  ExprPtr mk_init(arch::RegFamily f);
  ExprPtr mk_load(ExprPtr addr, unsigned width_bits, std::uint32_t generation);
  ExprPtr mk_bin(BinOp op, ExprPtr l, ExprPtr r);
  ExprPtr mk_un(UnOp op, ExprPtr x);
  ExprPtr mk_unknown(std::uint32_t id);

  /// Uninitialized room for `n` node pointers (a syscall's register
  /// snapshot), living as long as the nodes.
  ExprPtr* mk_ptrs(std::size_t n);

  /// Where `p` was allocated, if it lies in this arena's live nodes.
  /// Positions grow in allocation order, so a node's children sit at
  /// lower positions than the node itself.
  [[nodiscard]] std::optional<std::size_t> position(const void* p) const noexcept;

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{16} << 10;

  void* allocate(std::size_t bytes);
  ExprPtr make(Expr e);

  std::vector<std::unique_ptr<std::byte[]>> chunks_;  // live; the last one fills
  std::vector<std::unique_ptr<std::byte[]>> spare_;   // released by reset()
  std::size_t used_ = 0;  // bytes taken from chunks_.back()
};

// ------------------------------------------------------------- utilities

/// Structural equality (normalization makes it a sound semantic-equality
/// approximation: equal trees compute equal values). Linear in the
/// distinct node pairs compared, however much the two DAGs share.
bool struct_eq(ExprPtr a, ExprPtr b);

/// Recompute a node's hash from its (already-hashed) children, ignoring
/// the cached value. The factories cache this at construction; the
/// verifier re-derives it to catch corrupted or hand-built nodes whose
/// stale cache would defeat struct_eq's fast-path rejection (two equal
/// trees comparing unequal is a silent missed detection). Null children
/// hash as 0 so malformed nodes can still be reported, not crashed on.
std::size_t recompute_hash(const Expr& e) noexcept;

/// nullptr-safe constant test; returns the value when e is a constant.
bool is_const(ExprPtr e, std::uint32_t* value = nullptr) noexcept;

/// Rendering for alerts and debugging, e.g. "xor(load8@0(init(eax)), 0x95)".
/// Every field struct_eq compares is shown, so renderings shorter than
/// about 1 KB are equal exactly when the trees are. Longer ones are cut
/// there and end in "...": shared subtrees are rendered in full each
/// time, and attacker-shaped DAGs would otherwise render in exponential
/// size.
std::string to_string(ExprPtr e);

const char* binop_name(BinOp op) noexcept;

}  // namespace senids::ir
