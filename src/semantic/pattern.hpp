// Expression patterns: templates describe the *values* malicious code
// computes, with pattern variables standing for registers, addresses and
// symbolic constants (the paper's "variables and symbolic constants").
// A variable binds on first use and must match structurally-equal
// expressions on every later use; this is what makes the matcher immune
// to register reassignment.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/expr.hpp"

namespace senids::semantic {

enum class PatKind : std::uint8_t {
  kAny,         // matches any expression; binds var
  kConst,       // any constant (optionally nonzero); binds var
  kFixedConst,  // one specific constant value
  kLoad,        // memory load whose address matches a sub-pattern
  kBin,         // specific binary operator (commutative ops try both orders)
  kUn,          // specific unary operator
  kTransform,   // any expression tree over an allowed operator set whose
                // leaves are constants or matches of `base` (>=1 base leaf)
};

struct Pattern;
using PatPtr = std::shared_ptr<const Pattern>;

struct Pattern {
  PatKind kind{};
  std::string var;            // binding name; empty = anonymous
  bool require_nonzero = false;  // kConst
  std::uint32_t fixed = 0;       // kFixedConst
  ir::BinOp bop{};               // kBin
  ir::UnOp uop{};                // kUn
  PatPtr a, b;                   // children (kLoad: a = address pattern)
  // kTransform
  PatPtr base;
  std::vector<ir::BinOp> allowed;
  bool allow_not = true;
  bool require_const_leaf = true;
};

// Factory helpers (the built-in template library and the DSL both build
// patterns through these).
PatPtr p_any(std::string var = "");
PatPtr p_const(std::string var = "", bool nonzero = true);
PatPtr p_fixed(std::uint32_t value);
PatPtr p_load(PatPtr addr);
PatPtr p_bin(ir::BinOp op, PatPtr a, PatPtr b);
PatPtr p_un(ir::UnOp op, PatPtr x);
PatPtr p_transform(PatPtr base, std::vector<ir::BinOp> allowed, bool allow_not = true,
                   bool require_const_leaf = true);

/// Most distinct pattern variables one template may use. The matcher
/// keeps a template's bindings in this many slots; the DSL parser,
/// senids_lint and MatchPlan reject a template with more.
inline constexpr std::size_t kMaxTemplateVars = 8;

/// The bindings of one search branch, indexed by variable slot (nullptr
/// = unbound). Trivially copyable, so a branch copies them for free.
using Slots = std::array<ir::ExprPtr, kMaxTemplateVars>;

/// Open-addressing map from expression node to a 32-bit value, emptied
/// in O(1) by advancing an epoch. Memory grows with the largest DAG
/// walked, never with the number of walks.
class NodeMap {
 public:
  void clear() noexcept;
  /// The value of `e`, inserting `value` first when `e` is absent. The
  /// pointer is valid until the next insert; `inserted` says which case.
  std::uint32_t* insert(ir::ExprPtr e, std::uint32_t value, bool& inserted);
  [[nodiscard]] const std::uint32_t* find(ir::ExprPtr e) const noexcept;

 private:
  struct Entry {
    ir::ExprPtr key = nullptr;
    std::uint32_t epoch = 0;
    std::uint32_t value = 0;
  };
  [[nodiscard]] std::size_t home(ir::ExprPtr e) const noexcept;
  void grow();

  std::vector<Entry> table_;  // size 0 or a power of two
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;  // entries of the current epoch
};

/// Reusable memory for one walk over an expression DAG: the nodes seen
/// and an explicit stack, so a walk visits each node once and never
/// recurses per node.
struct DagScratch {
  NodeMap seen;
  std::vector<ir::ExprPtr> stack;
  bool busy = false;  // a walk is using it (a transform nested in a base)
};

/// Pattern trees flattened into one array, each variable resolved to a
/// slot (in order of first use), so matching looks up no names.
class PatternSet {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint8_t kNoSlot = 0xff;

  /// Add `p` and its sub-patterns; returns its index (kNone for null).
  std::uint32_t add(const PatPtr& p);
  /// Slot of variable `var`, or kNoSlot when no added pattern uses it.
  [[nodiscard]] std::uint8_t slot_of(std::string_view var) const noexcept;
  /// Variable names by slot. More than kMaxTemplateVars means the set
  /// overflowed: no slot was given to the extra ones.
  [[nodiscard]] const std::vector<std::string>& vars() const noexcept { return vars_; }

  /// Match `e` against pattern `root`, extending `slots`. On failure
  /// `slots` is left in an unspecified state: callers match a copy they
  /// can discard.
  bool match(std::uint32_t root, ir::ExprPtr e, Slots& slots, DagScratch& dag) const;

 private:
  struct Node {
    PatKind kind{};
    std::uint8_t slot = kNoSlot;
    bool require_nonzero = false;
    bool allow_not = false;
    bool require_const_leaf = false;
    ir::BinOp bop{};
    ir::UnOp uop{};
    std::uint16_t allowed = 0;  // kTransform: bit per ir::BinOp
    std::uint32_t fixed = 0;
    std::uint32_t a = kNone, b = kNone, base = kNone;
  };
  std::uint8_t slot_for(const std::string& var);
  bool transform(const Node& n, ir::ExprPtr e, Slots& slots, DagScratch& dag) const;

  std::vector<Node> nodes_;
  std::vector<std::string> vars_;
};

/// Variable bindings by name: what a MatchResult reports.
using Env = std::map<std::string, ir::ExprPtr, std::less<>>;

/// Debug rendering of a pattern.
std::string to_string(const PatPtr& p);

}  // namespace senids::semantic
