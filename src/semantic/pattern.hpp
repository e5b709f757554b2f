// Expression patterns: templates describe the *values* malicious code
// computes, with pattern variables standing for registers, addresses and
// symbolic constants (the paper's "variables and symbolic constants").
// A variable binds on first use and must match structurally-equal
// expressions on every later use; this is what makes the matcher immune
// to register reassignment.
#pragma once

#include <map>
#include <memory>
#include <string>
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

/// Variable bindings accumulated during a match.
using Env = std::map<std::string, ir::ExprPtr, std::less<>>;

/// Match `e` against `p`, extending `env`. On failure `env` is left in an
/// unspecified state — callers must match against a copy they can discard
/// (the template matcher does exactly that).
bool match_expr(const PatPtr& p, ir::ExprPtr e, Env& env);

/// Debug rendering of a pattern.
std::string to_string(const PatPtr& p);

}  // namespace senids::semantic
