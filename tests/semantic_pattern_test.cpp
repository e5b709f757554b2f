#include <gtest/gtest.h>

#include "one_shot.hpp"
#include "semantic/pattern.hpp"

namespace senids::semantic {
namespace {

using ir::BinOp;
using ir::ExprPtr;
using ir::UnOp;
using arch::RegFamily;
using test::match_expr;

/// Every node these tests build lives in one arena that lasts as long as
/// the test binary; the shorthands keep the tests reading like the IR.
ir::ExprArena arena;
ExprPtr mk_const(std::uint32_t v) { return arena.mk_const(v); }
ExprPtr mk_init(arch::RegFamily f) { return arena.mk_init(f); }
ExprPtr mk_load(ExprPtr addr, unsigned width, std::uint32_t generation) {
  return arena.mk_load(addr, width, generation);
}
ExprPtr mk_bin(BinOp op, ExprPtr l, ExprPtr r) { return arena.mk_bin(op, l, r); }
ExprPtr mk_un(UnOp op, ExprPtr x) { return arena.mk_un(op, x); }
ExprPtr mk_unknown(std::uint32_t id) { return arena.mk_unknown(id); }

TEST(Pattern, AnyMatchesEverythingAndBinds) {
  Env env;
  auto e = mk_bin(BinOp::kAdd, mk_init(RegFamily::kAx), mk_const(4));
  EXPECT_TRUE(match_expr(p_any("X"), e, env));
  ASSERT_TRUE(env.contains("X"));
  EXPECT_TRUE(ir::struct_eq(env["X"], e));
}

TEST(Pattern, BindingConsistencyEnforced) {
  // add(A, A) must only match when both operands are identical. (xor of
  // identical operands would have been folded to 0 by the simplifier.)
  auto pat = p_bin(BinOp::kAdd, p_any("A"), p_any("A"));
  Env env1;
  EXPECT_TRUE(match_expr(pat, mk_bin(BinOp::kAdd, mk_load(mk_init(RegFamily::kAx), 8, 0),
                                     mk_load(mk_init(RegFamily::kAx), 8, 0)),
                         env1));
  Env env2;
  // Different generations: not identical, must not match.
  EXPECT_FALSE(match_expr(pat, mk_bin(BinOp::kAdd, mk_load(mk_init(RegFamily::kAx), 8, 0),
                                      mk_load(mk_init(RegFamily::kAx), 8, 1)),
                          env2));
}

TEST(Pattern, ConstRequiresConstant) {
  Env env;
  EXPECT_TRUE(match_expr(p_const("K"), mk_const(0x95), env));
  EXPECT_FALSE(match_expr(p_const("K2"), mk_init(RegFamily::kAx), env));
}

TEST(Pattern, ConstNonzeroRejectsZero) {
  Env env;
  EXPECT_FALSE(match_expr(p_const("K", /*nonzero=*/true), mk_const(0), env));
  EXPECT_TRUE(match_expr(p_const("K", /*nonzero=*/false), mk_const(0), env));
}

TEST(Pattern, FixedConstExactMatch) {
  Env env;
  EXPECT_TRUE(match_expr(p_fixed(0x6e69622f), mk_const(0x6e69622f), env));
  EXPECT_FALSE(match_expr(p_fixed(0x6e69622f), mk_const(0x6e69622e), env));
}

TEST(Pattern, LoadMatchesAddrRecursively) {
  Env env;
  auto pat = p_load(p_any("A"));
  EXPECT_TRUE(match_expr(pat, mk_load(mk_init(RegFamily::kSi), 8, 3), env));
  EXPECT_TRUE(ir::struct_eq(env["A"], mk_init(RegFamily::kSi)));
  EXPECT_FALSE(match_expr(pat, mk_const(5), env));
}

TEST(Pattern, BinMatchesCommutatively) {
  // Pattern xor(load(*), K) must match Xor whichever side the load is on
  // after canonicalization.
  auto pat = p_bin(BinOp::kXor, p_load(p_any("A")), p_const("K"));
  auto load = mk_load(mk_init(RegFamily::kAx), 8, 0);
  Env env1, env2;
  EXPECT_TRUE(match_expr(pat, mk_bin(BinOp::kXor, load, mk_const(0x95)), env1));
  EXPECT_TRUE(match_expr(pat, mk_bin(BinOp::kXor, mk_const(0x95), load), env2));
  EXPECT_TRUE(ir::struct_eq(env1["K"], mk_const(0x95)));
}

TEST(Pattern, BinNonCommutativeOrderMatters) {
  auto pat = p_bin(BinOp::kShl, p_any("X"), p_fixed(4));
  Env env;
  EXPECT_TRUE(match_expr(pat, mk_bin(BinOp::kShl, mk_init(RegFamily::kAx), mk_const(4)), env));
  Env env2;
  EXPECT_FALSE(
      match_expr(pat, mk_bin(BinOp::kShl, mk_init(RegFamily::kAx), mk_const(5)), env2));
}

TEST(Pattern, BinWrongOperatorFails) {
  auto pat = p_bin(BinOp::kXor, p_any(), p_any());
  Env env;
  EXPECT_FALSE(match_expr(pat, mk_bin(BinOp::kOr, mk_init(RegFamily::kAx), mk_unknown(0)),
                          env));
}

TEST(Pattern, UnMatches) {
  auto pat = p_un(UnOp::kNot, p_load(p_any("A")));
  Env env;
  EXPECT_TRUE(match_expr(pat, mk_un(UnOp::kNot, mk_load(mk_init(RegFamily::kDi), 8, 0)), env));
  EXPECT_FALSE(match_expr(pat, mk_load(mk_init(RegFamily::kDi), 8, 0), env));
}

TEST(Pattern, TransformMatchesOrAndNotTree) {
  // dec = And(Or(load,k), Not(And(load,k))) — the ADMmutate alternate
  // decode expression.
  auto load = mk_load(mk_init(RegFamily::kSi), 8, 0);
  auto k = mk_const(0x5a);
  auto value = mk_bin(BinOp::kAnd, mk_bin(BinOp::kOr, load, k),
                      mk_un(UnOp::kNot, mk_bin(BinOp::kAnd, load, k)));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_TRUE(match_expr(pat, value, env));
  EXPECT_TRUE(ir::struct_eq(env["A"], mk_init(RegFamily::kSi)));
}

TEST(Pattern, TransformRejectsDisallowedOperator) {
  auto load = mk_load(mk_init(RegFamily::kSi), 8, 0);
  auto value = mk_bin(BinOp::kXor, load, mk_const(0x5a));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_FALSE(match_expr(pat, value, env));
}

TEST(Pattern, TransformRequiresBaseLeaf) {
  // Pure-constant tree: no load leaf -> no match.
  auto value = mk_bin(BinOp::kOr, mk_unknown(1), mk_const(0x5a));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_FALSE(match_expr(pat, value, env));
}

TEST(Pattern, TransformRequiresAtLeastOneOp) {
  // A bare load is not a transformation.
  auto load = mk_load(mk_init(RegFamily::kSi), 8, 0);
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_FALSE(match_expr(pat, load, env));
}

TEST(Pattern, TransformRequiresConstLeafWhenAsked) {
  auto load = mk_load(mk_init(RegFamily::kSi), 8, 0);
  auto value = mk_bin(BinOp::kOr, load, mk_unknown(7));
  auto strict = p_transform(p_load(p_any("A")), {BinOp::kOr}, true, /*require_const=*/true);
  auto loose = p_transform(p_load(p_any("A")), {BinOp::kOr}, true, /*require_const=*/false);
  Env e1, e2;
  EXPECT_FALSE(match_expr(strict, value, e1));
  // The unknown leaf is neither const nor base -> the walk itself fails.
  EXPECT_FALSE(match_expr(loose, value, e2));
  // With a constant second leaf, the strict form matches.
  Env e3;
  EXPECT_TRUE(match_expr(strict, mk_bin(BinOp::kOr, load, mk_const(3)), e3));
}

TEST(Pattern, TransformBaseBindingConsistent) {
  // Two different loads in one tree must not unify to one variable.
  auto l1 = mk_load(mk_init(RegFamily::kSi), 8, 0);
  auto l2 = mk_load(mk_init(RegFamily::kDi), 8, 0);
  auto value = mk_bin(BinOp::kAnd, mk_bin(BinOp::kOr, l1, mk_const(1)),
                      mk_bin(BinOp::kOr, l2, mk_const(2)));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_FALSE(match_expr(pat, value, env));
}

TEST(Pattern, RorDecoderTransform) {
  auto load = mk_load(mk_init(RegFamily::kBx), 8, 0);
  auto value = mk_bin(BinOp::kRor, load, mk_const(3));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kRol, BinOp::kRor}, false);
  Env env;
  EXPECT_TRUE(match_expr(pat, value, env));
}

TEST(Pattern, ToStringRenders) {
  auto pat = p_bin(BinOp::kXor, p_load(p_any("A")), p_const("K"));
  EXPECT_EQ(to_string(pat), "xor(load(*:A), const!0:K)");
  EXPECT_EQ(to_string(p_fixed(0x10)), "0x10");
  auto tr = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  EXPECT_EQ(to_string(tr), "transform<or|and|not>(load(*:A))");
}

TEST(Pattern, NullSafety) {
  Env env;
  EXPECT_FALSE(match_expr(nullptr, mk_const(1), env));
  EXPECT_FALSE(match_expr(p_any(), nullptr, env));
}

}  // namespace
}  // namespace senids::semantic
