#include <gtest/gtest.h>

#include <cstdio>

#include "ir/expr.hpp"
#include "util/prng.hpp"

namespace senids::ir {
namespace {

using arch::RegFamily;

/// Every node these tests build lives in one arena that lasts as long as
/// the test binary; the shorthands keep the tests reading like the IR.
ExprArena arena;
ExprPtr mk_const(std::uint32_t v) { return arena.mk_const(v); }
ExprPtr mk_init(arch::RegFamily f) { return arena.mk_init(f); }
ExprPtr mk_load(ExprPtr addr, unsigned width, std::uint32_t generation) {
  return arena.mk_load(addr, width, generation);
}
ExprPtr mk_bin(BinOp op, ExprPtr l, ExprPtr r) { return arena.mk_bin(op, l, r); }
ExprPtr mk_un(UnOp op, ExprPtr x) { return arena.mk_un(op, x); }
ExprPtr mk_unknown(std::uint32_t id) { return arena.mk_unknown(id); }

TEST(Expr, ConstFolding) {
  auto e = mk_bin(BinOp::kAdd, mk_const(0x31), mk_const(0x64));
  std::uint32_t v;
  ASSERT_TRUE(is_const(e, &v));
  EXPECT_EQ(v, 0x95u);
}

TEST(Expr, FoldsAllOperators) {
  struct Case {
    BinOp op;
    std::uint32_t a, b, want;
  };
  const Case cases[] = {
      {BinOp::kAdd, 7, 3, 10},
      {BinOp::kSub, 7, 3, 4},
      {BinOp::kXor, 0xff, 0x0f, 0xf0},
      {BinOp::kOr, 0xf0, 0x0f, 0xff},
      {BinOp::kAnd, 0xfc, 0x0f, 0x0c},
      {BinOp::kShl, 1, 4, 16},
      {BinOp::kShr, 16, 4, 1},
      {BinOp::kSar, 0x80000000u, 31, 0xffffffffu},
      {BinOp::kRol, 0x80000001u, 1, 0x00000003u},
      {BinOp::kRor, 0x00000003u, 1, 0x80000001u},
      {BinOp::kMul, 6, 7, 42},
  };
  for (const Case& c : cases) {
    std::uint32_t v = 0;
    ASSERT_TRUE(is_const(mk_bin(c.op, mk_const(c.a), mk_const(c.b)), &v))
        << binop_name(c.op);
    EXPECT_EQ(v, c.want) << binop_name(c.op);
  }
}

TEST(Expr, SubConstNormalizesToAdd) {
  // sub x, 1  ==  add x, -1 : the advance-pattern normalization.
  auto x = mk_init(RegFamily::kAx);
  auto s = mk_bin(BinOp::kSub, x, mk_const(1));
  ASSERT_EQ(s->kind, ExprKind::kBin);
  EXPECT_EQ(s->bop, BinOp::kAdd);
  std::uint32_t v;
  ASSERT_TRUE(is_const(s->rhs, &v));
  EXPECT_EQ(v, 0xffffffffu);
}

TEST(Expr, AddChainFolds) {
  auto x = mk_init(RegFamily::kAx);
  auto e = mk_bin(BinOp::kAdd, mk_bin(BinOp::kAdd, x, mk_const(5)), mk_const(7));
  ASSERT_EQ(e->kind, ExprKind::kBin);
  std::uint32_t v;
  ASSERT_TRUE(is_const(e->rhs, &v));
  EXPECT_EQ(v, 12u);
  EXPECT_TRUE(struct_eq(e->lhs, x));
}

TEST(Expr, IncThenDecCancels) {
  auto x = mk_init(RegFamily::kCx);
  auto e = mk_bin(BinOp::kAdd, mk_bin(BinOp::kAdd, x, mk_const(1)), mk_const(0xffffffffu));
  EXPECT_TRUE(struct_eq(e, x));
}

TEST(Expr, Identities) {
  auto x = mk_init(RegFamily::kBx);
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kAdd, x, mk_const(0)), x));
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kXor, x, mk_const(0)), x));
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kOr, x, mk_const(0)), x));
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kAnd, x, mk_const(0xffffffffu)), x));
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kMul, x, mk_const(1)), x));
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kShl, x, mk_const(0)), x));
}

TEST(Expr, Annihilators) {
  auto x = mk_init(RegFamily::kBx);
  std::uint32_t v;
  ASSERT_TRUE(is_const(mk_bin(BinOp::kAnd, x, mk_const(0)), &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(is_const(mk_bin(BinOp::kMul, x, mk_const(0)), &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(is_const(mk_bin(BinOp::kXor, x, x), &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(is_const(mk_bin(BinOp::kSub, x, x), &v));
  EXPECT_EQ(v, 0u);
}

TEST(Expr, SelfAbsorption) {
  auto x = mk_init(RegFamily::kDx);
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kAnd, x, x), x));
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kOr, x, x), x));
}

TEST(Expr, CommutativeCanonicalization) {
  auto a = mk_init(RegFamily::kAx);
  auto b = mk_init(RegFamily::kBx);
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kXor, a, b), mk_bin(BinOp::kXor, b, a)));
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kAdd, a, b), mk_bin(BinOp::kAdd, b, a)));
  // Constant always lands on the right.
  auto e = mk_bin(BinOp::kXor, mk_const(5), a);
  EXPECT_EQ(e->rhs->kind, ExprKind::kConst);
}

TEST(Expr, NotNotCancels) {
  auto x = mk_init(RegFamily::kAx);
  EXPECT_TRUE(struct_eq(mk_un(UnOp::kNot, mk_un(UnOp::kNot, x)), x));
}

TEST(Expr, UnaryConstFolds) {
  std::uint32_t v;
  ASSERT_TRUE(is_const(mk_un(UnOp::kNot, mk_const(0x0f)), &v));
  EXPECT_EQ(v, 0xfffffff0u);
  ASSERT_TRUE(is_const(mk_un(UnOp::kNeg, mk_const(1)), &v));
  EXPECT_EQ(v, 0xffffffffu);
}

TEST(Expr, CoveringMaskOnLoadDrops) {
  auto load8 = mk_load(mk_init(RegFamily::kAx), 8, 0);
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kAnd, load8, mk_const(0xff)), load8));
  // A narrower mask stays.
  auto masked = mk_bin(BinOp::kAnd, load8, mk_const(0x0f));
  EXPECT_EQ(masked->kind, ExprKind::kBin);
}

TEST(Expr, ValueBitsPropagation) {
  auto load8 = mk_load(mk_init(RegFamily::kAx), 8, 0);
  EXPECT_EQ(load8->value_bits, 8);
  auto x = mk_bin(BinOp::kXor, load8, mk_const(0x95));
  EXPECT_EQ(x->value_bits, 8);
  // And with the covering mask of a computed 8-bit value is dropped.
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kAnd, x, mk_const(0xff)), x));
}

TEST(Expr, SubRegisterMergeReadsBack) {
  // Writing BL over unknown EBX then reading BL must give back the byte:
  // And(Or(And(init, ~0xff), 0x95), 0xff) -> 0x95.
  auto init = mk_init(RegFamily::kBx);
  auto merged = mk_bin(BinOp::kOr, mk_bin(BinOp::kAnd, init, mk_const(0xffffff00u)),
                       mk_const(0x95));
  auto read = mk_bin(BinOp::kAnd, merged, mk_const(0xff));
  std::uint32_t v;
  ASSERT_TRUE(is_const(read, &v));
  EXPECT_EQ(v, 0x95u);
}

TEST(Expr, AndChainMergesMasks) {
  auto x = mk_init(RegFamily::kAx);
  auto e = mk_bin(BinOp::kAnd, mk_bin(BinOp::kAnd, x, mk_const(0xff00)), mk_const(0x0ff0));
  ASSERT_EQ(e->kind, ExprKind::kBin);
  std::uint32_t v;
  ASSERT_TRUE(is_const(e->rhs, &v));
  EXPECT_EQ(v, 0x0f00u);
}

TEST(Expr, LoadsDifferByGeneration) {
  auto addr = mk_init(RegFamily::kSi);
  auto l0 = mk_load(addr, 8, 0);
  auto l1 = mk_load(addr, 8, 1);
  EXPECT_FALSE(struct_eq(l0, l1));
  EXPECT_TRUE(struct_eq(l0, mk_load(addr, 8, 0)));
}

TEST(Expr, LoadsDifferByWidth) {
  auto addr = mk_init(RegFamily::kSi);
  EXPECT_FALSE(struct_eq(mk_load(addr, 8, 0), mk_load(addr, 32, 0)));
}

TEST(Expr, HashConsistentWithEquality) {
  auto a1 = mk_bin(BinOp::kXor, mk_load(mk_init(RegFamily::kAx), 8, 0), mk_const(0x95));
  auto a2 = mk_bin(BinOp::kXor, mk_const(0x95), mk_load(mk_init(RegFamily::kAx), 8, 0));
  EXPECT_TRUE(struct_eq(a1, a2));
  EXPECT_EQ(a1->cached_hash, a2->cached_hash);
}

TEST(Expr, UnknownsAreDistinct) {
  EXPECT_FALSE(struct_eq(mk_unknown(0), mk_unknown(1)));
  EXPECT_TRUE(struct_eq(mk_unknown(3), mk_unknown(3)));
}

TEST(Expr, ToStringRenders) {
  auto e = mk_bin(BinOp::kXor, mk_load(mk_init(RegFamily::kAx), 8, 0), mk_const(0x95));
  EXPECT_EQ(to_string(e), "xor(load8@0(init(eax)), 0x95)");
}

TEST(Expr, ToStringCutsSharedSubtrees) {
  // add(x, x) nested 60 deep: 61 nodes, 2^60 leaves if unfolded.
  auto e = mk_init(RegFamily::kSi);
  for (int i = 0; i < 60; ++i) e = mk_bin(BinOp::kAdd, e, e);
  const std::string s = to_string(e);
  EXPECT_LE(s.size(), 1100u);
  EXPECT_TRUE(s.starts_with("add(add("));
  EXPECT_TRUE(s.ends_with("..."));
}

TEST(Expr, WideLoadHasThirtyTwoValueBits) {
  // Values are 32 bits wide; a 64-bit load contributes its low half.
  EXPECT_EQ(mk_load(mk_init(RegFamily::kSp), 64, 0)->value_bits, 32);
  EXPECT_EQ(mk_load(mk_init(RegFamily::kSp), 16, 0)->value_bits, 16);
}

TEST(Expr, ShiftByConstZeroIsIdentity) {
  auto x = mk_init(RegFamily::kAx);
  EXPECT_TRUE(struct_eq(mk_bin(BinOp::kShr, x, mk_const(32)), x));  // 32 & 31 == 0
}

TEST(Expr, FigureOneEquivalence) {
  // The heart of the reproduction: Figure 1(a) xors with 0x95 directly;
  // Figure 1(b) builds the key as 0x31 + 0x64 in a register. Both stored
  // values must normalize to the same expression.
  auto addr = mk_init(RegFamily::kAx);
  auto load = mk_load(addr, 8, 0);
  auto direct = mk_bin(BinOp::kXor, load, mk_const(0x95));
  auto built_key = mk_bin(BinOp::kAdd, mk_const(0x31), mk_const(0x64));
  auto indirect = mk_bin(BinOp::kXor, load, built_key);
  EXPECT_TRUE(struct_eq(direct, indirect));
}

TEST(Expr, StructEqLinearOnSharedDags) {
  // x' = or(x, not(x)) reaches x along two paths, so a comparison that
  // walks the trees of two separately built 64-step ladders would take
  // 2^64 steps.
  auto ladder = [](ExprPtr x) {
    for (int i = 0; i < 64; ++i) x = mk_bin(BinOp::kOr, x, mk_un(UnOp::kNot, x));
    return x;
  };
  const ExprPtr a = ladder(mk_load(mk_init(RegFamily::kSi), 32, 0));
  const ExprPtr b = ladder(mk_load(mk_init(RegFamily::kSi), 32, 0));
  ASSERT_NE(a, b);
  EXPECT_TRUE(struct_eq(a, b));
  EXPECT_TRUE(is_const(mk_bin(BinOp::kXor, a, b)));  // x ^ x folds to 0
  EXPECT_FALSE(struct_eq(a, ladder(mk_load(mk_init(RegFamily::kSi), 32, 1))));
}

TEST(ExprArena, NodesSurviveMovingTheArena) {
  ExprArena a;
  ExprPtr e = a.mk_bin(BinOp::kXor, a.mk_load(a.mk_init(RegFamily::kAx), 8, 0),
                       a.mk_const(0x95));
  const std::string before = to_string(e);
  ExprArena b = std::move(a);
  EXPECT_EQ(to_string(e), before);
  EXPECT_TRUE(b.position(e).has_value());
  EXPECT_FALSE(a.position(e).has_value());
  // The moved-from arena owns nothing but still allocates.
  EXPECT_TRUE(a.position(a.mk_const(1)).has_value());
}

TEST(ExprArena, ResetReusesChunksAndPositionsFollowAllocation) {
  ExprArena a;
  ExprPtr first = a.mk_const(1);
  std::vector<ExprPtr> nodes;
  for (std::uint32_t i = 0; i < 2000; ++i) nodes.push_back(a.mk_unknown(i));  // > 1 chunk
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    ASSERT_LT(*a.position(nodes[i - 1]), *a.position(nodes[i])) << i;
  }
  a.reset();
  EXPECT_FALSE(a.position(first).has_value());
  EXPECT_FALSE(a.position(nodes.back()).has_value());
  EXPECT_EQ(a.mk_const(2), first);  // the first chunk is reused, not reallocated
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ExprArenaDeathTest, NodeReadAfterResetIsReportedUnderAsan) {
  // A reset poisons the released chunks, so ASan reports a stale node
  // read even though the memory is not freed.
  ExprArena a;
  ExprPtr e = a.mk_const(0x95);
  a.reset();
  EXPECT_DEATH(std::printf("%u\n", e->cval), "use-after-poison");
}
#endif

}  // namespace
}  // namespace senids::ir

namespace senids::ir {
namespace {

/// Property sweep: constant-only expression trees must fold to exactly
/// the value a direct evaluator computes — the soundness core of the
/// Figure-1(b) key-reconstruction claim.
class ConstFoldProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConstFoldProperty, RandomConstTreesFoldExactly) {
  util::Prng prng(GetParam());
  // Build a random tree bottom-up over constants, computing the expected
  // value alongside with uint32 arithmetic.
  struct Node {
    ExprPtr expr;
    std::uint32_t value;
  };
  std::vector<Node> pool;
  for (int i = 0; i < 4; ++i) {
    const std::uint32_t v = static_cast<std::uint32_t>(prng.next());
    pool.push_back({mk_const(v), v});
  }
  auto eval = [](BinOp op, std::uint32_t a, std::uint32_t b) -> std::uint32_t {
    switch (op) {
      case BinOp::kAdd: return a + b;
      case BinOp::kSub: return a - b;
      case BinOp::kXor: return a ^ b;
      case BinOp::kOr: return a | b;
      case BinOp::kAnd: return a & b;
      case BinOp::kMul: return a * b;
      case BinOp::kShl: return (b & 31) ? a << (b & 31) : a;
      case BinOp::kShr: return (b & 31) ? a >> (b & 31) : a;
      case BinOp::kSar:
        return (b & 31) ? static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                                     (b & 31))
                        : a;
      case BinOp::kRol: {
        unsigned s = b & 31;
        return s ? (a << s) | (a >> (32 - s)) : a;
      }
      case BinOp::kRor: {
        unsigned s = b & 31;
        return s ? (a >> s) | (a << (32 - s)) : a;
      }
    }
    return 0;
  };
  static constexpr BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kXor, BinOp::kOr,
                                   BinOp::kAnd, BinOp::kMul, BinOp::kShl, BinOp::kShr,
                                   BinOp::kSar, BinOp::kRol, BinOp::kRor};
  for (int step = 0; step < 24; ++step) {
    const BinOp op = kOps[prng.below(std::size(kOps))];
    const Node& a = pool[prng.below(pool.size())];
    const Node& b = pool[prng.below(pool.size())];
    Node n{mk_bin(op, a.expr, b.expr), eval(op, a.value, b.value)};
    std::uint32_t folded;
    ASSERT_TRUE(is_const(n.expr, &folded)) << binop_name(op);
    ASSERT_EQ(folded, n.value) << binop_name(op);
    pool.push_back(std::move(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstFoldProperty,
                         ::testing::Range<std::uint64_t>(0, 32));

/// Simplification must be semantics-preserving for mixed trees too: a
/// tree over one symbolic leaf, evaluated at a concrete value via
/// substitution-by-construction, equals the direct computation.
class SimplifyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplifyProperty, MixedTreesPreserveSemantics) {
  util::Prng prng(100 + GetParam());
  const std::uint32_t x_value = static_cast<std::uint32_t>(prng.next());

  // Build the same random tree twice: once over init(eax) (symbolic) and
  // once over the constant x_value. If the symbolic tree happens to fold
  // to a constant, it must equal the concrete result.
  struct Pair {
    ExprPtr sym;
    ExprPtr conc;
  };
  std::vector<Pair> pool;
  pool.push_back({mk_init(arch::RegFamily::kAx), mk_const(x_value)});
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t v = static_cast<std::uint32_t>(prng.next());
    pool.push_back({mk_const(v), mk_const(v)});
  }
  static constexpr BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kXor, BinOp::kOr,
                                   BinOp::kAnd, BinOp::kMul};
  for (int step = 0; step < 20; ++step) {
    const BinOp op = kOps[prng.below(std::size(kOps))];
    const Pair& a = pool[prng.below(pool.size())];
    const Pair& b = pool[prng.below(pool.size())];
    Pair n{mk_bin(op, a.sym, b.sym), mk_bin(op, a.conc, b.conc)};
    std::uint32_t sym_const, conc_const;
    ASSERT_TRUE(is_const(n.conc, &conc_const));
    if (is_const(n.sym, &sym_const)) {
      ASSERT_EQ(sym_const, conc_const)
          << binop_name(op) << " over " << to_string(a.sym) << " and "
          << to_string(b.sym);
    }
    pool.push_back(std::move(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyProperty,
                         ::testing::Range<std::uint64_t>(0, 32));

}  // namespace
}  // namespace senids::ir
