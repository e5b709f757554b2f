#include "semantic/pattern.hpp"

#include <algorithm>
#include <cstdio>

namespace senids::semantic {

using ir::ExprKind;
using ir::ExprPtr;

PatPtr p_any(std::string var) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kAny;
  p->var = std::move(var);
  return p;
}

PatPtr p_const(std::string var, bool nonzero) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kConst;
  p->var = std::move(var);
  p->require_nonzero = nonzero;
  return p;
}

PatPtr p_fixed(std::uint32_t value) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kFixedConst;
  p->fixed = value;
  return p;
}

PatPtr p_load(PatPtr addr) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kLoad;
  p->a = std::move(addr);
  return p;
}

PatPtr p_bin(ir::BinOp op, PatPtr a, PatPtr b) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kBin;
  p->bop = op;
  p->a = std::move(a);
  p->b = std::move(b);
  return p;
}

PatPtr p_un(ir::UnOp op, PatPtr x) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kUn;
  p->uop = op;
  p->a = std::move(x);
  return p;
}

PatPtr p_transform(PatPtr base, std::vector<ir::BinOp> allowed, bool allow_not,
                   bool require_const_leaf) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kTransform;
  p->base = std::move(base);
  p->allowed = std::move(allowed);
  p->allow_not = allow_not;
  p->require_const_leaf = require_const_leaf;
  return p;
}

namespace {

/// Bind `var` to `e`, or verify consistency with an existing binding.
bool bind(const std::string& var, ExprPtr e, Env& env) {
  if (var.empty()) return true;
  auto it = env.find(var);
  if (it == env.end()) {
    env.emplace(var, e);
    return true;
  }
  return ir::struct_eq(it->second, e);
}

bool commutative(ir::BinOp op) {
  switch (op) {
    case ir::BinOp::kAdd:
    case ir::BinOp::kXor:
    case ir::BinOp::kOr:
    case ir::BinOp::kAnd:
    case ir::BinOp::kMul:
      return true;
    default:
      return false;
  }
}

/// kTransform walker: validates the tree shape and counts base/const
/// leaves. Binding happens through the base-pattern matches.
struct TransformWalk {
  const Pattern& pat;
  Env& env;
  int base_leaves = 0;
  int const_leaves = 0;
  int ops = 0;

  bool walk(ExprPtr e) {
    // A base match takes priority: the base pattern is typically a load,
    // which can never be an allowed internal node anyway.
    {
      Env trial = env;
      if (match_expr(pat.base, e, trial)) {
        env = std::move(trial);
        ++base_leaves;
        return true;
      }
    }
    if (e->kind == ExprKind::kConst) {
      ++const_leaves;
      return true;
    }
    if (e->kind == ExprKind::kBin &&
        std::find(pat.allowed.begin(), pat.allowed.end(), e->bop) != pat.allowed.end()) {
      ++ops;
      return walk(e->lhs) && walk(e->rhs);
    }
    // Byte-access plumbing: an And with a constant mask is how the lifter
    // represents sub-register reads of wider intermediate values. It is
    // transparent to the transform structure — traverse through it
    // without counting it as a transformation step.
    if (e->kind == ExprKind::kBin && e->bop == ir::BinOp::kAnd &&
        e->rhs->kind == ExprKind::kConst) {
      return walk(e->lhs);
    }
    if (e->kind == ExprKind::kUn && e->uop == ir::UnOp::kNot && pat.allow_not) {
      ++ops;
      return walk(e->lhs);
    }
    return false;
  }
};

}  // namespace

bool match_expr(const PatPtr& p, ExprPtr e, Env& env) {
  if (!p || !e) return false;
  switch (p->kind) {
    case PatKind::kAny:
      return bind(p->var, e, env);

    case PatKind::kConst: {
      std::uint32_t v;
      if (!ir::is_const(e, &v)) return false;
      if (p->require_nonzero && v == 0) return false;
      return bind(p->var, e, env);
    }

    case PatKind::kFixedConst: {
      std::uint32_t v;
      return ir::is_const(e, &v) && v == p->fixed;
    }

    case PatKind::kLoad:
      return e->kind == ExprKind::kLoad && match_expr(p->a, e->addr, env);

    case PatKind::kBin: {
      if (e->kind != ExprKind::kBin || e->bop != p->bop) return false;
      {
        Env trial = env;
        if (match_expr(p->a, e->lhs, trial) && match_expr(p->b, e->rhs, trial)) {
          env = std::move(trial);
          return true;
        }
      }
      if (commutative(p->bop)) {
        Env trial = env;
        if (match_expr(p->a, e->rhs, trial) && match_expr(p->b, e->lhs, trial)) {
          env = std::move(trial);
          return true;
        }
      }
      return false;
    }

    case PatKind::kUn:
      return e->kind == ExprKind::kUn && e->uop == p->uop && match_expr(p->a, e->lhs, env);

    case PatKind::kTransform: {
      Env trial = env;
      TransformWalk walk{*p, trial};
      if (!walk.walk(e)) return false;
      if (walk.base_leaves < 1) return false;
      if (walk.ops < 1) return false;
      if (p->require_const_leaf && walk.const_leaves < 1) return false;
      env = std::move(trial);
      return true;
    }
  }
  return false;
}

std::string to_string(const PatPtr& p) {
  if (!p) return "null";
  auto with_var = [&p](std::string s) {
    if (!p->var.empty()) s += ":" + p->var;
    return s;
  };
  switch (p->kind) {
    case PatKind::kAny: return with_var("*");
    case PatKind::kConst: return with_var(p->require_nonzero ? "const!0" : "const");
    case PatKind::kFixedConst: {
      char buf[16];
      std::snprintf(buf, sizeof buf, "0x%x", p->fixed);
      return buf;
    }
    case PatKind::kLoad: return "load(" + to_string(p->a) + ")";
    case PatKind::kBin:
      return std::string(ir::binop_name(p->bop)) + "(" + to_string(p->a) + ", " +
             to_string(p->b) + ")";
    case PatKind::kUn:
      return std::string(p->uop == ir::UnOp::kNot ? "not" : "neg") + "(" + to_string(p->a) +
             ")";
    case PatKind::kTransform: {
      std::string ops;
      for (auto op : p->allowed) {
        if (!ops.empty()) ops += "|";
        ops += ir::binop_name(op);
      }
      if (p->allow_not) ops += "|not";
      return "transform<" + ops + ">(" + to_string(p->base) + ")";
    }
  }
  return "?";
}

}  // namespace senids::semantic
