#include "semantic/pattern.hpp"

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

void NodeMap::clear() noexcept {
  size_ = 0;
  if (++epoch_ == 0) {  // wrapped: forget every stamp
    for (Entry& en : table_) en.epoch = 0;
    epoch_ = 1;
  }
}

std::size_t NodeMap::home(ir::ExprPtr e) const noexcept {
  const auto h = (reinterpret_cast<std::uintptr_t>(e) >> 3) * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(h >> 32) & (table_.size() - 1);
}

const std::uint32_t* NodeMap::find(ir::ExprPtr e) const noexcept {
  if (table_.empty()) return nullptr;
  for (std::size_t i = home(e);; i = (i + 1) & (table_.size() - 1)) {
    const Entry& en = table_[i];
    if (en.epoch != epoch_) return nullptr;
    if (en.key == e) return &en.value;
  }
}

std::uint32_t* NodeMap::insert(ir::ExprPtr e, std::uint32_t value, bool& inserted) {
  if (2 * (size_ + 1) > table_.size()) grow();
  for (std::size_t i = home(e);; i = (i + 1) & (table_.size() - 1)) {
    Entry& en = table_[i];
    if (en.epoch != epoch_) {
      en = Entry{e, epoch_, value};
      ++size_;
      inserted = true;
      return &en.value;
    }
    if (en.key == e) {
      inserted = false;
      return &en.value;
    }
  }
}

void NodeMap::grow() {
  std::vector<Entry> old = std::move(table_);
  table_.assign(old.empty() ? 16 : 2 * old.size(), Entry{});
  const std::uint32_t live = epoch_;
  epoch_ = 1;
  size_ = 0;
  bool inserted = false;
  for (const Entry& en : old) {
    if (en.epoch == live) insert(en.key, en.value, inserted);
  }
}

namespace {

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

/// Bind slot `slot` to `e`, or check `e` against its earlier binding.
bool bind(std::uint8_t slot, ExprPtr e, Slots& slots) {
  if (slot == PatternSet::kNoSlot) return true;
  if (!slots[slot]) {
    slots[slot] = e;
    return true;
  }
  return ir::struct_eq(slots[slot], e);
}

}  // namespace

std::uint8_t PatternSet::slot_for(const std::string& var) {
  if (var.empty()) return kNoSlot;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) return i < kMaxTemplateVars ? static_cast<std::uint8_t>(i) : kNoSlot;
  }
  vars_.push_back(var);
  return vars_.size() <= kMaxTemplateVars ? static_cast<std::uint8_t>(vars_.size() - 1)
                                          : kNoSlot;
}

std::uint8_t PatternSet::slot_of(std::string_view var) const noexcept {
  for (std::size_t i = 0; i < vars_.size() && i < kMaxTemplateVars; ++i) {
    if (vars_[i] == var) return static_cast<std::uint8_t>(i);
  }
  return kNoSlot;
}

std::uint32_t PatternSet::add(const PatPtr& p) {
  if (!p) return kNone;
  Node n;
  n.kind = p->kind;
  n.slot = slot_for(p->var);
  n.require_nonzero = p->require_nonzero;
  n.allow_not = p->allow_not;
  n.require_const_leaf = p->require_const_leaf;
  n.bop = p->bop;
  n.uop = p->uop;
  for (ir::BinOp op : p->allowed) n.allowed |= std::uint16_t(1u << static_cast<unsigned>(op));
  n.fixed = p->fixed;
  n.a = add(p->a);
  n.b = add(p->b);
  n.base = add(p->base);
  nodes_.push_back(n);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

bool PatternSet::match(std::uint32_t root, ExprPtr e, Slots& slots, DagScratch& dag) const {
  if (root == kNone || !e) return false;
  const Node& n = nodes_[root];
  switch (n.kind) {
    case PatKind::kAny:
      return bind(n.slot, e, slots);

    case PatKind::kConst: {
      std::uint32_t v;
      if (!ir::is_const(e, &v)) return false;
      if (n.require_nonzero && v == 0) return false;
      return bind(n.slot, e, slots);
    }

    case PatKind::kFixedConst: {
      std::uint32_t v;
      return ir::is_const(e, &v) && v == n.fixed;
    }

    case PatKind::kLoad:
      return e->kind == ExprKind::kLoad && match(n.a, e->addr, slots, dag);

    case PatKind::kBin: {
      if (e->kind != ExprKind::kBin || e->bop != n.bop) return false;
      const Slots before = slots;
      if (match(n.a, e->lhs, slots, dag) && match(n.b, e->rhs, slots, dag)) return true;
      if (!commutative(n.bop)) return false;
      slots = before;
      return match(n.a, e->rhs, slots, dag) && match(n.b, e->lhs, slots, dag);
    }

    case PatKind::kUn:
      return e->kind == ExprKind::kUn && e->uop == n.uop && match(n.a, e->lhs, slots, dag);

    case PatKind::kTransform: {
      if (!dag.busy) return transform(n, e, slots, dag);
      DagScratch nested;  // a transform inside a transform's base
      return transform(n, e, slots, nested);
    }
  }
  return false;
}

/// A kTransform: walks the DAG under `e` once, in the same pre-order
/// (left child first) as a tree walk, so the first base leaf binds first.
/// A node met again was already accepted: its subtree needs no second
/// walk, and the base, constant and operator tests only ask whether at
/// least one such node exists. Bindings only grow during the walk, so a
/// second visit could not decide differently.
bool PatternSet::transform(const Node& n, ExprPtr root, Slots& slots, DagScratch& dag) const {
  dag.busy = true;
  dag.seen.clear();
  dag.stack.assign(1, root);
  bool base_leaf = false, const_leaf = false, op = false, ok = true;
  while (ok && !dag.stack.empty()) {
    const ExprPtr e = dag.stack.back();
    dag.stack.pop_back();
    bool fresh = false;
    dag.seen.insert(e, 0, fresh);
    if (!fresh) continue;
    // A base match takes priority: the base pattern is typically a load,
    // which can never be an allowed internal node anyway.
    const Slots before = slots;
    if (match(n.base, e, slots, dag)) {
      base_leaf = true;
      continue;
    }
    slots = before;
    if (e->kind == ExprKind::kConst) {
      const_leaf = true;
    } else if (e->kind == ExprKind::kBin &&
               (n.allowed >> static_cast<unsigned>(e->bop) & 1u) != 0) {
      op = true;
      dag.stack.push_back(e->rhs);
      dag.stack.push_back(e->lhs);
    } else if (e->kind == ExprKind::kBin && e->bop == ir::BinOp::kAnd &&
               e->rhs->kind == ExprKind::kConst) {
      // Byte-access plumbing: an And with a constant mask is how the
      // lifter represents sub-register reads of wider intermediate
      // values. It is transparent to the transform structure — traverse
      // through it without counting it as a transformation step.
      dag.stack.push_back(e->lhs);
    } else if (e->kind == ExprKind::kUn && e->uop == ir::UnOp::kNot && n.allow_not) {
      op = true;
      dag.stack.push_back(e->lhs);
    } else {
      ok = false;
    }
  }
  dag.busy = false;
  return ok && base_leaf && op && (const_leaf || !n.require_const_leaf);
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
