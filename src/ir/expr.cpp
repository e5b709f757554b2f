#include "ir/expr.hpp"

#include <bit>
#include <cstdio>
#include <functional>
#include <new>
#include <optional>
#include <unordered_set>
#include <utility>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace senids::ir {

namespace {

std::uint8_t bits_of_const(std::uint32_t v) noexcept {
  return static_cast<std::uint8_t>(32 - std::countl_zero(v));
}

/// Upper bound on significant bits of a (fresh) node's value.
std::uint8_t compute_value_bits(const Expr& e) noexcept {
  switch (e.kind) {
    case ExprKind::kConst:
      return bits_of_const(e.cval);
    case ExprKind::kLoad:
      // A 64-bit load contributes its low 32 bits, like every value here.
      return static_cast<std::uint8_t>(std::min<unsigned>(32, e.load_width));
    case ExprKind::kBin: {
      const std::uint8_t lb = e.lhs->value_bits;
      const std::uint8_t rb = e.rhs->value_bits;
      switch (e.bop) {
        case BinOp::kXor:
        case BinOp::kOr:
          return std::max(lb, rb);
        case BinOp::kAnd:
          return std::min(lb, rb);
        case BinOp::kAdd:
          return static_cast<std::uint8_t>(std::min<unsigned>(32, std::max(lb, rb) + 1));
        case BinOp::kMul:
          return static_cast<std::uint8_t>(std::min<unsigned>(32, lb + rb));
        case BinOp::kShl: {
          std::uint32_t sh;
          if (is_const(e.rhs, &sh)) {
            return static_cast<std::uint8_t>(std::min<unsigned>(32, lb + (sh & 31)));
          }
          return 32;
        }
        case BinOp::kShr: {
          std::uint32_t sh;
          if (is_const(e.rhs, &sh)) {
            const unsigned s = sh & 31;
            return static_cast<std::uint8_t>(lb > s ? lb - s : 0);
          }
          return 32;
        }
        default:
          return 32;  // sub/sar/rol/ror can wrap or smear bits
      }
    }
    case ExprKind::kInitReg:
    case ExprKind::kUn:
    case ExprKind::kUnknown:
      return 32;
  }
  return 32;
}

std::uint32_t fold(BinOp op, std::uint32_t a, std::uint32_t b) noexcept {
  switch (op) {
    case BinOp::kAdd: return a + b;
    case BinOp::kSub: return a - b;
    case BinOp::kXor: return a ^ b;
    case BinOp::kOr: return a | b;
    case BinOp::kAnd: return a & b;
    case BinOp::kShl: return (b & 31) ? (a << (b & 31)) : a;
    case BinOp::kShr: return (b & 31) ? (a >> (b & 31)) : a;
    case BinOp::kSar:
      return (b & 31) ? static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> (b & 31))
                      : a;
    case BinOp::kRol: {
      unsigned s = b & 31;
      return s ? ((a << s) | (a >> (32 - s))) : a;
    }
    case BinOp::kRor: {
      unsigned s = b & 31;
      return s ? ((a >> s) | (a << (32 - s))) : a;
    }
    case BinOp::kMul: return a * b;
  }
  return 0;
}

/// Every commutative operator here is also associative, so
/// (x op c1) op c2 folds to x op (c1 op c2) for exactly these.
bool commutative(BinOp op) noexcept {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kXor:
    case BinOp::kOr:
    case BinOp::kAnd:
    case BinOp::kMul:
      return true;
    default:
      return false;
  }
}

}  // namespace

void ExprArena::reset() noexcept {
  // Reversed, so the next lift refills the chunks in their old order.
  // Poisoned, so that under ASan a node read after its lift is an error
  // even once the chunk is reused.
  for (auto it = chunks_.rbegin(); it != chunks_.rend(); ++it) {
    ASAN_POISON_MEMORY_REGION(it->get(), kChunkBytes);
    spare_.push_back(std::move(*it));
  }
  chunks_.clear();
}

void* ExprArena::allocate(std::size_t bytes) {
  static_assert(alignof(Expr) == alignof(ExprPtr) && sizeof(Expr) % alignof(Expr) == 0);
  if (chunks_.empty() || kChunkBytes - used_ < bytes) {
    if (spare_.empty()) {
      chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(kChunkBytes));
    } else {
      chunks_.push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
    used_ = 0;
  }
  void* p = chunks_.back().get() + used_;
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  used_ += bytes;
  return p;
}

ExprPtr ExprArena::make(Expr e) {
  // Hash is computed bottom-up once; children are already hashed.
  e.cached_hash = recompute_hash(e);
  e.value_bits = compute_value_bits(e);
  return new (allocate(sizeof(Expr))) Expr(e);
}

ExprPtr* ExprArena::mk_ptrs(std::size_t n) {
  return static_cast<ExprPtr*>(allocate(n * sizeof(ExprPtr)));
}

std::optional<std::size_t> ExprArena::position(const void* p) const noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const std::byte* begin = chunks_[i].get();
    const std::byte* end = begin + (i + 1 == chunks_.size() ? used_ : kChunkBytes);
    // std::less: a total order even over pointers into unrelated chunks.
    if (!std::less<>{}(b, begin) && std::less<>{}(b, end)) {
      return i * kChunkBytes + static_cast<std::size_t>(b - begin);
    }
  }
  return std::nullopt;
}

ExprPtr ExprArena::mk_const(std::uint32_t v) {
  Expr e;
  e.kind = ExprKind::kConst;
  e.cval = v;
  return make(e);
}

ExprPtr ExprArena::mk_init(arch::RegFamily f) {
  Expr e;
  e.kind = ExprKind::kInitReg;
  e.family = f;
  return make(e);
}

ExprPtr ExprArena::mk_load(ExprPtr addr, unsigned width_bits, std::uint32_t generation) {
  Expr e;
  e.kind = ExprKind::kLoad;
  e.addr = addr;
  e.load_width = static_cast<std::uint8_t>(width_bits);
  e.generation = generation;
  return make(e);
}

ExprPtr ExprArena::mk_unknown(std::uint32_t id) {
  Expr e;
  e.kind = ExprKind::kUnknown;
  e.unknown_id = id;
  return make(e);
}

bool is_const(ExprPtr e, std::uint32_t* value) noexcept {
  if (!e || e->kind != ExprKind::kConst) return false;
  if (value) *value = e->cval;
  return true;
}

ExprPtr ExprArena::mk_un(UnOp op, ExprPtr x) {
  std::uint32_t c;
  if (is_const(x, &c)) {
    return mk_const(op == UnOp::kNot ? ~c : 0u - c);
  }
  // not(not(x)) -> x ; neg(neg(x)) -> x
  if (x->kind == ExprKind::kUn && x->uop == op) return x->lhs;
  Expr e;
  e.kind = ExprKind::kUn;
  e.uop = op;
  e.lhs = x;
  return make(e);
}

ExprPtr ExprArena::mk_bin(BinOp op, ExprPtr l, ExprPtr r) {
  std::uint32_t cl, cr;
  const bool l_const = is_const(l, &cl);
  const bool r_const = is_const(r, &cr);
  if (l_const && r_const) return mk_const(fold(op, cl, cr));

  // Canonicalize: subtraction of a constant becomes addition of its
  // negation so `sub eax,-1`, `add eax,1` and `inc eax` all normalize to
  // Add(init(eax), 1).
  if (op == BinOp::kSub && r_const) return mk_bin(BinOp::kAdd, l, mk_const(0u - cr));

  // Commutative: keep the constant on the right.
  if (commutative(op) && l_const) {
    std::swap(l, r);
    std::swap(cl, cr);
  }
  const bool rc = is_const(r, &cr);

  if (rc) {
    // Identity and annihilator elements.
    switch (op) {
      case BinOp::kAdd:
      case BinOp::kXor:
      case BinOp::kOr:
        if (cr == 0) return l;
        if (op == BinOp::kOr && cr == 0xffffffffu) return mk_const(0xffffffffu);
        break;
      case BinOp::kAnd:
        if (cr == 0) return mk_const(0);
        if (cr == 0xffffffffu) return l;
        // Covering mask: if the mask has ones across every bit the value
        // can occupy, the AND is a no-op; if it has none there, the AND is
        // zero. Together these fold away the byte-access plumbing around
        // 8-bit loads and sub-register merges.
        if (l->value_bits < 32) {
          const std::uint32_t needed = (1u << l->value_bits) - 1;
          if ((cr & needed) == needed) return l;
          if ((cr & needed) == 0) return mk_const(0);
        }
        // Distribute a constant mask over OR: this collapses the
        // sub-register merge form Or(And(x, ~m), c) that reading e.g. BL
        // back out of EBX produces — And over the merge yields the
        // constant byte again.
        if (l->kind == ExprKind::kBin && l->bop == BinOp::kOr) {
          return mk_bin(BinOp::kOr, mk_bin(BinOp::kAnd, l->lhs, mk_const(cr)),
                        mk_bin(BinOp::kAnd, l->rhs, mk_const(cr)));
        }
        break;
      case BinOp::kShl:
      case BinOp::kShr:
      case BinOp::kSar:
      case BinOp::kRol:
      case BinOp::kRor:
        if ((cr & 31) == 0) return l;
        break;
      case BinOp::kMul:
        if (cr == 1) return l;
        if (cr == 0) return mk_const(0);
        break;
      default:
        break;
    }
    // Constant-chain folding: (x op c1) op c2 -> x op (c1 op c2).
    if (commutative(op) && l->kind == ExprKind::kBin && l->bop == op) {
      std::uint32_t inner;
      if (is_const(l->rhs, &inner)) {
        return mk_bin(op, l->lhs, mk_const(fold(op, inner, cr)));
      }
    }
  }

  // x ^ x -> 0 ; x - x -> 0 ; x & x -> x ; x | x -> x
  if (struct_eq(l, r)) {
    switch (op) {
      case BinOp::kXor:
      case BinOp::kSub:
        return mk_const(0);
      case BinOp::kAnd:
      case BinOp::kOr:
        return l;
      default:
        break;
    }
  }

  // Canonical operand order for commutative ops with two non-constant
  // operands: order by hash so Xor(a,b) and Xor(b,a) unify.
  if (commutative(op) && !rc && l->cached_hash > r->cached_hash) std::swap(l, r);

  Expr e;
  e.kind = ExprKind::kBin;
  e.bop = op;
  e.lhs = l;
  e.rhs = r;
  return make(e);
}

namespace {

struct PairHash {
  std::size_t operator()(const std::pair<ExprPtr, ExprPtr>& p) const noexcept {
    const std::hash<ExprPtr> h;
    return h(p.first) * 0x9e3779b97f4a7c15ULL ^ h(p.second);
  }
};
/// Pairs of distinct nodes one struct_eq call has proven equal, created
/// only once the comparison goes deep.
using EqualPairs = std::optional<std::unordered_set<std::pair<ExprPtr, ExprPtr>, PairHash>>;

/// Depth from which struct_eq remembers the pairs it has proven equal.
/// Two equal DAGs that share subtrees (`or eax, edx` over `not edx` of
/// the same eax, repeated) reach one pair along exponentially many
/// paths; remembered, each pair is compared once, so the cost is linear
/// in distinct node pairs. Only equal pairs need remembering: the first
/// unequal pair ends the whole comparison. Shallow comparisons, nearly
/// all of them, never build the set.
constexpr unsigned kRememberDepth = 8;

bool eq(ExprPtr a, ExprPtr b, unsigned depth, EqualPairs& proven);

bool eq_child(ExprPtr a, ExprPtr b, unsigned depth, EqualPairs& proven) {
  if (depth < kRememberDepth || a == b) return eq(a, b, depth + 1, proven);
  if (!proven) proven.emplace();
  if (proven->contains({a, b})) return true;
  if (!eq(a, b, depth + 1, proven)) return false;
  proven->insert({a, b});
  return true;
}

bool eq(ExprPtr a, ExprPtr b, unsigned depth, EqualPairs& proven) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind || a->cached_hash != b->cached_hash) return false;
  switch (a->kind) {
    case ExprKind::kConst: return a->cval == b->cval;
    case ExprKind::kInitReg: return a->family == b->family;
    case ExprKind::kLoad:
      return a->load_width == b->load_width && a->generation == b->generation &&
             eq_child(a->addr, b->addr, depth, proven);
    case ExprKind::kBin:
      return a->bop == b->bop && eq_child(a->lhs, b->lhs, depth, proven) &&
             eq_child(a->rhs, b->rhs, depth, proven);
    case ExprKind::kUn:
      return a->uop == b->uop && eq_child(a->lhs, b->lhs, depth, proven);
    case ExprKind::kUnknown:
      return a->unknown_id == b->unknown_id;
  }
  return false;
}

}  // namespace

bool struct_eq(ExprPtr a, ExprPtr b) {
  if (a == b) return true;
  if (!a || !b || a->kind != b->kind || a->cached_hash != b->cached_hash) return false;
  EqualPairs proven;
  return eq(a, b, 0, proven);
}

std::size_t recompute_hash(const Expr& e) noexcept {
  std::size_t h = static_cast<std::size_t>(e.kind) * 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::size_t v) { h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2); };
  auto child = [](ExprPtr c) { return c ? c->cached_hash : 0; };
  switch (e.kind) {
    case ExprKind::kConst: mix(e.cval); break;
    case ExprKind::kInitReg: mix(static_cast<std::size_t>(e.family)); break;
    case ExprKind::kLoad:
      mix(child(e.addr));
      mix(e.load_width);
      mix(e.generation);
      break;
    case ExprKind::kBin:
      mix(static_cast<std::size_t>(e.bop));
      mix(child(e.lhs));
      mix(child(e.rhs));
      break;
    case ExprKind::kUn:
      mix(static_cast<std::size_t>(e.uop));
      mix(child(e.lhs));
      break;
    case ExprKind::kUnknown: mix(e.unknown_id); break;
  }
  return h;
}

const char* binop_name(BinOp op) noexcept {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kXor: return "xor";
    case BinOp::kOr: return "or";
    case BinOp::kAnd: return "and";
    case BinOp::kShl: return "shl";
    case BinOp::kShr: return "shr";
    case BinOp::kSar: return "sar";
    case BinOp::kRol: return "rol";
    case BinOp::kRor: return "ror";
    case BinOp::kMul: return "mul";
  }
  return "?";
}

namespace {

constexpr std::size_t kRenderLimit = 1024;

/// Appends e's rendering to out; returns false, and the callers stop,
/// once out has reached kRenderLimit. That bounds the cost on a DAG:
/// add(x, x) nested n deep renders 2^n leaves in full.
bool render(ExprPtr e, std::string& out) {
  if (out.size() >= kRenderLimit) return false;
  if (!e) {
    out += "null";
    return true;
  }
  char buf[32];
  switch (e->kind) {
    case ExprKind::kConst:
      std::snprintf(buf, sizeof buf, "0x%x", e->cval);
      out += buf;
      return true;
    case ExprKind::kInitReg:
      out += "init(";
      out += arch::Reg{e->family, arch::RegWidth::k32}.name();
      out += ")";
      return true;
    case ExprKind::kLoad:
      std::snprintf(buf, sizeof buf, "load%u@%u(", e->load_width, e->generation);
      out += buf;
      if (!render(e->addr, out)) return false;
      out += ")";
      return true;
    case ExprKind::kBin:
      out += binop_name(e->bop);
      out += "(";
      if (!render(e->lhs, out)) return false;
      out += ", ";
      if (!render(e->rhs, out)) return false;
      out += ")";
      return true;
    case ExprKind::kUn:
      out += e->uop == UnOp::kNot ? "not(" : "neg(";
      if (!render(e->lhs, out)) return false;
      out += ")";
      return true;
    case ExprKind::kUnknown:
      std::snprintf(buf, sizeof buf, "unk%u", e->unknown_id);
      out += buf;
      return true;
  }
  out += "?";
  return true;
}

}  // namespace

std::string to_string(ExprPtr e) {
  std::string out;
  if (!render(e, out)) out += "...";
  return out;
}

}  // namespace senids::ir
