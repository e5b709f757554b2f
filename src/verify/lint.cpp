#include "verify/lint.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "arch/arch.hpp"
#include "semantic/pattern.hpp"

namespace senids::verify {

namespace {

using semantic::PatKind;
using semantic::PatPtr;
using semantic::Stmt;
using semantic::Template;

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

/// Variables a pattern binds, in match order (first use binds).
void collect_vars(const PatPtr& p, std::set<std::string>& out) {
  if (!p) return;
  if (!p->var.empty()) out.insert(p->var);
  collect_vars(p->a, out);
  collect_vars(p->b, out);
  collect_vars(p->base, out);
}

/// Structural sanity of a pattern tree (missing children, empty
/// transform alphabets).
void check_pattern(const PatPtr& p, const std::string& where, Report& out) {
  if (!p) {
    out.error(where, "null pattern");
    return;
  }
  switch (p->kind) {
    case PatKind::kAny:
    case PatKind::kConst:
    case PatKind::kFixedConst:
      break;
    case PatKind::kLoad:
      if (!p->a) {
        out.error(where, "load pattern missing its address sub-pattern");
      } else {
        check_pattern(p->a, where + ": load address", out);
      }
      break;
    case PatKind::kBin:
      if (!p->a || !p->b) {
        out.error(where, "binary pattern missing an operand sub-pattern");
      }
      if (p->a) check_pattern(p->a, where + ": lhs", out);
      if (p->b) check_pattern(p->b, where + ": rhs", out);
      break;
    case PatKind::kUn:
      if (!p->a) {
        out.error(where, "unary pattern missing its operand sub-pattern");
      } else {
        check_pattern(p->a, where + ": operand", out);
      }
      break;
    case PatKind::kTransform:
      if (!p->base) {
        out.error(where, "transform pattern missing its base sub-pattern");
      } else {
        check_pattern(p->base, where + ": base", out);
      }
      if (p->allowed.empty() && !p->allow_not) {
        out.error(where, "transform pattern with an empty operator alphabet matches "
                         "only the bare base");
      }
      break;
    default:
      out.error(where, "invalid pattern kind");
      break;
  }
}

/// Can some expression matched by `p` contain a load (of anything)?
/// kAny/kLoad can; constants cannot; operators can iff a child can. Used
/// to prove invertibility demands unsatisfiable: a stored value with no
/// load leaf is a constant function of the decoded byte, and a constant
/// function is never a bijection on [0,255].
bool can_contain_load(const PatPtr& p) {
  if (!p) return false;
  switch (p->kind) {
    case PatKind::kAny:
    case PatKind::kLoad:
      return true;
    case PatKind::kConst:
    case PatKind::kFixedConst:
      return false;
    case PatKind::kBin:
      return can_contain_load(p->a) || can_contain_load(p->b);
    case PatKind::kUn:
      return can_contain_load(p->a);
    case PatKind::kTransform:
      return can_contain_load(p->base);
  }
  return false;
}

// --------------------------------------------------------- fingerprints
//
// Canonical rendering with alpha-renamed variables: two templates whose
// statement lists differ only in variable names fingerprint identically,
// which is what the duplicate/shadow analysis compares.

struct VarCanon {
  std::map<std::string, int> ids;
  std::string canon(const std::string& var) {
    if (var.empty()) return "_";
    auto [it, fresh] = ids.try_emplace(var, static_cast<int>(ids.size()) + 1);
    (void)fresh;
    return "$" + std::to_string(it->second);
  }
};

std::string fp_pattern(const PatPtr& p, VarCanon& vars) {
  if (!p) return "null";
  switch (p->kind) {
    case PatKind::kAny:
      return "any(" + vars.canon(p->var) + ")";
    case PatKind::kConst:
      return std::string("const(") + vars.canon(p->var) +
             (p->require_nonzero ? ",nz)" : ")");
    case PatKind::kFixedConst:
      return "fix(" + hex(p->fixed) + ")";
    case PatKind::kLoad:
      return "load(" + fp_pattern(p->a, vars) + ")";
    case PatKind::kBin:
      return std::string("bin(") + ir::binop_name(p->bop) + "," +
             fp_pattern(p->a, vars) + "," + fp_pattern(p->b, vars) + ")";
    case PatKind::kUn:
      return std::string(p->uop == ir::UnOp::kNot ? "not(" : "neg(") +
             fp_pattern(p->a, vars) + ")";
    case PatKind::kTransform: {
      std::string out = "xf(" + fp_pattern(p->base, vars) + ";";
      for (ir::BinOp op : p->allowed) {
        out += ir::binop_name(op);
        out += ',';
      }
      if (p->allow_not) out += "not,";
      if (p->require_const_leaf) out += "cl";
      return out + ")";
    }
  }
  return "?";
}

std::string fp_stmt(const Stmt& s, VarCanon& vars) {
  switch (s.kind) {
    case Stmt::Kind::kMemWrite:
      return "mem(w=" + std::to_string(s.width) +
             (s.require_invertible ? ",inv," : ",") + fp_pattern(s.addr, vars) + "," +
             fp_pattern(s.value, vars) + ")";
    case Stmt::Kind::kRegWrite:
      return "reg(" + fp_pattern(s.value, vars) + ")";
    case Stmt::Kind::kAdvance:
      return "adv(" + vars.canon(s.ref_var) + ")";
    case Stmt::Kind::kBranchBack:
      return "loopback";
    case Stmt::Kind::kSyscall: {
      std::string out = "sys(v=" + std::to_string(s.vector);
      if (s.sysno) out += ",n=" + std::to_string(*s.sysno);
      if (s.ebx_low) out += ",bl=" + std::to_string(*s.ebx_low);
      if (!s.ebx_points_to.empty()) out += ",str=" + s.ebx_points_to;
      return out + ")";
    }
  }
  return "?";
}

std::vector<std::string> fingerprint(const Template& t) {
  VarCanon vars;
  std::vector<std::string> out;
  out.reserve(t.stmts.size());
  for (const Stmt& s : t.stmts) out.push_back(fp_stmt(s, vars));
  return out;
}

// ------------------------------------------------- arch-tag validation

/// Linux syscall numbers a shellcode template can plausibly demand, per
/// calling convention. Deliberately an allow-list: a template carrying
/// execve's x86-64 number (59) under an int-0x80 statement matches
/// nothing on a real system — that is 59/oldolduname on i386 — and the
/// whole point of the `arch:` tag is to catch that class of confusion.
bool syscall_number_known(std::uint16_t vector, std::uint8_t n) {
  if (vector == ir::kSyscallVector) {
    // x86-64: read write open close mmap mprotect dup dup2 socket connect
    // accept bind listen clone fork execve exit kill fcntl.
    static constexpr std::uint8_t kKnown[] = {0,  1,  2,  3,  9,  10, 32,
                                              33, 41, 42, 43, 49, 50, 56,
                                              57, 59, 60, 62, 72};
    for (std::uint8_t k : kKnown) {
      if (k == n) return true;
    }
    return false;
  }
  // i386 int 0x80: exit fork read write open close execve chmod lseek
  // getpid access kill dup pipe brk signal dup2 setreuid sigaction
  // mmap munmap socketcall sigreturn clone mprotect fcntl.
  static constexpr std::uint8_t kKnown[] = {1,  2,  3,  4,   5,   6,   11,
                                            15, 19, 20, 33,  37,  41,  42,
                                            45, 48, 63, 70,  90,  91,  102,
                                            119, 120, 125, 55};
  for (std::uint8_t k : kKnown) {
    if (k == n) return true;
  }
  return false;
}

std::string stmt_where(const Template& t, std::size_t i) {
  return "template '" + t.name + "' statement #" + std::to_string(i + 1);
}

}  // namespace

Report lint_template(const Template& t) {
  Report out;
  const std::string twhere = "template '" + t.name + "'";
  if (t.name.empty()) out.error("template", "empty template name");
  if (t.stmts.empty()) out.error(twhere, "template has no statements");

  const arch::Arch* tagged = arch::Arch::by_name(t.arch);
  if (tagged == nullptr) {
    out.error(twhere, "unknown architecture tag '" + t.arch + "'");
  }
  const bool is64 = tagged != nullptr && tagged->mode() == arch::Mode::k64;

  std::set<std::string> bound;        // variables bound by earlier statements
  bool body_before_loopback = false;  // any matchable statement seen yet
  for (std::size_t i = 0; i < t.stmts.size(); ++i) {
    const Stmt& s = t.stmts[i];
    const std::string where = stmt_where(t, i);
    switch (s.kind) {
      case Stmt::Kind::kMemWrite: {
        check_pattern(s.addr, where + ": address", out);
        check_pattern(s.value, where + ": value", out);
        if (s.width != 0 && s.width != 8 && s.width != 16 && s.width != 32 &&
            !(s.width == 64 && is64)) {
          out.error(where, "no decodable " + t.arch + " instruction produces a " +
                               std::to_string(s.width) + "-bit store");
        }
        if (s.require_invertible && !can_contain_load(s.value)) {
          out.error(where, "unsatisfiable clause: invertibility demanded of a value "
                           "that can never contain a load of the decoded byte (a "
                           "constant function is never invertible)");
        }
        if (s.value && s.value->kind == PatKind::kFixedConst && s.width != 0 &&
            s.width < 32 && (s.value->fixed >> s.width) != 0) {
          out.error(where, "unsatisfiable clause: fixed value " + hex(s.value->fixed) +
                               " cannot fit in a " + std::to_string(s.width) +
                               "-bit store");
        }
        collect_vars(s.addr, bound);
        collect_vars(s.value, bound);
        body_before_loopback = true;
        break;
      }
      case Stmt::Kind::kRegWrite:
        check_pattern(s.value, where + ": value", out);
        collect_vars(s.value, bound);
        body_before_loopback = true;
        break;
      case Stmt::Kind::kAdvance:
        if (s.ref_var.empty()) {
          out.error(where, "advance statement without a variable");
        } else if (!bound.contains(s.ref_var)) {
          out.error(where, "undefined variable '" + s.ref_var +
                               "': no earlier statement binds it, so the statement "
                               "can never match");
        }
        body_before_loopback = true;
        break;
      case Stmt::Kind::kBranchBack:
        if (!body_before_loopback) {
          out.warn(where, "loop-back with no body statements before it matches any "
                          "backward branch");
        }
        break;
      case Stmt::Kind::kSyscall: {
        if (tagged != nullptr) {
          bool vector_ok = false;
          for (const arch::SyscallConvention& conv : tagged->syscall_conventions()) {
            if (conv.vector == s.vector) vector_ok = true;
          }
          if (!vector_ok) {
            out.error(where, s.vector == ir::kSyscallVector
                                 ? "`syscall64` statement in a template tagged " +
                                       t.arch + " (no `syscall` instruction there)"
                                 : "int-vector syscall statement in a template "
                                   "tagged " + t.arch);
          } else if (s.sysno && !syscall_number_known(s.vector, *s.sysno)) {
            out.error(where, "syscall number " + std::to_string(*s.sysno) +
                                 " is not a known " + t.arch +
                                 " Linux syscall for this convention");
          }
        }
        body_before_loopback = true;
        break;
      }
      default:
        out.error(where, "invalid statement kind");
        break;
    }
  }
  if (bound.size() > semantic::kMaxTemplateVars) {
    out.error(twhere, "uses " + std::to_string(bound.size()) +
                          " distinct variables; the matcher holds at most " +
                          std::to_string(semantic::kMaxTemplateVars) + " per template");
  }
  // The analyzer tries a template only on traces that have every feature
  // its anchor word names. Register writes are in nearly every trace, so
  // a template anchored on nothing more is tried on all of them.
  const semantic::AnchorWord anchors = semantic::template_anchors(t);
  if ((anchors & ~semantic::kAnchorRegWrite) == 0) {
    out.warn(twhere, std::string("anchor word is ") +
                         (anchors == 0 ? "empty" : "only a register write") +
                         ": no store, loopback or syscall statement narrows "
                         "it, so the template is tried on every lifted trace");
  }
  return out;
}

Report lint_templates(const std::vector<Template>& templates) {
  Report out;
  for (const Template& t : templates) out.merge(lint_template(t));

  // Cross-template analysis: duplicate names, alpha-equivalent statement
  // lists, and strict-prefix shadowing (the prefix template fires on
  // every trace the longer one matches — subsequence matching reuses the
  // same witnesses).
  std::set<std::string> names;
  std::vector<std::vector<std::string>> fps;
  fps.reserve(templates.size());
  for (const Template& t : templates) {
    if (!t.name.empty() && !names.insert(t.name).second) {
      out.error("template '" + t.name + "'", "duplicate template name");
    }
    fps.push_back(fingerprint(t));
  }
  for (std::size_t i = 0; i < templates.size(); ++i) {
    for (std::size_t j = i + 1; j < templates.size(); ++j) {
      const auto& a = fps[i];
      const auto& b = fps[j];
      if (a.empty() || b.empty()) continue;
      if (a == b) {
        out.error("template '" + templates[j].name + "'",
                  "structurally identical to template '" + templates[i].name +
                      "' (duplicate pattern; both fire on the same traces)");
        continue;
      }
      const auto& shorter = a.size() < b.size() ? a : b;
      const auto& longer = a.size() < b.size() ? b : a;
      const Template& tshort = a.size() < b.size() ? templates[i] : templates[j];
      const Template& tlong = a.size() < b.size() ? templates[j] : templates[i];
      if (std::equal(shorter.begin(), shorter.end(), longer.begin())) {
        out.warn("template '" + tshort.name + "'",
                 "shadows template '" + tlong.name +
                     "': its statement list is a strict prefix, so it fires on "
                     "every trace the longer template matches");
      }
    }
  }
  return out;
}

}  // namespace senids::verify
