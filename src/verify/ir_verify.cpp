#include "verify/ir_verify.hpp"

#include <cstdio>
#include <unordered_set>

#include "ir/deadcode.hpp"
#include "ir/expr.hpp"

namespace senids::verify {

namespace {

using ir::Event;
using ir::EventKind;
using ir::Expr;
using ir::ExprKind;
using ir::ExprPtr;

bool valid_width(unsigned w) noexcept {
  return w == 8 || w == 16 || w == 32 || w == 64;
}

const char* event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kRegWrite: return "reg-write";
    case EventKind::kMemWrite: return "mem-write";
    case EventKind::kBranch: return "branch";
    case EventKind::kSyscall: return "syscall";
  }
  return "invalid";
}

std::string event_where(std::size_t i, EventKind k) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "event #%zu (%s)", i, event_kind_name(k));
  return buf;
}

/// Walks expression trees once each (they are heavily shared across
/// events) while carrying the memory generation the enclosing event was
/// emitted under, for the load def-before-use check.
struct ExprChecker {
  Report& out;
  std::unordered_set<const Expr*> seen;
  /// kMemWrite events emitted before the event under inspection. A load
  /// node first reached now was created no later than now, so its
  /// generation may not exceed this count.
  std::uint32_t mem_generation = 0;
  /// The arena every node must lie in; nullptr skips the ownership and
  /// allocation-order checks.
  const ir::ExprArena* arena = nullptr;

  void check(ExprPtr e, const std::string& where) {
    if (!e) {
      out.error(where, "null expression");
      return;
    }
    if (!seen.insert(e).second) return;
    const Expr& x = *e;
    if (arena) check_ownership(x, where);
    if (x.value_bits > 32) {
      out.error(where, "value_bits " + std::to_string(x.value_bits) + " exceeds 32");
    }
    if (x.cached_hash != ir::recompute_hash(x)) {
      out.error(where, "cached hash is stale (node was not built by the mk_* factories)");
    }
    auto leaf = [&] {
      if (x.addr || x.lhs || x.rhs) out.error(where, "leaf expression carries children");
    };
    switch (x.kind) {
      case ExprKind::kConst:
        leaf();
        if (x.value_bits < 32 && (x.cval >> x.value_bits) != 0) {
          out.error(where, "constant 0x" + to_hex(x.cval) + " does not fit in value_bits " +
                               std::to_string(x.value_bits));
        }
        break;
      case ExprKind::kInitReg:
        leaf();
        if (static_cast<unsigned>(x.family) >= 16) {
          out.error(where, "init-reg family out of range");
        }
        break;
      case ExprKind::kUnknown:
        leaf();
        break;
      case ExprKind::kLoad:
        if (x.lhs || x.rhs) out.error(where, "load expression carries operator children");
        if (!valid_width(x.load_width)) {
          out.error(where, "load width " + std::to_string(x.load_width) +
                               " is not a decodable access width (8/16/32/64)");
        }
        if (x.generation > mem_generation) {
          out.error(where, "load references memory generation " +
                               std::to_string(x.generation) + " but only " +
                               std::to_string(mem_generation) +
                               " stores precede it (use before def)");
        }
        check(x.addr, where + ": load address");
        break;
      case ExprKind::kBin:
        if (x.addr) out.error(where, "binary expression carries a load address");
        if (static_cast<unsigned>(x.bop) > static_cast<unsigned>(ir::BinOp::kMul)) {
          out.error(where, "binary operator out of range");
        }
        if (!x.lhs || !x.rhs) {
          out.error(where, "binary expression missing an operand");
        }
        if (x.lhs) check(x.lhs, where + ": lhs");
        if (x.rhs) check(x.rhs, where + ": rhs");
        break;
      case ExprKind::kUn:
        if (x.addr) out.error(where, "unary expression carries a load address");
        if (x.rhs) out.error(where, "unary expression carries a second operand");
        if (static_cast<unsigned>(x.uop) > static_cast<unsigned>(ir::UnOp::kNeg)) {
          out.error(where, "unary operator out of range");
        }
        if (!x.lhs) {
          out.error(where, "unary expression missing its operand");
        } else {
          check(x.lhs, where + ": operand");
        }
        break;
      default:
        out.error(where, "invalid expression kind");
        break;
    }
  }

  /// The node lies in the LiftResult's own arena (a node from elsewhere
  /// dies with its own arena, not with the events), and each child was
  /// allocated before it, which also rules out cycles.
  void check_ownership(const Expr& x, const std::string& where) {
    const auto pos = arena->position(&x);
    if (!pos) {
      out.error(where, "node does not lie in the LiftResult's arena");
      return;
    }
    for (ExprPtr child : {x.addr, x.lhs, x.rhs}) {
      if (!child) continue;
      const auto child_pos = arena->position(child);
      if (child_pos && *child_pos >= *pos) {
        out.error(where, "child node allocated after its parent");
      }
    }
  }

  static std::string to_hex(std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%x", v);
    return buf;
  }
};

}  // namespace

void verify_expr(ir::ExprPtr e, const std::string& where, Report& out) {
  // Standalone entry point: no event context, so accept any generation.
  ExprChecker ck{out, {}, ~0u, nullptr};
  ck.check(e, where);
}

Report verify_ir(const std::vector<arch::Instruction>& trace, const ir::LiftResult& lifted) {
  Report out;
  ExprChecker ck{out, {}, 0, &lifted.arena};

  std::size_t prev_index = 0;
  for (std::size_t i = 0; i < lifted.events.size(); ++i) {
    const Event& ev = lifted.events[i];
    const std::string where = event_where(i, ev.kind);

    // Dangling references: every event must point back into the trace it
    // was lifted from, at the instruction that really emitted it.
    if (ev.insn_index >= trace.size()) {
      out.error(where, "dangling insn_index " + std::to_string(ev.insn_index) +
                           " (trace has " + std::to_string(trace.size()) +
                           " instructions)");
      continue;
    }
    if (trace[ev.insn_index].offset != ev.insn_offset) {
      out.error(where, "insn_offset " + std::to_string(ev.insn_offset) +
                           " does not match trace instruction #" +
                           std::to_string(ev.insn_index) + " (offset " +
                           std::to_string(trace[ev.insn_index].offset) + ")");
    }
    if (ev.insn_index < prev_index) {
      out.error(where, "events regress in trace order (instruction #" +
                           std::to_string(ev.insn_index) + " after #" +
                           std::to_string(prev_index) + ")");
    }
    if (ev.insn_index > prev_index) prev_index = ev.insn_index;

    switch (ev.kind) {
      case EventKind::kRegWrite:
        if (static_cast<unsigned>(ev.reg) >= 16) {
          out.error(where, "register family out of range");
        }
        if (!ev.value) {
          out.error(where, "null written value");
        } else {
          ck.check(ev.value, where + ": value");
        }
        break;
      case EventKind::kMemWrite:
        if (!valid_width(ev.width)) {
          out.error(where, "store width " + std::to_string(ev.width) +
                               " is not a decodable access width (8/16/32/64)");
        }
        if (!ev.addr) {
          out.error(where, "null store address");
        } else {
          ck.check(ev.addr, where + ": address");
        }
        if (!ev.value) {
          out.error(where, "null stored value");
        } else {
          ck.check(ev.value, where + ": value");
        }
        // The store's own expressions were built before the store landed;
        // later events may reference the new generation.
        ++ck.mem_generation;
        break;
      case EventKind::kBranch: {
        const bool expect_backward = ev.target && *ev.target <= ev.insn_offset;
        if (ev.backward != expect_backward) {
          out.error(where, ev.backward
                               ? "backward flag set without a static target at or "
                                 "before the branch"
                               : "backward flag clear despite a static target at or "
                                 "before the branch");
        }
        bool expect_loop = false;
        if (ev.conditional && ev.target && ev.insn_index < trace.size()) {
          const std::size_t first =
              ev.insn_index > ir::kMaxLoopInsns ? ev.insn_index - ir::kMaxLoopInsns : 0;
          for (std::size_t j = first; j < ev.insn_index; ++j) {
            expect_loop = expect_loop || trace[j].offset == *ev.target;
          }
        }
        if (ev.loops_back != expect_loop) {
          out.error(where, ev.loops_back ? "loops_back set on a branch that closes no loop"
                                         : "loops_back clear on a branch that closes a loop");
        }
        if (ev.is_call && ev.conditional) {
          out.error(where, "conditional call event (no such instruction decodes)");
        }
        break;
      }
      case EventKind::kSyscall:
        if (!ev.syscall_regs) {
          out.error(where, "no captured registers");
          break;
        }
        for (std::size_t r = 0; r < 16; ++r) {
          if (!ev.syscall_regs[r]) {
            out.error(where, "null captured register #" + std::to_string(r));
          } else {
            ck.check(ev.syscall_regs[r], where + ": reg #" + std::to_string(r));
          }
        }
        break;
      default:
        out.error(where, "invalid event kind");
        break;
    }
  }

  // Deadcode idempotence: the pass must reach a fixed point in one
  // application — removing what it marks dead and re-running it may not
  // expose more. A violation means liveness leaked through a dead
  // instruction (exactly the bug class that unsoundly deletes live code).
  ir::DeadCodeResult first = ir::find_dead_code(trace);
  if (first.dead_count != 0) {
    std::vector<arch::Instruction> live;
    live.reserve(trace.size() - first.dead_count);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (!first.dead[i]) live.push_back(trace[i]);
    }
    ir::DeadCodeResult second = ir::find_dead_code(live);
    if (second.dead_count != 0) {
      out.error("deadcode", "pass is not idempotent: " +
                                std::to_string(second.dead_count) +
                                " instructions newly dead after removing the first " +
                                std::to_string(first.dead_count));
    }
  }
  return out;
}

}  // namespace senids::verify
