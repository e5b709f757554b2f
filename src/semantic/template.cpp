#include "semantic/template.hpp"

#include "arch/defuse.hpp"
#include "arch/format.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

namespace senids::semantic {

using ir::Event;
using ir::EventKind;
using ir::ExprKind;
using ir::ExprPtr;

std::string_view threat_class_name(ThreatClass c) noexcept {
  switch (c) {
    case ThreatClass::kDecryptionLoop: return "decryption-loop";
    case ThreatClass::kShellSpawn: return "shell-spawn";
    case ThreatClass::kPortBindShell: return "port-bind-shell";
    case ThreatClass::kReverseShell: return "reverse-shell";
    case ThreatClass::kCodeRedII: return "code-red-ii";
    case ThreatClass::kCustom: return "custom";
  }
  return "?";
}

Stmt st_mem_write(PatPtr addr, PatPtr value, std::uint8_t width_bits) {
  Stmt s;
  s.kind = Stmt::Kind::kMemWrite;
  s.addr = std::move(addr);
  s.value = std::move(value);
  s.width = width_bits;
  return s;
}

Stmt st_decode_store(PatPtr addr, PatPtr value) {
  Stmt s = st_mem_write(std::move(addr), std::move(value), /*width_bits=*/8);
  s.require_invertible = true;
  return s;
}

Stmt st_reg_write(PatPtr value) {
  Stmt s;
  s.kind = Stmt::Kind::kRegWrite;
  s.value = std::move(value);
  return s;
}

Stmt st_advance(std::string ref_var) {
  Stmt s;
  s.kind = Stmt::Kind::kAdvance;
  s.ref_var = std::move(ref_var);
  return s;
}

Stmt st_branch_back() {
  Stmt s;
  s.kind = Stmt::Kind::kBranchBack;
  return s;
}

Stmt st_syscall(std::uint8_t sysno) {
  Stmt s;
  s.kind = Stmt::Kind::kSyscall;
  s.sysno = sysno;
  return s;
}

Stmt st_socketcall(std::uint8_t subfn) {
  Stmt s = st_syscall(0x66);
  s.ebx_low = subfn;
  return s;
}

Stmt st_syscall_str(std::uint8_t sysno, std::string ebx_points_to) {
  Stmt s = st_syscall(sysno);
  s.ebx_points_to = std::move(ebx_points_to);
  return s;
}

Stmt st_syscall64(std::uint8_t sysno) {
  Stmt s = st_syscall(sysno);
  s.vector = ir::kSyscallVector;
  return s;
}

Stmt st_syscall64_low(std::uint8_t sysno, std::uint8_t rdi_low) {
  Stmt s = st_syscall64(sysno);
  s.ebx_low = rdi_low;
  return s;
}

Stmt st_syscall64_str(std::uint8_t sysno, std::string rdi_points_to) {
  Stmt s = st_syscall64(sysno);
  s.ebx_points_to = std::move(rdi_points_to);
  return s;
}

namespace {

AnchorWord store_anchor(unsigned width_bits) noexcept {
  switch (width_bits) {
    case 8: return kAnchorStore8;
    case 16: return kAnchorStore16;
    case 32: return kAnchorStore32;
    case 64: return kAnchorStore64;
    default: return kAnchorStoreOther;
  }
}

AnchorWord syscall_anchor(std::uint16_t vector) noexcept {
  if (vector == 0x80) return kAnchorSyscall80;
  if (vector == ir::kSyscallVector) return kAnchorSyscall100;
  return kAnchorSyscallOther;
}

/// Features one event provides.
AnchorWord event_anchors(const Event& ev) noexcept {
  switch (ev.kind) {
    case EventKind::kMemWrite: return kAnchorStore | store_anchor(ev.width);
    case EventKind::kRegWrite: return kAnchorRegWrite;
    case EventKind::kBranch: return ev.conditional && ev.target ? kAnchorCondBranch : 0;
    case EventKind::kSyscall: return syscall_anchor(ev.vector);
  }
  return 0;
}

/// Features an event must provide to pass the first test stmt_matches
/// applies for `s` (its kind, store width or syscall vector).
AnchorWord stmt_anchors(const Stmt& s) noexcept {
  switch (s.kind) {
    case Stmt::Kind::kMemWrite:
      return s.width == 0 ? kAnchorStore : store_anchor(s.width);
    case Stmt::Kind::kRegWrite:
    case Stmt::Kind::kAdvance: return kAnchorRegWrite;
    case Stmt::Kind::kBranchBack: return kAnchorCondBranch;
    case Stmt::Kind::kSyscall: return syscall_anchor(s.vector);
  }
  return 0;
}

}  // namespace

AnchorWord template_anchors(const Template& t) noexcept {
  AnchorWord word = 0;
  for (const Stmt& s : t.stmts) word |= stmt_anchors(s);
  return word;
}

AnchorWord trace_anchors(const std::vector<ir::Event>& events) noexcept {
  AnchorWord word = 0;
  for (const Event& ev : events) word |= event_anchors(ev);
  return word;
}

namespace {

/// Extract the provably-known low byte of a value, if any. Handles the
/// two forms shellcode produces: a folded constant (`xor eax,eax; mov
/// al,N`) and an unfolded sub-register merge whose masked side cannot
/// touch bits 0..7 (`mov al,N` over unknown eax).
std::optional<std::uint8_t> low_byte_const(ExprPtr e) {
  std::uint32_t v;
  if (ir::is_const(e, &v)) return static_cast<std::uint8_t>(v & 0xff);
  if (e && e->kind == ExprKind::kBin && e->bop == ir::BinOp::kOr) {
    std::uint32_t c, m;
    // Or(And(x, m), c) with m not covering the low byte.
    if (ir::is_const(e->rhs, &c) && e->lhs->kind == ExprKind::kBin &&
        e->lhs->bop == ir::BinOp::kAnd && ir::is_const(e->lhs->rhs, &m) &&
        (m & 0xff) == 0) {
      return static_cast<std::uint8_t>(c & 0xff);
    }
  }
  return std::nullopt;
}

/// Evaluate a matched store-value tree as a function of the loaded byte
/// `v`. All load leaves in a matched decoder tree refer to the same
/// location (the pattern enforces base consistency), so each evaluates to
/// `v`. Rotates are evaluated with 8-bit semantics, matching the byte
/// registers the decoders rotate. Returns nullopt for trees containing
/// initial-register or unknown leaves (not a pure byte function).
std::optional<std::uint32_t> eval_byte_fn(ExprPtr e, std::uint32_t v) {
  switch (e->kind) {
    case ExprKind::kConst:
      return e->cval;
    case ExprKind::kLoad:
      return v;
    case ExprKind::kUn: {
      auto x = eval_byte_fn(e->lhs, v);
      if (!x) return std::nullopt;
      return e->uop == ir::UnOp::kNot ? ~*x : 0u - *x;
    }
    case ExprKind::kBin: {
      auto a = eval_byte_fn(e->lhs, v);
      auto b = eval_byte_fn(e->rhs, v);
      if (!a || !b) return std::nullopt;
      switch (e->bop) {
        case ir::BinOp::kAdd: return *a + *b;
        case ir::BinOp::kSub: return *a - *b;
        case ir::BinOp::kXor: return *a ^ *b;
        case ir::BinOp::kOr: return *a | *b;
        case ir::BinOp::kAnd: return *a & *b;
        case ir::BinOp::kShl: return (*b & 31) ? (*a << (*b & 31)) : *a;
        case ir::BinOp::kShr: return (*b & 31) ? (*a >> (*b & 31)) : *a;
        case ir::BinOp::kSar:
          return static_cast<std::uint32_t>(static_cast<std::int32_t>(*a) >>
                                            (*b & 31));
        case ir::BinOp::kRol: {
          const unsigned sh = *b & 7;
          const std::uint32_t x8 = *a & 0xff;
          return sh ? (((x8 << sh) | (x8 >> (8 - sh))) & 0xff) : x8;
        }
        case ir::BinOp::kRor: {
          const unsigned sh = *b & 7;
          const std::uint32_t x8 = *a & 0xff;
          return sh ? (((x8 >> sh) | (x8 << (8 - sh))) & 0xff) : x8;
        }
        case ir::BinOp::kMul: return *a * *b;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

/// Is the stored value a bijective byte transform of the loaded byte?
bool is_invertible_byte_fn(ExprPtr e) {
  bool seen[256] = {};
  for (std::uint32_t v = 0; v < 256; ++v) {
    auto out = eval_byte_fn(e, v);
    if (!out) return false;
    const std::uint8_t b = static_cast<std::uint8_t>(*out & 0xff);
    if (seen[b]) return false;
    seen[b] = true;
  }
  return true;
}

/// Strip trailing constant additions: returns the symbolic base (nullptr
/// for a pure constant) and accumulates the constant displacement.
ExprPtr addr_base(ExprPtr e, std::int64_t& off) {
  while (e->kind == ExprKind::kBin && e->bop == ir::BinOp::kAdd &&
         e->rhs->kind == ExprKind::kConst) {
    off += static_cast<std::int32_t>(e->rhs->cval);
    e = e->lhs;
  }
  if (e->kind == ExprKind::kConst) {
    off += static_cast<std::int32_t>(e->cval);
    return nullptr;
  }
  return e;
}

/// If a == b + c for a constant c, return c. Works whether the pointer is
/// rooted in an initial register (init(esi) + 1), a derived expression, or
/// a known buffer constant (jmp/call/pop pointers fold to constants).
std::optional<std::int64_t> addr_diff(ExprPtr a, ExprPtr b) {
  std::int64_t oa = 0, ob = 0;
  ExprPtr ba = addr_base(a, oa);
  ExprPtr bb = addr_base(b, ob);
  if (ba == nullptr && bb == nullptr) return oa - ob;
  if (ba && bb && ir::struct_eq(ba, bb)) return oa - ob;
  return std::nullopt;
}

/// Per-branch match state: expression bindings plus, for every variable
/// bound by a MemWrite address pattern, the architectural register family
/// the matched store instruction addressed through. Decoder templates use
/// the latter to demand that the pointer walk steps the *same* register
/// the store dereferenced — the strongest single false-positive filter.
struct MatchState {
  Env env;
  std::map<std::string, arch::RegFamily, std::less<>> addr_regs;
  std::map<std::string, std::uint8_t, std::less<>> addr_widths;  // store width, bits
  /// The matched pointer-advance, when the template has one: the stepped
  /// register must not be written again before the loop-back, or the next
  /// iteration would not see the advanced pointer.
  std::optional<arch::RegFamily> advance_reg;
  std::size_t advance_event = 0;
};

struct Search {
  const Template& t;
  const LiftedCode& code;
  /// (byte offset, trace index) of every traced instruction, sorted.
  /// Built on first use: only a loop-back statement that reaches a
  /// candidate branch needs it, so most searches never pay for it.
  std::vector<std::pair<std::size_t, std::size_t>> offset_index;
  std::size_t attempts = 0;
  std::optional<MatchResult> result;

  Search(const Template& tmpl, const LiftedCode& c) : t(tmpl), code(c) {}

  /// Trace index of the first traced instruction at `offset`, if any.
  std::optional<std::size_t> index_of_offset(std::size_t offset) {
    if (offset_index.empty()) {
      const auto& trace = *code.trace;
      offset_index.reserve(trace.size());
      for (std::size_t i = 0; i < trace.size(); ++i) {
        offset_index.emplace_back(trace[i].offset, i);
      }
      std::sort(offset_index.begin(), offset_index.end());
    }
    auto it = std::lower_bound(offset_index.begin(), offset_index.end(),
                               std::pair<std::size_t, std::size_t>{offset, 0});
    if (it == offset_index.end() || it->first != offset) return std::nullopt;
    return it->second;
  }

  /// Register family a store instruction addresses through (base first,
  /// then index; pushes and string stores use their implicit registers).
  std::optional<arch::RegFamily> store_addr_reg(const Event& ev) const {
    const arch::Instruction& insn = (*code.trace)[ev.insn_index];
    for (const arch::Operand& op : insn.ops) {
      if (op.kind != arch::OperandKind::kMem) continue;
      if (op.mem().has_base()) return op.mem().base.family;
      if (op.mem().has_index()) return op.mem().index.family;
      return std::nullopt;  // absolute address
    }
    switch (insn.mnemonic) {
      case arch::Mnemonic::kPush:
      case arch::Mnemonic::kPushf:
      case arch::Mnemonic::kPusha:
      case arch::Mnemonic::kCall:
      case arch::Mnemonic::kEnter:
        return arch::RegFamily::kSp;
      case arch::Mnemonic::kStos:
      case arch::Mnemonic::kMovs:
        return arch::RegFamily::kDi;
      default:
        return std::nullopt;
    }
  }

  /// A decoder's back edge is driven by a count-down loop: either a
  /// loop/loope/loopne/jecxz instruction (implicit ecx), or a jnz whose
  /// nearest preceding flag-setter is a register decrement (dec ecx /
  /// sub ecx, imm). Returns the counter register, or nullopt when the
  /// branch shows no such discipline — which coincidental backward
  /// branches in data essentially never do.
  std::optional<arch::RegFamily> loop_counter_of(const Event& ev) const {
    const arch::Instruction& brinsn = (*code.trace)[ev.insn_index];
    switch (brinsn.mnemonic) {
      case arch::Mnemonic::kLoop:
      case arch::Mnemonic::kLoope:
      case arch::Mnemonic::kLoopne:
        return arch::RegFamily::kCx;  // implicit ecx count-down
      case arch::Mnemonic::kJecxz:
        // jecxz branches while ecx is ZERO — it cannot close a count-down
        // loop (observed false-positive shape).
        return std::nullopt;
      default:
        break;
    }
    if (brinsn.cond != arch::Cond::kNe) return std::nullopt;  // count-down = jnz
    for (std::size_t i = ev.insn_index; i-- > 0;) {
      const arch::Instruction& insn = (*code.trace)[i];
      if (!arch::def_use(insn).flags_def) continue;
      if (insn.ops[0].kind != arch::OperandKind::kReg) return std::nullopt;
      switch (insn.mnemonic) {
        case arch::Mnemonic::kDec:
          return insn.ops[0].reg.family;
        case arch::Mnemonic::kSub:
          if (insn.ops[1].kind == arch::OperandKind::kImm) {
            return insn.ops[0].reg.family;
          }
          return std::nullopt;
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // no flag source at all
  }

  bool stmt_matches(const Stmt& s, const Event& ev, MatchState& state,
                    const std::vector<std::size_t>& matched) {
    Env& env = state.env;
    switch (s.kind) {
      case Stmt::Kind::kMemWrite: {
        if (ev.kind != EventKind::kMemWrite) return false;
        if (s.width != 0 && ev.width != s.width) return false;
        if (!match_expr(s.addr, ev.addr, env) || !match_expr(s.value, ev.value, env)) {
          return false;
        }
        if (s.require_invertible) {
          if (!is_invertible_byte_fn(ev.value)) return false;
          // The key operand must not live in the register that addresses
          // the store: a "key" carved out of the walking pointer changes
          // every iteration, which no fixed-key decoder does (observed
          // false-positive shape: `add byte [edx], dh`).
          const arch::Instruction& insn = (*code.trace)[ev.insn_index];
          if (insn.ops[1].kind == arch::OperandKind::kReg &&
              insn.ops[0].kind == arch::OperandKind::kMem &&
              insn.ops[0].mem().has_base() &&
              insn.ops[1].reg.family == insn.ops[0].mem().base.family) {
            return false;
          }
        }
        if (s.addr && !s.addr->var.empty()) {
          if (auto family = store_addr_reg(ev)) {
            state.addr_regs.insert_or_assign(s.addr->var, *family);
          }
          state.addr_widths.insert_or_assign(s.addr->var, ev.width);
        }
        return true;
      }

      case Stmt::Kind::kRegWrite:
        return ev.kind == EventKind::kRegWrite && match_expr(s.value, ev.value, env);

      case Stmt::Kind::kAdvance: {
        // The pointer walk: some register now holds the bound address
        // plus a small nonzero constant. Computing the step as a
        // base+displacement difference makes the check agnostic to how
        // the pointer was obtained (initial register, esp-derived,
        // jmp/call/pop constant) and to how the step was encoded
        // (inc / add / sub -neg / lea).
        if (ev.kind != EventKind::kRegWrite || !ev.value) return false;
        // An in-place decoder's pointer walk is plain pointer arithmetic:
        // inc/dec/add/sub/lea. String ops (cmps advances esi as a side
        // effect of comparing) and movs/stos (which would clobber the
        // freshly decoded byte) are coincidences, not walks.
        switch ((*code.trace)[ev.insn_index].mnemonic) {
          case arch::Mnemonic::kInc:
          case arch::Mnemonic::kDec:
          case arch::Mnemonic::kAdd:
          case arch::Mnemonic::kSub:
          case arch::Mnemonic::kLea:
            break;
          default:
            return false;
        }
        auto it = env.find(s.ref_var);
        if (it == env.end()) return false;
        // The register being stepped must be the one the matched store
        // addressed through.
        auto reg_it = state.addr_regs.find(s.ref_var);
        if (reg_it != state.addr_regs.end() && reg_it->second != ev.reg) return false;
        auto step = addr_diff(ev.value, it->second);
        if (!step) return false;
        const std::int64_t mag = *step < 0 ? -*step : *step;
        // Real decoders walk their buffer in element-size strides; any
        // other delta is far more likely a coincidental register write.
        if (mag != 1 && mag != 2 && mag != 4) return false;
        // The stride must equal the decoded element size: a byte decoder
        // walks one byte per iteration.
        auto width_it = state.addr_widths.find(s.ref_var);
        if (width_it != state.addr_widths.end() &&
            mag != width_it->second / 8) {
          return false;
        }
        state.advance_reg = ev.reg;
        state.advance_event = ev.insn_index;
        return true;
      }

      case Stmt::Kind::kBranchBack: {
        if (ev.kind != EventKind::kBranch || !ev.conditional || !ev.target) return false;
        auto counter = loop_counter_of(ev);
        if (!counter) return false;
        // The iteration counter and the walked pointer are distinct
        // registers in every real engine; random data overwhelmingly
        // produces loops where the pointer doubles as the counter.
        if (state.advance_reg && *counter == *state.advance_reg) return false;
        auto target = index_of_offset(*ev.target);
        if (!target) return false;
        const std::size_t target_idx = *target;
        // Counter sanity: if the counter register was written before the
        // loop entry, its entry value must be a plausible constant count.
        // (An unwritten counter is fine — the snippet's caller provides
        // it, as in Figure 1 — but a garbage junk value is not a length.)
        {
          const Event* last_write = nullptr;
          for (const Event& prior : *code.events) {
            if (prior.insn_index >= target_idx) break;
            if (prior.kind == EventKind::kRegWrite && prior.reg == *counter) {
              last_write = &prior;
            }
          }
          if (last_write) {
            std::uint32_t count_value = 0;
            if (!ir::is_const(last_write->value, &count_value) || count_value == 0 ||
                count_value > (1u << 22)) {
              return false;
            }
          }
        }
        // Backward in execution order...
        if (target_idx >= ev.insn_index) return false;
        // ...forming a compact loop body (decoder loops are tight; distant
        // coincidental branches are the main false-positive vector)...
        if (ev.insn_index - target_idx > 64) return false;
        // ...that encloses every previously matched statement, so the
        // transform and the pointer walk actually execute per iteration.
        for (std::size_t m : matched) {
          const Event& prior = (*code.events)[m];
          if (prior.insn_index < target_idx || prior.insn_index >= ev.insn_index) {
            return false;
          }
        }
        // The advanced pointer must survive until the back edge: a later
        // write to the same register would feed the next iteration a
        // different address (real decoders never do this; coincidental
        // matches in data routinely do).
        if (state.advance_reg) {
          for (const Event& later : *code.events) {
            if (later.kind == EventKind::kRegWrite && later.reg == *state.advance_reg &&
                later.insn_index > state.advance_event &&
                later.insn_index < ev.insn_index) {
              return false;
            }
          }
        }
        return true;
      }

      case Stmt::Kind::kSyscall: {
        if (ev.kind != EventKind::kSyscall || ev.vector != s.vector) return false;
        // First-argument register by calling convention: ebx for int 0x80,
        // rdi for the x86-64 `syscall` instruction.
        const auto arg0 = static_cast<unsigned>(s.vector == ir::kSyscallVector
                                                    ? arch::RegFamily::kDi
                                                    : arch::RegFamily::kBx);
        if (s.sysno) {
          auto got = low_byte_const(ev.syscall_regs[static_cast<unsigned>(arch::RegFamily::kAx)]);
          if (!got || *got != *s.sysno) return false;
        }
        if (s.ebx_low) {
          auto got = low_byte_const(ev.syscall_regs[arg0]);
          if (!got || *got != *s.ebx_low) return false;
        }
        if (!s.ebx_points_to.empty()) {
          std::uint32_t ptr;
          if (!ir::is_const(ev.syscall_regs[arg0], &ptr))
            return false;
          const auto& buf = code.buffer;
          const std::string& want = s.ebx_points_to;
          if (ptr + want.size() > buf.size()) return false;
          if (std::memcmp(buf.data() + ptr, want.data(), want.size()) != 0) return false;
        }
        return true;
      }
    }
    return false;
  }

  bool dfs(std::size_t stmt_idx, std::size_t event_idx, const MatchState& state,
           std::vector<std::size_t>& matched) {
    if (stmt_idx == t.stmts.size()) {
      MatchResult r;
      r.matched_events = matched;
      r.bindings = state.env;
      r.start_offset = (*code.events)[matched.front()].insn_offset;
      result = std::move(r);
      return true;
    }
    const auto& events = *code.events;
    const Stmt& s = t.stmts[stmt_idx];
    const AnchorWord need = stmt_anchors(s);
    for (std::size_t e = event_idx; e < events.size(); ++e) {
      if (++attempts > kMatchAttemptCap) return false;  // hostile-input safety valve
      // Reject events of the wrong kind, width or vector before paying
      // for the state copy.
      if (!anchors_admit(need, event_anchors(events[e]))) continue;
      MatchState trial = state;
      if (stmt_matches(s, events[e], trial, matched)) {
        matched.push_back(e);
        if (dfs(stmt_idx + 1, e + 1, trial, matched)) return true;
        matched.pop_back();
      }
    }
    return false;
  }
};

}  // namespace

std::string format_match(const Template& t, const LiftedCode& code,
                         const MatchResult& match) {
  std::string out = "template '" + t.name + "' (" +
                    std::string(threat_class_name(t.threat)) + ")";
  if (!t.note.empty()) out += " — " + t.note;
  out.push_back('\n');
  char buf[160];
  for (std::size_t i = 0; i < match.matched_events.size() && i < t.stmts.size(); ++i) {
    const Event& ev = (*code.events)[match.matched_events[i]];
    const arch::Instruction& insn = (*code.trace)[ev.insn_index];
    const char* what = "";
    switch (t.stmts[i].kind) {
      case Stmt::Kind::kMemWrite: what = "store"; break;
      case Stmt::Kind::kRegWrite: what = "regwrite"; break;
      case Stmt::Kind::kAdvance: what = "advance"; break;
      case Stmt::Kind::kBranchBack: what = "loopback"; break;
      case Stmt::Kind::kSyscall: what = "syscall"; break;
    }
    std::snprintf(buf, sizeof buf, "  %-9s @%04zx  %s\n", what, std::size_t{insn.offset},
                  arch::format(insn).c_str());
    out += buf;
  }
  for (const auto& [var, value] : match.bindings) {
    out += "  " + var + " = " + ir::to_string(value) + "\n";
  }
  return out;
}

std::optional<MatchResult> match_template(const Template& t, const LiftedCode& code) {
  if (t.stmts.empty() || !code.trace || !code.events) return std::nullopt;
  Search search(t, code);
  std::vector<std::size_t> matched;
  matched.reserve(t.stmts.size());
  search.dfs(0, 0, MatchState{}, matched);
  return search.result;
}

}  // namespace senids::semantic
