#include "semantic/template.hpp"

#include "arch/defuse.hpp"
#include "arch/format.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace senids::semantic {

using ir::Event;
using ir::Expr;
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

Stmt st_syscall64(std::uint8_t sysno) {
  Stmt s = st_syscall(sysno);
  s.vector = ir::kSyscallVector;
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
    case EventKind::kBranch: return ev.loops_back ? kAnchorLoopBack : 0;
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
    case Stmt::Kind::kBranchBack: return kAnchorLoopBack;
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

/// Lanes the invertibility check evaluates at once, summed over the
/// DAG's nodes: each node holds one value per lane, and the 256 inputs
/// are taken in as many passes as that leaves room for (a 5-node value
/// in 8 passes of 32), so the buffer stays at 1 KB for any value of up
/// to 256 nodes.
constexpr std::size_t kLaneBudget = 256;

/// Evaluate a matched store value over every byte `v` the store's load
/// can read, node by node in `order` (children before parents, the root
/// last), and check that the low bytes of the results are distinct. All
/// load leaves in a matched decoder tree refer to the same location (the
/// pattern enforces base consistency), so each evaluates to `v`. Rotates
/// are evaluated with 8-bit semantics, matching the byte registers the
/// decoders rotate.
bool is_bijection(const std::vector<TraceFacts::EvalNode>& order,
                  std::vector<std::uint32_t>& lanes) {
  const std::size_t n = order.size();
  const std::size_t width = std::min<std::size_t>(
      256, std::bit_floor(std::max<std::size_t>(1, kLaneBudget / n)));
  lanes.resize(n * width);
  bool seen[256] = {};
  for (std::uint32_t first = 0; first < 256; first += static_cast<std::uint32_t>(width)) {
    for (std::size_t i = 0; i < n; ++i) {
      const Expr& e = *order[i].e;
      std::uint32_t* out = &lanes[i * width];
      const std::uint32_t* a = &lanes[order[i].lhs * width];
      const std::uint32_t* b = &lanes[order[i].rhs * width];
      switch (e.kind) {
        case ExprKind::kConst:
          std::fill_n(out, width, e.cval);
          break;
        case ExprKind::kLoad:
          for (std::size_t l = 0; l < width; ++l) out[l] = first + static_cast<std::uint32_t>(l);
          break;
        case ExprKind::kUn:
          for (std::size_t l = 0; l < width; ++l) {
            out[l] = e.uop == ir::UnOp::kNot ? ~a[l] : 0u - a[l];
          }
          break;
        case ExprKind::kBin: {
          auto each = [&](auto f) {
            for (std::size_t l = 0; l < width; ++l) out[l] = f(a[l], b[l]);
          };
          using U = std::uint32_t;
          switch (e.bop) {
            case ir::BinOp::kAdd: each([](U x, U y) { return x + y; }); break;
            case ir::BinOp::kSub: each([](U x, U y) { return x - y; }); break;
            case ir::BinOp::kXor: each([](U x, U y) { return x ^ y; }); break;
            case ir::BinOp::kOr: each([](U x, U y) { return x | y; }); break;
            case ir::BinOp::kAnd: each([](U x, U y) { return x & y; }); break;
            case ir::BinOp::kShl: each([](U x, U y) { return x << (y & 31); }); break;
            case ir::BinOp::kShr: each([](U x, U y) { return x >> (y & 31); }); break;
            case ir::BinOp::kSar:
              each([](U x, U y) { return U(std::int32_t(x) >> (y & 31)); });
              break;
            case ir::BinOp::kRol:
              each([](U x, U y) {
                const U sh = y & 7, x8 = x & 0xff;
                return sh ? ((x8 << sh) | (x8 >> (8 - sh))) & 0xff : x8;
              });
              break;
            case ir::BinOp::kRor:
              each([](U x, U y) {
                const U sh = y & 7, x8 = x & 0xff;
                return sh ? ((x8 >> sh) | (x8 << (8 - sh))) & 0xff : x8;
              });
              break;
            case ir::BinOp::kMul: each([](U x, U y) { return x * y; }); break;
          }
          break;
        }
        default:
          return false;
      }
    }
    const std::uint32_t* root = &lanes[(n - 1) * width];
    for (std::size_t l = 0; l < width; ++l) {
      const std::uint8_t byte = static_cast<std::uint8_t>(root[l] & 0xff);
      if (seen[byte]) return false;
      seen[byte] = true;
    }
  }
  return true;
}

/// Is the stored value a bijective byte transform of the loaded byte?
/// Collects the value's DAG in post order with an explicit stack (each
/// node once, load addresses not entered), then evaluates it. A value
/// with an initial-register or unknown leaf is not a pure byte function.
bool is_invertible_byte_fn(ExprPtr root, TraceFacts& facts) {
  constexpr std::uint32_t kOpen = ~std::uint32_t{0};  // children pending
  DagScratch& dag = facts.dag;
  auto& order = facts.order;
  dag.seen.clear();
  order.clear();
  dag.stack.assign(1, root);
  auto position = [&dag](ExprPtr child) { return child ? *dag.seen.find(child) : 0; };
  while (!dag.stack.empty()) {
    const ExprPtr e = dag.stack.back();
    bool fresh = false;
    std::uint32_t* slot = dag.seen.insert(e, kOpen, fresh);
    if (fresh && (e->kind == ExprKind::kUn || e->kind == ExprKind::kBin)) {
      if (e->kind == ExprKind::kBin) dag.stack.push_back(e->rhs);
      dag.stack.push_back(e->lhs);
      continue;
    }
    dag.stack.pop_back();
    if (*slot != kOpen) continue;  // placed on an earlier path
    if (e->kind != ExprKind::kConst && e->kind != ExprKind::kLoad &&
        e->kind != ExprKind::kUn && e->kind != ExprKind::kBin) {
      return false;
    }
    *slot = static_cast<std::uint32_t>(order.size());
    const bool inner = e->kind == ExprKind::kUn || e->kind == ExprKind::kBin;
    order.push_back({e, inner ? position(e->lhs) : 0,
                     e->kind == ExprKind::kBin ? position(e->rhs) : 0});
  }
  return is_bijection(order, facts.lanes);
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

/// Per-branch match state, trivially copyable: the bindings by slot and,
/// for every variable bound by a MemWrite address pattern, the
/// architectural register family the matched store instruction addressed
/// through and the store's width. Decoder templates use the register to
/// demand that the pointer walk steps the *same* register the store
/// dereferenced — the strongest single false-positive filter.
struct SearchState {
  Slots slots{};
  std::array<arch::RegFamily, kMaxTemplateVars> addr_reg{};  // kNone = unset
  std::array<std::uint8_t, kMaxTemplateVars> addr_width{};
  std::uint8_t addr_width_set = 0;  // bit per slot
  /// The matched pointer-advance, when the template has one: the stepped
  /// register must not be written again before the loop-back, or the next
  /// iteration would not see the advanced pointer.
  bool advanced = false;
  arch::RegFamily advance_reg{};
  std::uint32_t advance_event = 0;  // position in the event list

  SearchState() { addr_reg.fill(arch::RegFamily::kNone); }
};
static_assert(std::is_trivially_copyable_v<SearchState>);

struct Search {
  const MatchPlan& plan;
  TraceFacts& facts;
  const std::vector<arch::Instruction>& trace;
  const std::vector<Event>& events;
  std::size_t attempts = 0;
  std::optional<MatchResult> result;

  Search(const MatchPlan& p, TraceFacts& f)
      : plan(p), facts(f), trace(*f.code.trace), events(*f.code.events) {}

  /// Register family a store instruction addresses through (base first,
  /// then index; pushes and string stores use their implicit registers).
  std::optional<arch::RegFamily> store_addr_reg(const Event& ev) const {
    const arch::Instruction& insn = trace[ev.insn_index];
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
    const arch::Instruction& brinsn = trace[ev.insn_index];
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
      const arch::Instruction& insn = trace[i];
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

  /// Does statement `si` hold for event `e`? Extends `state` on success.
  bool stmt_matches(std::size_t si, std::size_t e, SearchState& state) {
    const MatchPlan::Step& s = plan.steps[si];
    const Event& ev = events[e];
    switch (s.kind) {
      case Stmt::Kind::kMemWrite: {
        if (ev.kind != EventKind::kMemWrite) return false;
        if (s.width != 0 && ev.width != s.width) return false;
        if (!plan.patterns.match(s.addr, ev.addr, state.slots, facts.dag) ||
            !plan.patterns.match(s.value, ev.value, state.slots, facts.dag)) {
          return false;
        }
        if (s.require_invertible) {
          if (!facts.invertible(e)) return false;
          // The key operand must not live in the register that addresses
          // the store: a "key" carved out of the walking pointer changes
          // every iteration, which no fixed-key decoder does (observed
          // false-positive shape: `add byte [edx], dh`).
          const arch::Instruction& insn = trace[ev.insn_index];
          if (insn.ops[1].kind == arch::OperandKind::kReg &&
              insn.ops[0].kind == arch::OperandKind::kMem &&
              insn.ops[0].mem().has_base() &&
              insn.ops[1].reg.family == insn.ops[0].mem().base.family) {
            return false;
          }
        }
        if (s.slot != PatternSet::kNoSlot) {
          if (auto family = store_addr_reg(ev)) state.addr_reg[s.slot] = *family;
          state.addr_width[s.slot] = ev.width;
          state.addr_width_set |= std::uint8_t(1u << s.slot);
        }
        return true;
      }

      case Stmt::Kind::kRegWrite:
        return ev.kind == EventKind::kRegWrite &&
               plan.patterns.match(s.value, ev.value, state.slots, facts.dag);

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
        switch (trace[ev.insn_index].mnemonic) {
          case arch::Mnemonic::kInc:
          case arch::Mnemonic::kDec:
          case arch::Mnemonic::kAdd:
          case arch::Mnemonic::kSub:
          case arch::Mnemonic::kLea:
            break;
          default:
            return false;
        }
        if (s.slot == PatternSet::kNoSlot || !state.slots[s.slot]) return false;
        // The register being stepped must be the one the matched store
        // addressed through.
        const arch::RegFamily addr_reg = state.addr_reg[s.slot];
        if (addr_reg != arch::RegFamily::kNone && addr_reg != ev.reg) return false;
        auto diff = addr_diff(ev.value, state.slots[s.slot]);
        if (!diff) return false;
        const std::int64_t mag = *diff < 0 ? -*diff : *diff;
        // Real decoders walk their buffer in element-size strides; any
        // other delta is far more likely a coincidental register write.
        if (mag != 1 && mag != 2 && mag != 4) return false;
        // The stride must equal the decoded element size: a byte decoder
        // walks one byte per iteration.
        if ((state.addr_width_set >> s.slot & 1u) != 0 &&
            mag != state.addr_width[s.slot] / 8) {
          return false;
        }
        state.advanced = true;
        state.advance_reg = ev.reg;
        state.advance_event = static_cast<std::uint32_t>(e);
        return true;
      }

      case Stmt::Kind::kBranchBack: {
        if (ev.kind != EventKind::kBranch || !ev.conditional || !ev.target) return false;
        auto counter = loop_counter_of(ev);
        if (!counter) return false;
        // The iteration counter and the walked pointer are distinct
        // registers in every real engine; random data overwhelmingly
        // produces loops where the pointer doubles as the counter.
        if (state.advanced && *counter == state.advance_reg) return false;
        auto target = facts.index_of_offset(*ev.target);
        if (!target) return false;
        const std::size_t target_idx = *target;
        // Counter sanity: if the counter register was written before the
        // loop entry, its entry value must be a plausible constant count.
        // (An unwritten counter is fine — the snippet's caller provides
        // it, as in Figure 1 — but a garbage junk value is not a length.)
        {
          const Event* last_write = nullptr;
          for (const Event& prior : events) {
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
        if (ev.insn_index - target_idx > ir::kMaxLoopInsns) return false;
        // ...that encloses every previously matched statement, so the
        // transform and the pointer walk actually execute per iteration.
        for (std::size_t i = 0; i < si; ++i) {
          const Event& prior = events[facts.matched[i]];
          if (prior.insn_index < target_idx || prior.insn_index >= ev.insn_index) {
            return false;
          }
        }
        // The advanced pointer must survive until the back edge: a later
        // write to the same register would feed the next iteration a
        // different address (real decoders never do this; coincidental
        // matches in data routinely do). Events are in trace order, so
        // the later instructions' events follow the advance's.
        if (state.advanced) {
          const std::uint32_t stepped = events[state.advance_event].insn_index;
          for (std::size_t i = state.advance_event + 1;
               i < events.size() && events[i].insn_index < ev.insn_index; ++i) {
            const Event& later = events[i];
            if (later.kind == EventKind::kRegWrite && later.reg == state.advance_reg &&
                later.insn_index > stepped) {
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
          const auto& buf = facts.code.buffer;
          const std::string& want = s.ebx_points_to;
          const std::size_t at = ptr - facts.code.origin;
          if (ptr < facts.code.origin || at + want.size() > buf.size()) {
            facts.read_outside = true;
            return false;
          }
          if (std::memcmp(buf.data() + at, want.data(), want.size()) != 0) return false;
        }
        return true;
      }
    }
    return false;
  }

  /// Match statements `si`.. against events `from`.. . Only the events a
  /// statement's anchor admits are tried, but every event the plain scan
  /// would have stepped over is counted against kMatchAttemptCap, so the
  /// cap fires exactly where it would without the buckets.
  bool dfs(std::size_t si, std::size_t from, const SearchState& state) {
    if (si == plan.steps.size()) {
      MatchResult r;
      r.matched_events.assign(facts.matched.begin(), facts.matched.begin() + si);
      for (std::size_t slot = 0; slot < plan.patterns.vars().size(); ++slot) {
        if (state.slots[slot]) r.bindings.emplace(plan.patterns.vars()[slot], state.slots[slot]);
      }
      r.start_offset = events[facts.matched[0]].insn_offset;
      result = std::move(r);
      return true;
    }
    const std::span<const std::uint32_t> admitted = facts.admitting(plan.steps[si].need);
    std::size_t next = from;  // first event not yet counted
    for (auto it = std::lower_bound(admitted.begin(), admitted.end(), from);
         it != admitted.end(); ++it) {
      const std::size_t e = *it;
      attempts += e - next + 1;
      if (attempts > kMatchAttemptCap) {  // hostile-input safety valve
        facts.capped = true;
        return false;
      }
      next = e + 1;
      SearchState trial = state;
      if (stmt_matches(si, e, trial)) {
        facts.matched[si] = static_cast<std::uint32_t>(e);
        if (dfs(si + 1, e + 1, trial)) return true;
      }
    }
    attempts += events.size() - next;  // the events after the last admitted one
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

MatchPlan::MatchPlan(const Template& t) : anchors(template_anchors(t)) {
  steps.resize(t.stmts.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Stmt& s = t.stmts[i];
    Step& step = steps[i];
    step.kind = s.kind;
    step.width = s.width;
    step.require_invertible = s.require_invertible;
    step.vector = s.vector;
    step.sysno = s.sysno;
    step.ebx_low = s.ebx_low;
    step.ebx_points_to = s.ebx_points_to;
    step.addr = patterns.add(s.addr);
    step.value = patterns.add(s.value);
    step.need = stmt_anchors(s);
    // An advance whose variable no earlier statement binds gets no slot
    // and never matches, as it could not while that variable is unbound.
    if (s.kind == Stmt::Kind::kMemWrite && s.addr) {
      step.slot = patterns.slot_of(s.addr->var);
    } else if (s.kind == Stmt::Kind::kAdvance) {
      step.slot = patterns.slot_of(s.ref_var);
    }
  }
  if (patterns.vars().size() > kMaxTemplateVars) {
    throw std::invalid_argument("template '" + t.name + "' uses " +
                                std::to_string(patterns.vars().size()) +
                                " distinct variables; the matcher holds at most " +
                                std::to_string(kMaxTemplateVars));
  }
}

void TraceFacts::reset(const LiftedCode& c) {
  code = c;
  capped = false;
  read_outside = false;
  bucketed = 0;
  offset_index.clear();
  verdicts.clear();
  const std::size_t n = c.events ? c.events->size() : 0;
  anchor_words.resize(n);
  const Event* events = n ? c.events->data() : nullptr;
  AnchorWord* words = anchor_words.data();
  AnchorWord all = 0;
  for (std::size_t i = 0; i < n; ++i) {
    words[i] = event_anchors(events[i]);
    all |= words[i];
  }
  features = all;
}

std::span<const std::uint32_t> TraceFacts::admitting(AnchorWord bit) {
  std::vector<std::uint32_t>& bucket = buckets[static_cast<unsigned>(std::countr_zero(bit))];
  if ((bucketed & bit) == 0) {
    bucketed |= bit;
    bucket.clear();
    for (std::size_t i = 0; i < anchor_words.size(); ++i) {
      if ((anchor_words[i] & bit) != 0) bucket.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return bucket;
}

std::optional<std::size_t> TraceFacts::index_of_offset(std::size_t offset) {
  // Built on first use: only a loop-back statement that reaches a
  // candidate branch needs it, so most traces never pay for it.
  if (offset_index.empty()) {
    const auto& trace = *code.trace;
    offset_index.resize(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      offset_index[i] = std::uint64_t{trace[i].offset} << 32 | i;
    }
    std::sort(offset_index.begin(), offset_index.end());
  }
  auto it = std::lower_bound(offset_index.begin(), offset_index.end(),
                             std::uint64_t{offset} << 32);
  if (it == offset_index.end() || *it >> 32 != offset) return std::nullopt;
  return static_cast<std::uint32_t>(*it);
}

bool TraceFacts::invertible(std::size_t event) {
  if (verdicts.empty()) verdicts.assign(code.events->size(), -1);
  if (verdicts[event] < 0) {
    verdicts[event] = is_invertible_byte_fn((*code.events)[event].value, *this) ? 1 : 0;
  }
  return verdicts[event] == 1;
}

std::optional<MatchResult> match_template(const MatchPlan& plan, TraceFacts& facts) {
  if (plan.steps.empty() || !facts.code.trace || !facts.code.events) return std::nullopt;
  if (facts.matched.size() < plan.steps.size()) facts.matched.resize(plan.steps.size());
  Search search(plan, facts);
  search.dfs(0, 0, SearchState{});
  return std::move(search.result);
}

std::optional<MatchResult> match_template(const Template& t, const LiftedCode& code) {
  if (t.stmts.empty() || !code.trace || !code.events) return std::nullopt;
  // Reused per thread, so a one-shot try allocates only for its plan
  // once the buffers have grown.
  thread_local TraceFacts facts;
  facts.reset(code);
  // The analyzer's anchor filter (DESIGN.md 1b): a template that cannot
  // match costs no plan.
  if (!anchors_admit(template_anchors(t), facts.features)) return std::nullopt;
  return match_template(MatchPlan(t), facts);
}

}  // namespace senids::semantic
