// Behavioral templates and the matching engine. A template is an ordered
// list of event statements; a program satisfies the template (P |= T in
// the notation of Christodorescu et al.) iff its lifted event stream
// contains a subsequence matching every statement under one consistent
// variable binding. Gaps in the subsequence are precisely the paper's
// junk-instruction tolerance; matching on lifted events (not syntax)
// provides NOP-insertion, register-reassignment and
// equivalent-instruction tolerance; and matching on the execution-order
// trace provides out-of-order-code tolerance.
#pragma once

#include <cstdint>
#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ir/event.hpp"
#include "semantic/pattern.hpp"
#include "util/bytes.hpp"
#include "arch/insn.hpp"

namespace senids::semantic {

/// Threat classes reported by alerts (maps onto the paper's experiments).
enum class ThreatClass : std::uint8_t {
  kDecryptionLoop,   // polymorphic decoder (Table 2)
  kShellSpawn,       // Linux shell spawning (Table 1)
  kPortBindShell,    // shell bound to a network port (Table 1, "B" rows)
  kReverseShell,     // connect-back shell (extension family)
  kCodeRedII,        // Code Red II exploitation vector (Table 3)
  kCustom,
};

std::string_view threat_class_name(ThreatClass c) noexcept;

/// One statement of a template.
struct Stmt {
  enum class Kind : std::uint8_t {
    kMemWrite,    // mem[addr_pat] := value_pat
    kRegWrite,    // some register := value_pat
    kAdvance,     // a register appearing in binding `ref_var` is stepped
                  // by a nonzero constant (pointer walk)
    kBranchBack,  // conditional branch to an earlier point of the trace,
                  // at or before the first matched statement
    kSyscall,     // int `vector` with constrained registers
  };

  Kind kind{};

  // kMemWrite / kRegWrite
  PatPtr addr;   // kMemWrite only
  PatPtr value;
  /// Required store width in bits for kMemWrite (0 = any). Decoder
  /// templates pin this to 8: the engines they describe decode bytewise,
  /// and wide random-immediate stores are a false-positive magnet.
  std::uint8_t width = 0;
  /// kMemWrite: require the stored value, viewed as a function f of the
  /// loaded byte, to be a bijection on [0,255]. Every decryption routine
  /// must be invertible; coincidental or/and "transforms" in data are
  /// not. Verified by exact evaluation over all 256 inputs.
  bool require_invertible = false;

  // kAdvance
  std::string ref_var;

  // kSyscall
  /// Event vector to match: 0x80 for Linux int 0x80, ir::kSyscallVector
  /// (0x100) for the x86-64 `syscall` instruction. The vector also selects
  /// which register carries the first argument (ebx vs rdi).
  std::uint16_t vector = 0x80;
  /// Required low byte of eax/rax (the Linux syscall number).
  std::optional<std::uint8_t> sysno;
  /// Required low byte of the first-argument register (ebx for int 0x80,
  /// rdi for `syscall`): socketcall sub-function, dup2 fd, etc.
  std::optional<std::uint8_t> ebx_low;
  /// If set, the first-argument register (ebx / rdi by vector) must be a
  /// constant offset into the analyzed buffer and the bytes there must
  /// start with this string (e.g. "/bin").
  std::string ebx_points_to;
};

struct Template {
  std::string name;
  ThreatClass threat = ThreatClass::kCustom;
  std::vector<Stmt> stmts;
  /// Free-text note shown in alerts (which figure/table it reproduces).
  std::string note;
  /// Architecture tag (`arch: x86_64` in the DSL; default x86_32). The
  /// matcher itself is arch-agnostic — statement vectors select the
  /// calling convention — but the linter validates syscall numbers and
  /// store widths against the tagged architecture's rules.
  std::string arch = "x86_32";
};

/// Everything the matcher needs to know about one analyzed code run.
/// `events` is a LiftResult's event list; its nodes live in that
/// result's arena.
struct LiftedCode {
  const std::vector<arch::Instruction>* trace = nullptr;
  const std::vector<ir::Event>* events = nullptr;
  util::ByteView buffer;  // the binary frame the trace was decoded from
  /// The offset of buffer[0] in the trace's offsets: a window's payload
  /// offset, 0 when the trace is in frame offsets.
  std::size_t origin = 0;
};

struct MatchResult {
  /// Event index matched by each statement, parallel to Template::stmts.
  std::vector<std::size_t> matched_events;
  /// Nodes of the matched LiftResult: valid until the next lift into it.
  Env bindings;
  /// Offset of the first matched instruction, in the trace's offsets.
  std::size_t start_offset = 0;
};

// ------------------------------------------------------------- anchors
//
// An anchor word is a set of event features, one bit each. A statement
// requires the feature its first test demands of an event (kind, store
// width, syscall vector); an event provides the features it has. A
// template can only match a trace whose feature word covers the
// template's anchor word, so the analyzer skips every other template
// without running the matcher.

using AnchorWord = std::uint16_t;

enum Anchor : AnchorWord {
  kAnchorStore = 1u << 0,          // any memory write
  kAnchorStore8 = 1u << 1,         // memory write of exactly 8 bits ...
  kAnchorStore16 = 1u << 2,
  kAnchorStore32 = 1u << 3,
  kAnchorStore64 = 1u << 4,
  kAnchorStoreOther = 1u << 5,     // ... or of any other width
  kAnchorRegWrite = 1u << 6,
  kAnchorLoopBack = 1u << 7,       // conditional branch that closes a loop
                                   // (ir::Event::loops_back)
  kAnchorSyscall80 = 1u << 8,      // int 0x80
  kAnchorSyscall100 = 1u << 9,     // x86-64 `syscall` (ir::kSyscallVector)
  kAnchorSyscallOther = 1u << 10,  // any other int vector
};
inline constexpr unsigned kAnchorBits = 11;

/// Features a trace must provide for `t` to match it.
AnchorWord template_anchors(const Template& t) noexcept;
/// Features a lifted trace provides.
AnchorWord trace_anchors(const std::vector<ir::Event>& events) noexcept;
/// Can a trace with features `trace` satisfy a template anchored at `tmpl`?
constexpr bool anchors_admit(AnchorWord tmpl, AnchorWord trace) noexcept {
  return (tmpl & ~trace) == 0;
}

/// Search attempts (statement tried against event) one match_template
/// call may spend before giving up without a match: the hostile-input
/// safety valve that bounds the backtracking search. Every event from
/// where a statement's scan starts up to each event it tries counts,
/// including events the statement's anchor rules out unseen.
inline constexpr std::size_t kMatchAttemptCap = std::size_t{1} << 20;

/// A template prepared for matching: its pattern variables resolved to
/// dense slots and each statement's anchor computed. Build it once per
/// template; it owns copies of everything it uses. Throws
/// std::invalid_argument when the template uses more than
/// kMaxTemplateVars distinct variables.
struct MatchPlan {
  /// One statement: its Stmt fields, its patterns as PatternSet indices.
  struct Step {
    Stmt::Kind kind{};
    std::uint8_t width = 0;
    bool require_invertible = false;
    std::uint16_t vector = 0;
    std::optional<std::uint8_t> sysno;
    std::optional<std::uint8_t> ebx_low;
    std::string ebx_points_to;
    std::uint32_t addr = PatternSet::kNone;   // kMemWrite address pattern
    std::uint32_t value = PatternSet::kNone;  // kMemWrite / kRegWrite value
    /// kMemWrite: slot of the address pattern's own variable, whose
    /// addressing register and width the statement records. kAdvance:
    /// slot of `ref_var`.
    std::uint8_t slot = PatternSet::kNoSlot;
    AnchorWord need = 0;  // the one anchor bit an event must provide
  };

  explicit MatchPlan(const Template& t);

  PatternSet patterns;
  std::vector<Step> steps;
  AnchorWord anchors = 0;  // template_anchors() of the template
};

/// Facts about one lifted trace that every template tried on it shares,
/// plus the working memory the matcher reuses across tries. `reset`
/// derives each event's anchor word in one pass over the events. The
/// events admitted by each anchor bit, the offset -> first trace index
/// table and each store's invertibility verdict are computed on first use
/// and kept until the next reset. Not thread-safe; one per worker.
struct TraceFacts {
  void reset(const LiftedCode& code);
  /// Events that provide anchor bit `bit`, ascending.
  std::span<const std::uint32_t> admitting(AnchorWord bit);
  /// Trace index of the first traced instruction at `offset`, if any.
  std::optional<std::size_t> index_of_offset(std::size_t offset);
  /// Is store event `event`'s value, as a function of the loaded byte, a
  /// bijection on [0,255]? Exact: evaluated over all 256 inputs.
  bool invertible(std::size_t event);

  LiftedCode code;
  AnchorWord features = 0;  // trace_anchors() of the events
  /// Some search on this trace gave up at kMatchAttemptCap.
  bool capped = false;
  /// Some ebx_points_to test on this trace found its pointer outside the
  /// buffer: the same trace in a window that holds more bytes may match.
  bool read_outside = false;

  // Working memory, kept across resets.
  std::vector<AnchorWord> anchor_words;  // per event
  AnchorWord bucketed = 0;               // bits whose bucket is filled
  std::array<std::vector<std::uint32_t>, kAnchorBits> buckets;
  std::vector<std::uint64_t> offset_index;  // offset << 32 | trace index, sorted
  std::vector<std::int8_t> verdicts;  // per event: -1 unknown, 0 no, 1 yes
  std::vector<std::uint32_t> matched;  // the search's matched events
  DagScratch dag;
  struct EvalNode {
    ir::ExprPtr e;
    std::uint32_t lhs, rhs;  // positions in `order`
  };
  std::vector<EvalNode> order;
  std::vector<std::uint32_t> lanes;
};

/// Try to satisfy `plan` against the trace `facts` was reset to. Returns
/// the first match found, or nullopt when there is none or the search hit
/// kMatchAttemptCap. A try that finds no match allocates nothing once
/// `facts` has grown to the trace.
std::optional<MatchResult> match_template(const MatchPlan& plan, TraceFacts& facts);

/// One-shot form: the analyzer's anchor filter, then the matcher above
/// over a plan built here and facts kept in per-thread buffers. Throws
/// as MatchPlan does.
std::optional<MatchResult> match_template(const Template& t, const LiftedCode& code);

/// Human-readable explanation of a match: one line per matched statement
/// with the satisfying instruction and its event. Used by senids_disasm
/// and the examples to show *why* a template fired.
std::string format_match(const Template& t, const LiftedCode& code,
                         const MatchResult& match);

// ------------------------------------------------------- statement sugar

Stmt st_mem_write(PatPtr addr, PatPtr value, std::uint8_t width_bits = 0);
/// kMemWrite statement for decoder loops: byte-wide and invertible.
Stmt st_decode_store(PatPtr addr, PatPtr value);
Stmt st_reg_write(PatPtr value);
Stmt st_advance(std::string ref_var);
Stmt st_branch_back();
Stmt st_syscall(std::uint8_t sysno);
Stmt st_socketcall(std::uint8_t subfn);
/// x86-64 `syscall` statement (vector ir::kSyscallVector, args in rdi..).
Stmt st_syscall64(std::uint8_t sysno);

}  // namespace senids::semantic
