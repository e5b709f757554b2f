// Tests for senids::verify — the three static-analysis passes.
// Positive cases: real corpus traces lift to clean IR, the shipped
// template library lints clean, and the decoder/def-use tables are
// consistent. Negative cases: hand-built malformed IR, templates with an
// undefined variable / unsatisfiable clauses, and deliberately
// inconsistent def/use summaries — each must fail with its own
// diagnostic (checked by message, not just by failure).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "one_shot.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "ir/lifter.hpp"
#include "semantic/dsl.hpp"
#include "semantic/library.hpp"
#include "util/prng.hpp"
#include "verify/ir_verify.hpp"
#include "verify/lint.hpp"
#include "verify/table_check.hpp"
#include "arch/decoder.hpp"

namespace senids {
namespace {

using semantic::p_any;
using semantic::p_bin;
using semantic::p_const;
using semantic::p_fixed;
using semantic::p_load;
using semantic::st_advance;
using semantic::st_branch_back;
using semantic::st_decode_store;
using semantic::st_mem_write;
using semantic::Template;

// ------------------------------------------------------------- positives

void expect_clean_ir(util::ByteView code, const std::string& label) {
  auto runs = test::code_runs(code, 4);
  // Verify from the frame start and from every candidate run: the same
  // entries the analyzer would lift.
  std::vector<std::size_t> entries{0};
  for (const auto& run : runs) entries.push_back(run.start);
  for (std::size_t entry : entries) {
    auto trace = test::trace(code, entry, 4096);
    if (trace.empty()) continue;
    ir::LiftResult lifted;
    ir::lift(trace, lifted);
    verify::Report r = verify::verify_ir(trace, lifted);
    EXPECT_TRUE(r.ok()) << label << " entry " << entry << ":\n" << r.str();
  }
}

TEST(IrVerify, ShellSpawnCorpusLiftsClean) {
  for (const auto& sample : gen::make_shell_spawn_corpus()) {
    expect_clean_ir(sample.code, sample.name);
  }
}

TEST(IrVerify, PolymorphicDecodersLiftClean) {
  const util::Bytes payload = gen::make_shell_spawn_corpus()[0].code;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Prng prng(seed);
    auto adm = gen::admmutate_encode(payload, prng);
    expect_clean_ir(adm.bytes, "admmutate seed " + std::to_string(seed));
    auto clet = gen::clet_encode(payload, prng);
    expect_clean_ir(clet.bytes, "clet seed " + std::to_string(seed));
  }
}

TEST(IrVerify, FnstenvDecoderLiftsClean) {
  expect_clean_ir(gen::make_fnstenv_decoder_payload(), "fnstenv decoder");
  expect_clean_ir(gen::make_iis_asp_overflow_payload(), "iis-asp overflow");
}

TEST(Lint, ShippedTemplateFileIsClean) {
  std::ifstream in(SENIDS_SOURCE_DIR "/templates/standard.tmpl", std::ios::binary);
  ASSERT_TRUE(in) << "cannot open templates/standard.tmpl";
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = semantic::parse_templates(buf.str());
  auto* templates = std::get_if<std::vector<Template>>(&parsed);
  ASSERT_NE(templates, nullptr);
  EXPECT_FALSE(templates->empty());
  verify::Report r = verify::lint_templates(*templates);
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(r.warnings(), 0u) << r.str();
}

TEST(Lint, BuiltinLibrariesAreClean) {
  for (const auto& lib :
       {semantic::make_standard_library(), semantic::make_extended_library()}) {
    verify::Report r = verify::lint_templates(lib);
    EXPECT_TRUE(r.ok()) << r.str();
    EXPECT_EQ(r.warnings(), 0u) << r.str();
  }
}

TEST(TableCheck, DecoderAndDefUseTablesConsistent) {
  verify::Report r = verify::verify_decoder_tables();
  EXPECT_TRUE(r.ok()) << r.str();
}

// ---------------------------------------------------- malformed IR cases

/// A node in `arena` for a test to overwrite by hand. The factories
/// never hand out mutable nodes, but the storage is the test's own.
ir::Expr* hand_built(ir::ExprArena& arena) {
  return const_cast<ir::Expr*>(arena.mk_unknown(0));
}

/// One reg-write event of `value` by the first instruction.
ir::Event reg_write_of(ir::ExprPtr value) {
  ir::Event ev;
  ev.kind = ir::EventKind::kRegWrite;
  ev.reg = arch::RegFamily::kAx;
  ev.value = value;
  return ev;
}

/// mov eax, ebx ; inc eax — two instructions, two reg-write events.
std::vector<arch::Instruction> tiny_trace() {
  static const std::uint8_t kCode[] = {0x89, 0xD8, 0x40};
  auto trace = arch::linear_sweep(kCode, 0);
  EXPECT_EQ(trace.size(), 2u);
  return trace;
}

TEST(IrVerify, CleanTinyTracePasses) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  EXPECT_TRUE(verify::verify_ir(trace, lifted).ok());
}

TEST(IrVerify, FlagsDanglingEventIndex) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  ASSERT_FALSE(lifted.events.empty());
  lifted.events[0].insn_index = 7;
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("dangling insn_index")) << r.str();
}

TEST(IrVerify, FlagsMismatchedEventOffset) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  ASSERT_FALSE(lifted.events.empty());
  lifted.events[0].insn_offset += 1;
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("does not match trace instruction")) << r.str();
}

TEST(IrVerify, FlagsNullStoredValue) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::Event ev;
  ev.kind = ir::EventKind::kMemWrite;
  ev.insn_index = 0;
  ev.insn_offset = 0;
  ev.addr = lifted.arena.mk_const(0x1000);
  ev.value = nullptr;
  ev.width = 8;
  lifted.events.push_back(ev);
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("null stored value")) << r.str();
}

TEST(IrVerify, FlagsImpossibleStoreWidth) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::Event ev;
  ev.kind = ir::EventKind::kMemWrite;
  ev.insn_index = 0;
  ev.insn_offset = 0;
  ev.addr = lifted.arena.mk_const(0x1000);
  ev.value = lifted.arena.mk_const(0x41);
  ev.width = 24;
  lifted.events.push_back(ev);
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("not a decodable access width")) << r.str();
}

TEST(IrVerify, FlagsBinaryNodeMissingOperand) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::Expr* broken = hand_built(lifted.arena);
  broken->kind = ir::ExprKind::kBin;
  broken->bop = ir::BinOp::kXor;
  broken->lhs = lifted.arena.mk_const(1);
  broken->rhs = nullptr;
  lifted.events.push_back(reg_write_of(broken));
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("binary expression missing an operand")) << r.str();
}

TEST(IrVerify, FlagsStaleCachedHash) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::Expr* node = hand_built(lifted.arena);
  node->kind = ir::ExprKind::kConst;
  node->cval = 0x41;
  node->value_bits = 7;
  node->cached_hash = 12345;  // not what the factories compute
  lifted.events.push_back(reg_write_of(node));
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("cached hash is stale")) << r.str();
}

TEST(IrVerify, FlagsLoadFromFutureGeneration) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  lifted.events.push_back(
      reg_write_of(lifted.arena.mk_load(lifted.arena.mk_const(0x1000), 8, /*generation=*/5)));
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("use before def")) << r.str();
}

TEST(IrVerify, FlagsNodeFromAForeignArena) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::ExprArena other;
  lifted.events.push_back(reg_write_of(other.mk_const(0x41)));
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("does not lie in the LiftResult's arena")) << r.str();
}

TEST(IrVerify, FlagsForeignNodeInASyscallSnapshot) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  ASSERT_TRUE(verify::verify_ir(trace, lifted).ok());
  ir::ExprArena other;
  ir::ExprPtr* regs = lifted.arena.mk_ptrs(16);
  for (std::size_t f = 0; f < 16; ++f) regs[f] = lifted.arena.mk_const(0);
  regs[3] = other.mk_const(0x1000);
  ir::Event ev;
  ev.kind = ir::EventKind::kSyscall;
  ev.insn_index = 1;
  ev.insn_offset = static_cast<std::uint32_t>(trace[1].offset);
  ev.vector = 0x80;
  ev.syscall_regs = regs;
  lifted.events.push_back(ev);
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("reg #3")) << r.str();
  EXPECT_TRUE(r.mentions("does not lie in the LiftResult's arena")) << r.str();
}

TEST(IrVerify, FlagsChildAllocatedAfterItsParent) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::Expr* parent = hand_built(lifted.arena);
  parent->kind = ir::ExprKind::kUn;
  parent->uop = ir::UnOp::kNot;
  parent->lhs = lifted.arena.mk_init(arch::RegFamily::kBx);  // allocated later
  parent->cached_hash = ir::recompute_hash(*parent);
  lifted.events.push_back(reg_write_of(parent));
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("child node allocated after its parent")) << r.str();
  EXPECT_FALSE(r.mentions("cached hash is stale")) << r.str();
}

TEST(IrVerify, FlagsEventOrderRegression) {
  auto trace = tiny_trace();
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  ASSERT_GE(lifted.events.size(), 2u);
  std::swap(lifted.events.front(), lifted.events.back());
  verify::Report r = verify::verify_ir(trace, lifted);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("regress in trace order")) << r.str();
}

// ------------------------------------------------------------ lint cases

TEST(Lint, FlagsUndefinedAdvanceVariable) {
  Template t;
  t.name = "broken-advance";
  t.stmts.push_back(st_decode_store(p_any("A"),
                                    p_bin(ir::BinOp::kXor, p_load(p_any("A")),
                                          p_const("K"))));
  t.stmts.push_back(st_advance("Z"));
  verify::Report r = verify::lint_templates({t});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("undefined variable 'Z'")) << r.str();
}

TEST(Lint, FlagsTooManyVariables) {
  Template t;
  t.name = "many-vars";
  for (std::size_t i = 0; i <= semantic::kMaxTemplateVars; ++i) {
    t.stmts.push_back(st_mem_write(p_any("V" + std::to_string(i)), p_fixed(0x7801cbd3)));
  }
  verify::Report r = verify::lint_templates({t});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("uses 9 distinct variables; the matcher holds at most 8")) << r.str();
  t.stmts.pop_back();
  EXPECT_FALSE(verify::lint_templates({t}).mentions("distinct variables"));
}

TEST(Lint, FlagsUnsatisfiableInvertibleClause) {
  Template t;
  t.name = "constant-decode";
  t.stmts.push_back(st_decode_store(p_any("A"), p_fixed(0x41)));
  verify::Report r = verify::lint_templates({t});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("never invertible")) << r.str();
}

TEST(Lint, FlagsConstantWiderThanStore) {
  Template t;
  t.name = "wide-const";
  t.stmts.push_back(st_mem_write(p_any(), p_fixed(0x12345), /*width_bits=*/8));
  verify::Report r = verify::lint_templates({t});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("cannot fit in a 8-bit store")) << r.str();
}

TEST(Lint, FlagsImpossibleStoreWidth) {
  Template t;
  t.name = "odd-width";
  t.stmts.push_back(st_mem_write(p_any(), p_any(), /*width_bits=*/24));
  verify::Report r = verify::lint_templates({t});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("no decodable x86_32 instruction produces a 24-bit store"))
      << r.str();
}

TEST(Lint, FlagsDuplicateName) {
  Template a;
  a.name = "same-name";
  a.stmts.push_back(st_mem_write(p_any(), p_fixed(1)));
  Template b;
  b.name = "same-name";
  b.stmts.push_back(semantic::st_syscall(0x0b));
  verify::Report r = verify::lint_templates({a, b});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("duplicate template name")) << r.str();
}

TEST(Lint, FlagsAlphaRenamedStructuralDuplicate) {
  // Same statements, different variable names: still a duplicate.
  Template a;
  a.name = "first";
  a.stmts.push_back(st_decode_store(p_any("A"),
                                    p_bin(ir::BinOp::kXor, p_load(p_any("A")),
                                          p_const("K"))));
  a.stmts.push_back(st_advance("A"));
  Template b = a;
  b.name = "second";
  b.stmts.clear();
  b.stmts.push_back(st_decode_store(p_any("P"),
                                    p_bin(ir::BinOp::kXor, p_load(p_any("P")),
                                          p_const("Q"))));
  b.stmts.push_back(st_advance("P"));
  verify::Report r = verify::lint_templates({a, b});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("structurally identical")) << r.str();
}

TEST(Lint, WarnsOnPrefixShadowing) {
  Template longer;
  longer.name = "specific";
  longer.stmts.push_back(semantic::st_socketcall(1));
  longer.stmts.push_back(semantic::st_socketcall(2));
  Template prefix;
  prefix.name = "general";
  prefix.stmts.push_back(semantic::st_socketcall(1));
  verify::Report r = verify::lint_templates({longer, prefix});
  EXPECT_TRUE(r.ok());  // a warning, not an error
  EXPECT_GT(r.warnings(), 0u);
  EXPECT_TRUE(r.mentions("strict prefix")) << r.str();
}

TEST(Lint, WarnsOnBareLoopback) {
  Template t;
  t.name = "bare-loop";
  t.stmts.push_back(st_branch_back());
  verify::Report r = verify::lint_templates({t});
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.mentions("loop-back with no body statements")) << r.str();
}

TEST(Lint, WarnsOnAnchorlessTemplate) {
  Template regs_only;
  regs_only.name = "regs-only";
  regs_only.stmts.push_back(semantic::st_reg_write(p_const("K")));
  regs_only.stmts.push_back(st_advance("K"));
  verify::Report r = verify::lint_templates({regs_only});
  EXPECT_TRUE(r.ok());  // a warning, not an error
  EXPECT_EQ(r.warnings(), 1u) << r.str();
  EXPECT_TRUE(r.mentions("anchor word is only a register write")) << r.str();

  Template empty;
  empty.name = "empty";
  r = verify::lint_template(empty);
  EXPECT_TRUE(r.mentions("anchor word is empty")) << r.str();

  // One anchoring statement is enough to silence the warning.
  regs_only.stmts.push_back(semantic::st_syscall(0x0b));
  r = verify::lint_templates({regs_only});
  EXPECT_EQ(r.warnings(), 0u) << r.str();
}

TEST(Lint, FlagsUnsatisfiableDecodeParsedFromDsl) {
  // The DSL parser accepts this form; only the linter can see that a
  // constant stored value can never be an invertible function.
  const char* doc =
      "template const-decode : decryption-loop {\n"
      "  decode *A = 0x41\n"
      "  advance A\n"
      "  loopback\n"
      "}\n";
  auto parsed = semantic::parse_templates(doc);
  auto* templates = std::get_if<std::vector<Template>>(&parsed);
  ASSERT_NE(templates, nullptr);
  verify::Report r = verify::lint_templates(*templates);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("never invertible")) << r.str();
}

// ----------------------------------------------------- table-check cases

TEST(TableCheck, FlagsDefUseEntryWithoutOperand) {
  // mov eax, ebx — but the summary claims to read esi.
  const std::uint8_t kMov[] = {0x89, 0xD8};
  const arch::Instruction insn = arch::decode(kMov, 0);
  ASSERT_TRUE(insn.valid());
  arch::DefUse du = arch::def_use(insn);
  du.uses.add_family(arch::RegFamily::kSi);
  verify::Report r = verify::check_defuse(insn, du);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("no decoded operand or implicit register")) << r.str();
}

TEST(TableCheck, FlagsOperandMissingFromSummary) {
  const std::uint8_t kMov[] = {0x89, 0xD8};
  const arch::Instruction insn = arch::decode(kMov, 0);
  ASSERT_TRUE(insn.valid());
  arch::DefUse du;  // empty summary: both operands unreferenced
  verify::Report r = verify::check_defuse(insn, du);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("not referenced by the def/use summary")) << r.str();
}

TEST(TableCheck, FlagsPhantomMemoryAccess) {
  const std::uint8_t kMov[] = {0x89, 0xD8};
  const arch::Instruction insn = arch::decode(kMov, 0);
  arch::DefUse du = arch::def_use(insn);
  du.mem_read = true;  // no memory operand, no implicit memory
  verify::Report r = verify::check_defuse(insn, du);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("no memory operand")) << r.str();
}

TEST(TableCheck, FlagsPhantomFlagKill) {
  const std::uint8_t kMov[] = {0x89, 0xD8};
  const arch::Instruction insn = arch::decode(kMov, 0);
  arch::DefUse du = arch::def_use(insn);
  du.flags_def = true;  // mov never writes flags
  verify::Report r = verify::check_defuse(insn, du);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("pure data movement")) << r.str();
}

TEST(TableCheck, FlagsRepStringWithoutCounter) {
  // rep movsd with a summary lacking the ecx counter.
  const std::uint8_t kRepMovs[] = {0xF3, 0xA5};
  const arch::Instruction insn = arch::decode(kRepMovs, 0);
  ASSERT_TRUE(insn.valid());
  ASSERT_TRUE(insn.prefixes.has(arch::Prefixes::kRep));
  arch::DefUse du = arch::def_use(insn);
  EXPECT_TRUE(verify::check_defuse(insn, du).ok());  // fixed summary is clean
  arch::DefUse broken;
  broken.uses.add_family(arch::RegFamily::kSi);
  broken.uses.add_family(arch::RegFamily::kDi);
  broken.defs.add_family(arch::RegFamily::kSi);
  broken.defs.add_family(arch::RegFamily::kDi);
  broken.mem_read = true;
  broken.mem_write = true;
  verify::Report r = verify::check_defuse(insn, broken);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.mentions("repeat counter")) << r.str();
}

// -------------------------------------------------- regression: rep ecx

TEST(TableCheck, RepStringOpsCountEcx) {
  // Regression for the def/use bug the cross-check surfaced: rep string
  // forms must read and write ecx.
  const std::uint8_t kRepStos[] = {0xF3, 0xAA};
  const arch::Instruction insn = arch::decode(kRepStos, 0);
  ASSERT_TRUE(insn.valid());
  const arch::DefUse du = arch::def_use(insn);
  EXPECT_TRUE(du.uses.contains_family(arch::RegFamily::kCx));
  EXPECT_TRUE(du.defs.contains_family(arch::RegFamily::kCx));
}

}  // namespace
}  // namespace senids
