#include <gtest/gtest.h>

#include "one_shot.hpp"
#include "semantic/dsl.hpp"

namespace senids::semantic {
namespace {

std::vector<Template> parse_ok(std::string_view text) {
  auto result = parse_templates(text);
  if (auto* err = std::get_if<ParseError>(&result)) {
    ADD_FAILURE() << "parse error at line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<std::vector<Template>>(result);
}

ParseError parse_err(std::string_view text) {
  auto result = parse_templates(text);
  if (std::holds_alternative<std::vector<Template>>(result)) {
    ADD_FAILURE() << "expected a parse error";
    return {};
  }
  return std::get<ParseError>(result);
}

TEST(Dsl, ParsesXorDecryptTemplate) {
  auto templates = parse_ok(R"(
    # the canonical decoder template
    template xor-decrypt : decryption-loop {
      store *A = xor(load(*A), K)
      advance A
      loopback
    }
  )");
  ASSERT_EQ(templates.size(), 1u);
  const Template& t = templates[0];
  EXPECT_EQ(t.name, "xor-decrypt");
  EXPECT_EQ(t.threat, ThreatClass::kDecryptionLoop);
  ASSERT_EQ(t.stmts.size(), 3u);
  EXPECT_EQ(t.stmts[0].kind, Stmt::Kind::kMemWrite);
  EXPECT_EQ(t.stmts[1].kind, Stmt::Kind::kAdvance);
  EXPECT_EQ(t.stmts[1].ref_var, "A");
  EXPECT_EQ(t.stmts[2].kind, Stmt::Kind::kBranchBack);
}

TEST(Dsl, ParsesSyscallModifiers) {
  auto templates = parse_ok(R"(
    template bind : port-bind-shell {
      syscall 0x66 sub 1
      syscall 0x66 sub 2
      syscall 0x0b path "/bin"
    }
  )");
  ASSERT_EQ(templates.size(), 1u);
  const auto& stmts = templates[0].stmts;
  ASSERT_EQ(stmts.size(), 3u);
  EXPECT_EQ(stmts[0].sysno.value(), 0x66);
  EXPECT_EQ(stmts[0].ebx_low.value(), 1);
  EXPECT_EQ(stmts[1].ebx_low.value(), 2);
  EXPECT_EQ(stmts[2].sysno.value(), 0x0b);
  EXPECT_EQ(stmts[2].ebx_points_to, "/bin");
}

TEST(Dsl, ParsesTransformPattern) {
  auto templates = parse_ok(R"(
    template alt : decryption-loop {
      store *A = transform(load(*A); or, and, not)
      advance A
      loopback
    }
  )");
  ASSERT_EQ(templates.size(), 1u);
  const auto& stmt = templates[0].stmts[0];
  ASSERT_EQ(stmt.value->kind, PatKind::kTransform);
  EXPECT_EQ(stmt.value->allowed.size(), 2u);
  EXPECT_TRUE(stmt.value->allow_not);
}

TEST(Dsl, ParsesFixedConstAndRegwrite) {
  auto templates = parse_ok(R"(
    template crii : code-red-ii {
      store * = 0x7801cbd3
      regwrite add(*X, C)
    }
  )");
  ASSERT_EQ(templates.size(), 1u);
  const auto& s0 = templates[0].stmts[0];
  ASSERT_EQ(s0.value->kind, PatKind::kFixedConst);
  EXPECT_EQ(s0.value->fixed, 0x7801cbd3u);
  EXPECT_EQ(templates[0].stmts[1].kind, Stmt::Kind::kRegWrite);
}

TEST(Dsl, ParsesMultipleTemplates) {
  auto templates = parse_ok(R"(
    template a { loopback }
    template b : shell-spawn { syscall 11 }
  )");
  ASSERT_EQ(templates.size(), 2u);
  EXPECT_EQ(templates[0].threat, ThreatClass::kCustom);
  EXPECT_EQ(templates[1].threat, ThreatClass::kShellSpawn);
  EXPECT_EQ(templates[1].stmts[0].sysno.value(), 11);
}

TEST(Dsl, ParsesDecimalAndHexNumbers) {
  auto templates = parse_ok("template t { syscall 11 }\ntemplate u { syscall 0x0b }");
  EXPECT_EQ(templates[0].stmts[0].sysno.value(), templates[1].stmts[0].sysno.value());
}

TEST(Dsl, EmptyInputYieldsNoTemplates) {
  EXPECT_TRUE(parse_ok("  # only a comment\n").empty());
}

TEST(Dsl, ErrorOnMissingBrace) {
  ParseError e = parse_err("template t  syscall 11 }");
  EXPECT_NE(e.message.find("'{'"), std::string::npos);
}

TEST(Dsl, ErrorOnUnknownStatement) {
  ParseError e = parse_err("template t { frobnicate }");
  EXPECT_NE(e.message.find("frobnicate"), std::string::npos);
}

TEST(Dsl, ErrorOnUnknownThreatClass) {
  ParseError e = parse_err("template t : nonsense { loopback }");
  EXPECT_NE(e.message.find("nonsense"), std::string::npos);
}

TEST(Dsl, ErrorOnEmptyTemplate) {
  ParseError e = parse_err("template t { }");
  EXPECT_NE(e.message.find("no statements"), std::string::npos);
}

TEST(Dsl, ErrorOnUnterminatedBody) {
  ParseError e = parse_err("template t { loopback ");
  EXPECT_NE(e.message.find("end of input"), std::string::npos);
}

TEST(Dsl, ErrorCarriesLineNumber) {
  ParseError e = parse_err("template t {\n  loopback\n  bogus\n}");
  EXPECT_EQ(e.line, 3u);
}

TEST(Dsl, ErrorOnBadPattern) {
  ParseError e = parse_err("template t { store *A = xor(load(*A) K) }");
  EXPECT_FALSE(e.message.empty());
}

TEST(Dsl, ErrorOnSyscallNumberOverOneByte) {
  // 0x166 would previously truncate to 0x66 silently (matching socketcall
  // instead of failing); the parser must reject it.
  ParseError e = parse_err("template t { syscall 0x166 }");
  EXPECT_NE(e.message.find("syscall number must fit in one byte"),
            std::string::npos)
      << e.message;
}

TEST(Dsl, ErrorOnSubNumberOverOneByte) {
  ParseError e = parse_err("template t { syscall 0x66 sub 0x101 }");
  EXPECT_NE(e.message.find("sub number must fit in one byte"), std::string::npos)
      << e.message;
}

TEST(Dsl, BareUppercaseIdentIsSymbolicConst) {
  auto templates = parse_ok("template t { regwrite K }");
  ASSERT_EQ(templates.size(), 1u);
  EXPECT_EQ(templates[0].stmts[0].value->kind, PatKind::kConst);
  EXPECT_EQ(templates[0].stmts[0].value->var, "K");
}

TEST(Dsl, AnonymousStarHasNoBinding) {
  auto templates = parse_ok("template t { regwrite * }");
  EXPECT_EQ(templates[0].stmts[0].value->kind, PatKind::kAny);
  EXPECT_TRUE(templates[0].stmts[0].value->var.empty());
}

}  // namespace
}  // namespace senids::semantic

// ------------------------- shipped standard.tmpl equivalence ------------

#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"

#include <fstream>
#include <sstream>

namespace senids::semantic {
namespace {

std::vector<Template> load_shipped_templates() {
  std::ifstream in(std::string(SENIDS_SOURCE_DIR) + "/templates/standard.tmpl");
  EXPECT_TRUE(in.good()) << "templates/standard.tmpl missing";
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = parse_templates(buf.str());
  if (auto* err = std::get_if<ParseError>(&parsed)) {
    ADD_FAILURE() << "standard.tmpl line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<std::vector<Template>>(parsed);
}

TEST(ShippedTemplates, ParseAndMatchBuiltinCount) {
  auto shipped = load_shipped_templates();
  auto builtin = make_standard_library();
  EXPECT_EQ(shipped.size(), builtin.size());
}

TEST(ShippedTemplates, DetectionParityWithBuiltins) {
  auto shipped = load_shipped_templates();
  ASSERT_FALSE(shipped.empty());
  SemanticAnalyzer from_dsl(std::move(shipped));
  SemanticAnalyzer from_code(make_standard_library());

  auto classes = [](const std::vector<Detection>& ds) {
    std::vector<int> out;
    for (const auto& d : ds) out.push_back(static_cast<int>(d.threat));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  // Exploit corpus: every sample must classify identically.
  util::Prng prng(606);
  std::vector<util::Bytes> corpus;
  for (const auto& s : gen::make_shell_spawn_corpus()) corpus.push_back(s.code);
  corpus.push_back(gen::make_iis_asp_overflow_payload());
  corpus.push_back(gen::make_reverse_shell(0x0A000001u, 0x5c11u));
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Prng p(seed);
    corpus.push_back(gen::admmutate_encode(corpus[1], p).bytes);
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(classes(test::analyze(from_dsl, corpus[i])),
              classes(test::analyze(from_code, corpus[i])))
        << "sample " << i;
  }
  // And a benign control stays clean for both.
  auto noise = prng.bytes(2048);
  EXPECT_TRUE(test::analyze(from_dsl, noise).empty());
  EXPECT_TRUE(test::analyze(from_code, noise).empty());
}

std::vector<Template> parse_ok2(std::string_view text) {
  auto result = parse_templates(text);
  if (auto* err = std::get_if<ParseError>(&result)) {
    ADD_FAILURE() << "parse error at line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<std::vector<Template>>(result);
}

TEST(Dsl, DecodeStatementSetsHardenedFlags) {
  auto templates = parse_ok2("template t { decode *A = xor(load(*A), K) }");
  ASSERT_EQ(templates.size(), 1u);
  const Stmt& s = templates[0].stmts[0];
  EXPECT_EQ(s.width, 8);
  EXPECT_TRUE(s.require_invertible);
}

TEST(Dsl, StoreWidthKeywords) {
  auto templates = parse_ok2(
      "template t { store byte *A = K }\n"
      "template u { store dword * = 0x7801cbd3 }\n"
      "template v { store * = 0x1 }");
  ASSERT_EQ(templates.size(), 3u);
  EXPECT_EQ(templates[0].stmts[0].width, 8);
  EXPECT_FALSE(templates[0].stmts[0].require_invertible);
  EXPECT_EQ(templates[1].stmts[0].width, 32);
  EXPECT_EQ(templates[2].stmts[0].width, 0);
}

}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

TEST(Dsl, AdvanceWithUnboundVariableRejected) {
  auto result = parse_templates("template t { advance Z\n loopback }");
  auto* err = std::get_if<ParseError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->message.find("'Z'"), std::string::npos);
}

/// A template whose statements use `vars` distinct variables V0, V1, ...
std::string template_with_vars(std::size_t vars) {
  std::string text = "template many {\n";
  for (std::size_t i = 0; i < vars; ++i) {
    text += "store *V" + std::to_string(i) + " = *\n";
  }
  return text + "}\n";
}

TEST(Dsl, TooManyVariablesRejected) {
  EXPECT_TRUE(std::holds_alternative<std::vector<Template>>(
      parse_templates(template_with_vars(kMaxTemplateVars))));
  auto result = parse_templates(template_with_vars(kMaxTemplateVars + 1));
  auto* err = std::get_if<ParseError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->message.find("uses 9 distinct variables; a template may use at most 8"),
            std::string::npos)
      << err->message;
}

TEST(Dsl, AdvanceBoundByStoreAccepted) {
  auto result =
      parse_templates("template t { decode *A = xor(load(*A), K)\n advance A\n loopback }");
  EXPECT_TRUE(std::holds_alternative<std::vector<Template>>(result));
}

}  // namespace
}  // namespace senids::semantic
