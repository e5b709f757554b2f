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

// ------------------------------------------------ built-in templates ----
// templates/standard.tmpl and templates/extended.tmpl are the only
// definition of the built-in library: they are embedded at build time and
// make_*_library() parse them. These tests pin the result to the library
// as it was built before the files became its definition.

#include "cache/fingerprint.hpp"
#include "semantic/library.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace senids::semantic {
namespace {

std::string digest_hex(const std::vector<Template>& templates) {
  cache::Sha256 ctx;
  cache::hash_templates(ctx, templates);
  std::string hex;
  for (std::uint8_t b : ctx.finish()) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    hex += buf;
  }
  return hex;
}

TEST(BuiltinTemplates, DigestsPinned) {
  // cache::hash_templates covers every field the matcher reads, so equal
  // digests mean every verdict is unchanged.
  EXPECT_EQ(digest_hex(make_standard_library()),
            "8cf356730da5199bfae016931a8062761df3edbda5eea0aa7d95000f7437d62b");
  EXPECT_EQ(digest_hex(make_extended_library()),
            "10e04a84f851febc8e6aba8d67c143c1432a10fd9e3f5f460ec5de5c62023fa0");
  EXPECT_EQ(digest_hex(make_decoder_library()),
            "b54e17dafb472b8358153129378a2e72b35a446048a9f57aaee1ab9e9e836fe0");
  EXPECT_EQ(digest_hex(make_xor_only_library()),
            "9e0e616f65d6c2acdacbbeb5de34708f5dfd1615ec401780dca086372beaf5b3");
}

TEST(BuiltinTemplates, NamesThreatsArchesAndNotes) {
  struct Expected {
    const char* name;
    ThreatClass threat;
    const char* arch;
    const char* note;
  };
  const Expected expected[] = {
      {"xor-decrypt-loop", ThreatClass::kDecryptionLoop, "x86_32",
       "Figure 2/6 xor decryption template"},
      {"add-decrypt-loop", ThreatClass::kDecryptionLoop, "x86_32",
       "equivalent-instruction decoder variant (add/sub key)"},
      {"admmutate-alt-decoder", ThreatClass::kDecryptionLoop, "x86_32",
       "Figure 7 alternate ADMmutate decryption loop"},
      {"shell-spawn-pushed-string", ThreatClass::kShellSpawn, "x86_32",
       "Figure 6 shell-spawning template (stack-built path)"},
      {"shell-spawn-embedded-string", ThreatClass::kShellSpawn, "x86_32",
       "Figure 6 shell-spawning template (embedded path)"},
      {"port-bind-shell", ThreatClass::kPortBindShell, "x86_32",
       "Figure 6 extension: shell bound to a network port"},
      {"reverse-shell", ThreatClass::kReverseShell, "x86_32", "connect-back shell (extension)"},
      {"code-red-ii-vector", ThreatClass::kCodeRedII, "x86_32",
       "Code Red II initial exploitation vector (Table 3)"},
      {"shell-spawn-stack-64", ThreatClass::kShellSpawn, "x86_64",
       "x86-64 shell spawn, stack-built path"},
      {"shell-spawn-embedded-64", ThreatClass::kShellSpawn, "x86_64",
       "x86-64 shell spawn, embedded path"},
      {"port-bind-shell-64", ThreatClass::kPortBindShell, "x86_64",
       "x86-64 shell bound to a network port"},
      {"reverse-shell-64", ThreatClass::kReverseShell, "x86_64", "x86-64 connect-back shell"},
      {"ror-decrypt-loop", ThreatClass::kDecryptionLoop, "x86_32",
       "rotate-key decoder (future-work extension)"},
  };
  const std::vector<Template> extended = make_extended_library();
  ASSERT_EQ(extended.size(), std::size(expected));
  EXPECT_EQ(make_standard_library().size(), std::size(expected) - 1);
  for (std::size_t i = 0; i < extended.size(); ++i) {
    const Template& t = extended[i];
    EXPECT_EQ(t.name, expected[i].name) << i;
    EXPECT_EQ(t.threat, expected[i].threat) << t.name;
    EXPECT_EQ(t.arch, expected[i].arch) << t.name;
    EXPECT_EQ(t.note, expected[i].note) << t.name;
    EXPECT_EQ(&builtin_template(t.name), &builtin_template(expected[i].name));
    EXPECT_EQ(builtin_template(t.name).name, t.name);
  }
  EXPECT_THROW((void)builtin_template("no-such-template"), std::out_of_range);
}

std::vector<Template> parse_file(const std::string& relative) {
  std::ifstream in(std::string(SENIDS_SOURCE_DIR) + "/" + relative, std::ios::binary);
  EXPECT_TRUE(in.good()) << relative << " missing";
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = parse_templates(buf.str());
  if (auto* err = std::get_if<ParseError>(&parsed)) {
    ADD_FAILURE() << relative << " line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<std::vector<Template>>(parsed);
}

TEST(BuiltinTemplates, EmbeddedTextIsTheCheckedInFiles) {
  // The build re-embeds the files whenever they change; a stale embed
  // would make the built-in library differ from the files on disk.
  std::vector<Template> files = parse_file("templates/standard.tmpl");
  EXPECT_EQ(digest_hex(files), digest_hex(make_standard_library()));
  for (Template& t : parse_file("templates/extended.tmpl")) files.push_back(std::move(t));
  const std::vector<Template> extended = make_extended_library();
  EXPECT_EQ(digest_hex(files), digest_hex(extended));
  ASSERT_EQ(files.size(), extended.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(files[i].note, extended[i].note) << files[i].name;
    EXPECT_EQ(files[i].arch, extended[i].arch) << files[i].name;
  }
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

TEST(Dsl, NoteStatementSetsNote) {
  auto templates = parse_ok2(
      "template t : shell-spawn {\n  note \"Figure 6 (stack-built path)\"\n  syscall 0x0b\n}");
  ASSERT_EQ(templates.size(), 1u);
  EXPECT_EQ(templates[0].note, "Figure 6 (stack-built path)");
  ASSERT_EQ(templates[0].stmts.size(), 1u);  // a note is not a statement to match
  EXPECT_EQ(templates[0].stmts[0].kind, Stmt::Kind::kSyscall);
}

TEST(Dsl, NoteNeedsAStringAndAStatement) {
  auto result = parse_templates("template t { note 42 syscall 0x0b }");
  auto* err = std::get_if<ParseError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->message, "note expects a string");
  result = parse_templates("template t { note \"only a note\" }");
  err = std::get_if<ParseError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->message.find("has no statements"), std::string::npos) << err->message;
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
