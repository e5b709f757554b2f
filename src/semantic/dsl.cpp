#include "semantic/dsl.hpp"

#include <algorithm>
#include <cctype>

#include "arch/arch.hpp"
#include <functional>
#include <optional>

namespace senids::semantic {

namespace {

struct Token {
  enum class Kind {
    kIdent, kNumber, kString, kStar,
    kLParen, kRParen, kLBrace, kRBrace,
    kComma, kSemi, kColon, kEquals, kEnd
  };
  Kind kind{};
  std::string text;
  std::uint32_t number = 0;
  std::size_t line = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_ws_and_comments();
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) {
      t.kind = Token::Kind::kEnd;
      return t;
    }
    const char c = text_[pos_];
    switch (c) {
      case '(': ++pos_; t.kind = Token::Kind::kLParen; return t;
      case ')': ++pos_; t.kind = Token::Kind::kRParen; return t;
      case '{': ++pos_; t.kind = Token::Kind::kLBrace; return t;
      case '}': ++pos_; t.kind = Token::Kind::kRBrace; return t;
      case ',': ++pos_; t.kind = Token::Kind::kComma; return t;
      case ';': ++pos_; t.kind = Token::Kind::kSemi; return t;
      case ':': ++pos_; t.kind = Token::Kind::kColon; return t;
      case '=': ++pos_; t.kind = Token::Kind::kEquals; return t;
      case '*': ++pos_; t.kind = Token::Kind::kStar; return t;
      case '"': {
        ++pos_;
        t.kind = Token::Kind::kString;
        while (pos_ < text_.size() && text_[pos_] != '"') {
          t.text.push_back(text_[pos_++]);
        }
        if (pos_ < text_.size()) ++pos_;  // closing quote
        return t;
      }
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      t.kind = Token::Kind::kNumber;
      std::size_t start = pos_;
      int base = 10;
      if (c == '0' && pos_ + 1 < text_.size() &&
          (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
        base = 16;
        pos_ += 2;
        start = pos_;
      }
      std::uint64_t v = 0;
      while (pos_ < text_.size() &&
             std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        const char d = text_[pos_];
        const int dv = d <= '9' ? d - '0' : (std::tolower(d) - 'a' + 10);
        if (base == 10 && dv >= 10) break;
        v = v * static_cast<unsigned>(base) + static_cast<unsigned>(dv);
        ++pos_;
      }
      t.text = std::string(text_.substr(start, pos_ - start));
      t.number = static_cast<std::uint32_t>(v);
      return t;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '-') {
      t.kind = Token::Kind::kIdent;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '-')) {
        t.text.push_back(text_[pos_++]);
      }
      return t;
    }
    // Unknown character: return it as an ident so the parser reports it.
    t.kind = Token::Kind::kIdent;
    t.text.push_back(c);
    ++pos_;
    return t;
  }

 private:
  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) { advance(); }

  std::variant<std::vector<Template>, ParseError> parse() {
    std::vector<Template> out;
    while (cur_.kind != Token::Kind::kEnd) {
      auto t = parse_template();
      if (!t) return error_;
      out.push_back(std::move(*t));
    }
    return out;
  }

 private:
  void advance() { cur_ = lexer_.next(); }

  bool fail(std::string message) {
    error_ = ParseError{cur_.line, std::move(message)};
    return false;
  }

  bool expect(Token::Kind kind, const char* what) {
    if (cur_.kind != kind) return fail(std::string("expected ") + what);
    advance();
    return true;
  }

  static std::optional<ir::BinOp> binop_by_name(std::string_view s) {
    using ir::BinOp;
    if (s == "add") return BinOp::kAdd;
    if (s == "sub") return BinOp::kSub;
    if (s == "xor") return BinOp::kXor;
    if (s == "or") return BinOp::kOr;
    if (s == "and") return BinOp::kAnd;
    if (s == "shl") return BinOp::kShl;
    if (s == "shr") return BinOp::kShr;
    if (s == "sar") return BinOp::kSar;
    if (s == "rol") return BinOp::kRol;
    if (s == "ror") return BinOp::kRor;
    if (s == "mul") return BinOp::kMul;
    return std::nullopt;
  }

  static std::optional<ThreatClass> threat_by_name(std::string_view s) {
    if (s == "decryption-loop") return ThreatClass::kDecryptionLoop;
    if (s == "shell-spawn") return ThreatClass::kShellSpawn;
    if (s == "port-bind-shell") return ThreatClass::kPortBindShell;
    if (s == "reverse-shell") return ThreatClass::kReverseShell;
    if (s == "code-red-ii") return ThreatClass::kCodeRedII;
    if (s == "custom") return ThreatClass::kCustom;
    return std::nullopt;
  }

  /// Pattern := '*' [Ident] | UpperIdent | Number | load(p) | not(p) |
  ///            neg(p) | <binop>(p, p) | transform(p ; op[, op...])
  PatPtr parse_pattern() {
    if (cur_.kind == Token::Kind::kStar) {
      advance();
      std::string var;
      if (cur_.kind == Token::Kind::kIdent && is_var_name(cur_.text)) {
        var = cur_.text;
        advance();
      }
      return p_any(std::move(var));
    }
    if (cur_.kind == Token::Kind::kNumber) {
      auto p = p_fixed(cur_.number);
      advance();
      return p;
    }
    if (cur_.kind != Token::Kind::kIdent) {
      fail("expected pattern");
      return nullptr;
    }
    const std::string name = cur_.text;
    advance();

    if (name == "load") {
      if (!expect(Token::Kind::kLParen, "'('")) return nullptr;
      PatPtr addr = parse_pattern();
      if (!addr) return nullptr;
      if (!expect(Token::Kind::kRParen, "')'")) return nullptr;
      return p_load(std::move(addr));
    }
    if (name == "not" || name == "neg") {
      if (!expect(Token::Kind::kLParen, "'('")) return nullptr;
      PatPtr sub = parse_pattern();
      if (!sub) return nullptr;
      if (!expect(Token::Kind::kRParen, "')'")) return nullptr;
      return p_un(name == "not" ? ir::UnOp::kNot : ir::UnOp::kNeg, std::move(sub));
    }
    if (name == "transform") {
      if (!expect(Token::Kind::kLParen, "'('")) return nullptr;
      PatPtr base = parse_pattern();
      if (!base) return nullptr;
      if (!expect(Token::Kind::kSemi, "';'")) return nullptr;
      std::vector<ir::BinOp> allowed;
      bool allow_not = false;
      for (;;) {
        if (cur_.kind != Token::Kind::kIdent) {
          fail("expected operator name in transform list");
          return nullptr;
        }
        if (cur_.text == "not") {
          allow_not = true;
        } else if (auto op = binop_by_name(cur_.text)) {
          allowed.push_back(*op);
        } else {
          fail("unknown operator '" + cur_.text + "' in transform list");
          return nullptr;
        }
        advance();
        if (cur_.kind != Token::Kind::kComma) break;
        advance();
      }
      if (!expect(Token::Kind::kRParen, "')'")) return nullptr;
      return p_transform(std::move(base), std::move(allowed), allow_not);
    }
    if (auto op = binop_by_name(name)) {
      if (!expect(Token::Kind::kLParen, "'('")) return nullptr;
      PatPtr a = parse_pattern();
      if (!a) return nullptr;
      if (!expect(Token::Kind::kComma, "','")) return nullptr;
      PatPtr b = parse_pattern();
      if (!b) return nullptr;
      if (!expect(Token::Kind::kRParen, "')'")) return nullptr;
      return p_bin(*op, std::move(a), std::move(b));
    }
    if (is_var_name(name)) {
      return p_const(name);  // bare uppercase identifier: symbolic constant
    }
    fail("unknown pattern '" + name + "'");
    return nullptr;
  }

  static bool is_var_name(std::string_view s) {
    return !s.empty() && std::isupper(static_cast<unsigned char>(s[0]));
  }

  bool parse_stmt(Template& t) {
    if (cur_.kind != Token::Kind::kIdent) return fail("expected statement");
    const std::string kw = cur_.text;
    const std::size_t kw_line = cur_.line;
    advance();

    if (kw == "store" || kw == "decode") {
      // store [byte|word|dword] ADDR = VALUE
      // decode ADDR = VALUE   (byte-wide, invertibility-checked store:
      //                        the hardened decoder-loop form)
      std::uint8_t width = kw == "decode" ? 8 : 0;
      if (kw == "store" && cur_.kind == Token::Kind::kIdent) {
        if (cur_.text == "byte") {
          width = 8;
          advance();
        } else if (cur_.text == "word") {
          width = 16;
          advance();
        } else if (cur_.text == "dword") {
          width = 32;
          advance();
        } else if (cur_.text == "qword") {
          width = 64;
          advance();
        }
      }
      PatPtr addr = parse_pattern();
      if (!addr) return false;
      if (!expect(Token::Kind::kEquals, "'='")) return false;
      PatPtr value = parse_pattern();
      if (!value) return false;
      if (kw == "decode") {
        t.stmts.push_back(st_decode_store(std::move(addr), std::move(value)));
      } else {
        t.stmts.push_back(st_mem_write(std::move(addr), std::move(value), width));
      }
      return true;
    }
    if (kw == "regwrite") {
      PatPtr value = parse_pattern();
      if (!value) return false;
      t.stmts.push_back(st_reg_write(std::move(value)));
      return true;
    }
    if (kw == "advance") {
      if (cur_.kind != Token::Kind::kIdent || !is_var_name(cur_.text)) {
        return fail("advance expects a variable name");
      }
      t.stmts.push_back(st_advance(cur_.text));
      advance();
      return true;
    }
    if (kw == "note") {
      // Free text format_match prints with an alert; matches nothing.
      if (cur_.kind != Token::Kind::kString) return fail("note expects a string");
      t.note = cur_.text;
      advance();
      return true;
    }
    if (kw == "loopback") {
      t.stmts.push_back(st_branch_back());
      return true;
    }
    if (kw == "syscall" || kw == "syscall64") {
      if (cur_.kind != Token::Kind::kNumber) return fail("syscall expects a number");
      // The template matches the low byte of eax/ebx, so a number above
      // 0xff would silently truncate (0x166 matching as 0x66) — reject it.
      if (cur_.number > 0xff) return fail("syscall number must fit in one byte");
      Stmt s = kw == "syscall64" ? st_syscall64(static_cast<std::uint8_t>(cur_.number))
                                 : st_syscall(static_cast<std::uint8_t>(cur_.number));
      advance();
      while (cur_.kind == Token::Kind::kIdent &&
             (cur_.text == "sub" || cur_.text == "path")) {
        const std::string mod = cur_.text;
        advance();
        if (mod == "sub") {
          if (cur_.kind != Token::Kind::kNumber) return fail("sub expects a number");
          if (cur_.number > 0xff) return fail("sub number must fit in one byte");
          s.ebx_low = static_cast<std::uint8_t>(cur_.number);
          advance();
        } else {
          if (cur_.kind != Token::Kind::kString) return fail("path expects a string");
          s.ebx_points_to = cur_.text;
          advance();
        }
      }
      t.stmts.push_back(std::move(s));
      return true;
    }
    error_ = ParseError{kw_line, "unknown statement '" + kw + "'"};
    return false;
  }

  std::optional<Template> parse_template() {
    if (cur_.kind != Token::Kind::kIdent || cur_.text != "template") {
      fail("expected 'template'");
      return std::nullopt;
    }
    advance();
    if (cur_.kind != Token::Kind::kIdent) {
      fail("expected template name");
      return std::nullopt;
    }
    Template t;
    t.name = cur_.text;
    advance();
    if (cur_.kind == Token::Kind::kColon) {
      advance();
      if (cur_.kind != Token::Kind::kIdent) {
        fail("expected threat class after ':'");
        return std::nullopt;
      }
      auto cls = threat_by_name(cur_.text);
      if (!cls) {
        fail("unknown threat class '" + cur_.text + "'");
        return std::nullopt;
      }
      t.threat = *cls;
      advance();
    }
    // Optional architecture tag: `arch: x86_64` (default x86_32).
    if (cur_.kind == Token::Kind::kIdent && cur_.text == "arch") {
      advance();
      if (!expect(Token::Kind::kColon, "':' after 'arch'")) return std::nullopt;
      if (cur_.kind != Token::Kind::kIdent) {
        fail("expected architecture name after 'arch:'");
        return std::nullopt;
      }
      if (arch::Arch::by_name(cur_.text) == nullptr) {
        fail("unknown architecture '" + cur_.text + "'");
        return std::nullopt;
      }
      t.arch = cur_.text;
      advance();
    }
    if (!expect(Token::Kind::kLBrace, "'{'")) return std::nullopt;
    while (cur_.kind != Token::Kind::kRBrace) {
      if (cur_.kind == Token::Kind::kEnd) {
        fail("unexpected end of input inside template body");
        return std::nullopt;
      }
      if (!parse_stmt(t)) return std::nullopt;
    }
    advance();  // '}'
    if (t.stmts.empty()) {
      fail("template '" + t.name + "' has no statements");
      return std::nullopt;
    }
    // Semantic validation: every `advance X` must refer to a variable
    // bound by an earlier statement's pattern, or it can never match.
    std::vector<std::string> bound;
    std::function<void(const PatPtr&)> collect = [&](const PatPtr& p) {
      if (!p) return;
      if (!p->var.empty()) bound.push_back(p->var);
      collect(p->a);
      collect(p->b);
      collect(p->base);
    };
    for (const Stmt& st : t.stmts) {
      if (st.kind == Stmt::Kind::kAdvance) {
        bool found = false;
        for (const auto& name : bound) {
          if (name == st.ref_var) found = true;
        }
        if (!found) {
          fail("advance refers to '" + st.ref_var +
               "', which no earlier statement binds");
          return std::nullopt;
        }
      }
      collect(st.addr);
      collect(st.value);
    }
    std::sort(bound.begin(), bound.end());
    bound.erase(std::unique(bound.begin(), bound.end()), bound.end());
    if (bound.size() > kMaxTemplateVars) {
      fail("template '" + t.name + "' uses " + std::to_string(bound.size()) +
           " distinct variables; a template may use at most " +
           std::to_string(kMaxTemplateVars));
      return std::nullopt;
    }
    return t;
  }

  Lexer lexer_;
  Token cur_;
  ParseError error_;
};

}  // namespace

std::variant<std::vector<Template>, ParseError> parse_templates(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace senids::semantic
