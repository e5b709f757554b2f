#include "semantic/library.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "semantic/builtin_templates.hpp"  // generated from templates/*.tmpl
#include "semantic/dsl.hpp"

namespace senids::semantic {

namespace {

/// Parse one embedded file. The text was checked in with the source, so
/// a parse error is a defect of the build, not of any input.
std::vector<Template> parse_builtin(std::string_view text, std::string_view file) {
  auto parsed = parse_templates(text);
  if (const auto* err = std::get_if<ParseError>(&parsed)) {
    throw std::logic_error("templates/" + std::string(file) + " line " +
                           std::to_string(err->line) + ": " + err->message);
  }
  return std::get<std::vector<Template>>(std::move(parsed));
}

/// Both shipped files, parsed once per process: standard.tmpl's
/// templates, then extended.tmpl's.
struct Builtins {
  std::vector<Template> standard;
  std::vector<Template> extended;
};

const Builtins& builtins() {
  static const Builtins b = [] {
    Builtins out;
    out.standard = parse_builtin(kStandardTemplates, "standard.tmpl");
    out.extended = out.standard;
    for (Template& t : parse_builtin(kExtendedTemplates, "extended.tmpl")) {
      out.extended.push_back(std::move(t));
    }
    return out;
  }();
  return b;
}

}  // namespace

const Template& builtin_template(std::string_view name) {
  const std::vector<Template>& all = builtins().extended;
  const auto it = std::find_if(all.begin(), all.end(),
                               [name](const Template& t) { return t.name == name; });
  if (it == all.end()) {
    throw std::out_of_range("no built-in template named '" + std::string(name) + "'");
  }
  return *it;
}

std::vector<Template> make_xor_only_library() {
  return {builtin_template("xor-decrypt-loop")};
}

std::vector<Template> make_decoder_library() {
  return {builtin_template("xor-decrypt-loop"), builtin_template("add-decrypt-loop"),
          builtin_template("admmutate-alt-decoder")};
}

std::vector<Template> make_standard_library() { return builtins().standard; }

std::vector<Template> make_extended_library() { return builtins().extended; }

}  // namespace senids::semantic
