// Pass 2: template/DSL linting. Statically checks a behavioral template
// set — whether parsed from templates/*.tmpl or built programmatically —
// for the defect classes that silently become false negatives:
//
//  - undefined variables: `advance X` where no earlier statement binds X
//    (the matcher would simply never satisfy the statement);
//  - too many variables: more distinct ones than the matcher's binding
//    slots (semantic::kMaxTemplateVars), which it refuses to compile;
//  - unsatisfiable clauses: constraints no decodable instruction sequence
//    can meet — store widths the ISA cannot produce, fixed constants
//    wider than the store carrying them, and invertibility demanded of a
//    value that provably contains no load of the decoded byte (a
//    constant function is never a bijection on [0,255]);
//  - malformed patterns: missing children, transforms with an empty
//    operator alphabet;
//  - shadowed/duplicate templates: duplicate names, structurally
//    identical statement lists (alpha-renamed variables compare equal),
//    and templates whose statement list is a strict prefix of another's
//    (the general one fires whenever the specific one would);
//  - degenerate shapes worth a warning: a loop-back with no body
//    statements before it, and an anchor word (semantic::template_anchors)
//    that is empty or only "register write", which makes the analyzer
//    try the template on every lifted trace.
//
// Exposed as the senids_lint CLI and run over templates/ in CI.
#pragma once

#include <vector>

#include "semantic/template.hpp"
#include "verify/verify.hpp"

namespace senids::verify {

/// Lint one template set (intra-template checks plus cross-template
/// duplicate/shadow analysis).
Report lint_templates(const std::vector<semantic::Template>& templates);

/// Lint a single template (no cross-template checks).
Report lint_template(const semantic::Template& t);

}  // namespace senids::verify
