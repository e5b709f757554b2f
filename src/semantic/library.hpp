// Built-in template library reproducing the paper's template set. The
// shipped DSL files are its only definition: templates/standard.tmpl and
// templates/extended.tmpl are embedded into this library at build time
// and parsed once per process.
//
// standard.tmpl:
//  - xor decryption loop        (Figures 1/2, Table 2 "xor template")
//  - additive decryption loop   (equivalent-instruction variant)
//  - ADMmutate alternate decoder: mov/or/and/not over one memory
//    location and register pair (Figure 7, the template that lifts
//    ADMmutate detection from 68% to 100%)
//  - Linux shell spawning, immediate and port-bound (Figure 6, Table 1)
//  - connect-back shell, and x86-64 forms of the shell templates
//  - Code Red II exploitation vector (Table 3)
// extended.tmpl:
//  - rotate decryption loop     (extension beyond the paper's set)
#pragma once

#include <string_view>
#include <vector>

#include "semantic/template.hpp"

namespace senids::semantic {

/// The xor template alone — the configuration that yielded the paper's
/// initial 68% ADMmutate detection rate (Section 5.2).
std::vector<Template> make_xor_only_library();

/// Decryption-loop templates only (xor + additive + alternate).
std::vector<Template> make_decoder_library();

/// The full standard library used by the NIDS in every experiment:
/// templates/standard.tmpl, in file order.
std::vector<Template> make_standard_library();

/// Standard library plus the opt-in extension templates of
/// templates/extended.tmpl (currently the rotate-decoder). The rotate
/// template is deliberately NOT in the standard set: rotation is the one
/// invertible byte transform that coincidental code-shaped data produces
/// at measurable rates, and the paper's zero-false-positive result
/// depends on "high quality templates" — template selection is a
/// precision decision.
std::vector<Template> make_extended_library();

/// The built-in template named `name` (any template of the extended
/// library), for tests and ablations. Throws std::out_of_range when no
/// built-in template has that name.
const Template& builtin_template(std::string_view name);

}  // namespace senids::semantic
