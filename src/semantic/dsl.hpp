// Text format for authoring templates, so analysts can add detections
// without recompiling (the paper's "we intend to classify more exploit
// behaviors so that we can generate additional useful templates").
//
//   # decryption loop over any pointer register, any nonzero key
//   template xor-decrypt : decryption-loop {
//     store *A = xor(load(*A), K)
//     advance A
//     loopback
//   }
//
//   template bind-shell : port-bind-shell {
//     syscall 0x66 sub 1
//     syscall 0x66 sub 2
//     syscall 0x66 sub 4
//   }
//
// Expression patterns:
//   *            any expression              *A    any, bound to A
//   K            constant (nonzero), bound   0x2f  this exact constant
//   load(p)      memory load at address p
//   xor(p, q)    binary op: add sub xor or and shl shr sar rol ror mul
//   not(p) neg(p)
//   transform(p; or, and, not)   any tree of the listed ops over p+consts
//
// Statements:
//   store [byte|word|dword] ADDR = VALUE
//   decode ADDR = VALUE        byte-wide store whose value must be an
//                              invertible function of the loaded byte
//                              (the hardened decoder-loop form)
//   regwrite VALUE | advance VAR | loopback
//   syscall N [sub N] [path "S"]
//   syscall64 N [sub N] [path "S"]   the same, x86-64 `syscall` instruction
//   note "TEXT"                free text shown with the template's alerts
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "semantic/template.hpp"

namespace senids::semantic {

struct ParseError {
  std::size_t line = 0;
  std::string message;
};

/// Parse a DSL document containing zero or more templates.
std::variant<std::vector<Template>, ParseError> parse_templates(std::string_view text);

}  // namespace senids::semantic
