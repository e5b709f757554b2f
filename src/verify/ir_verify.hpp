// Pass 1: IR well-formedness. Checks one lifted unit against the
// invariants the matcher silently assumes:
//
//  - operand arity/type consistency per Expr kind (kBin has two children,
//    kUn exactly one, kLoad an address and an 8/16/32-bit width, enum
//    fields in range, cached hashes consistent with the tree);
//  - def-before-use over memory versions: a load may only reference a
//    memory generation that existed when its event was emitted (the
//    symbolic analogue of def-before-use on virtual registers — register
//    reads always resolve to init values or earlier writes by
//    construction, memory generations are where ordering can break);
//  - no dangling event references: every event's insn_index/insn_offset
//    must point at the originating trace instruction, events must be
//    emitted in trace order, and per-kind payloads must be present
//    (non-null values, all sixteen syscall registers, backward branches
//    carrying a target at or before the branch);
//  - arena ownership: every node the events reach lies in the
//    LiftResult's own arena, and every child was allocated before its
//    parent;
//  - deadcode-pass idempotence: removing the instructions find_dead_code
//    marks dead and re-running it must find nothing new.
//
// Runs standalone (tests, tools) and as the debug-mode post-lift hook
// NidsEngine installs (see SemanticAnalyzer::Options::post_lift_hook).
#pragma once

#include <vector>

#include "ir/lifter.hpp"
#include "verify/verify.hpp"
#include "arch/insn.hpp"

namespace senids::verify {

/// Verify one lifted unit. `trace` must be the instruction trace `lifted`
/// was produced from.
Report verify_ir(const std::vector<arch::Instruction>& trace, const ir::LiftResult& lifted);

/// Expression-tree well-formedness only (exposed for targeted tests).
/// `where` labels diagnostics; shared subtrees are visited once.
void verify_expr(ir::ExprPtr e, const std::string& where, Report& out);

}  // namespace senids::verify
