// Symbolic executor: runs a decoded execution-order trace over the
// expression domain and emits the event stream. One pass through the
// trace corresponds to one unrolling of any loop; that is sufficient
// because the templates describe per-iteration behaviour plus the
// loop-back edge.
#pragma once

#include <vector>

#include "ir/event.hpp"
#include "arch/defuse.hpp"

namespace senids::ir {

/// One lifted trace. `arena` owns every node that `events` reach, so
/// the events (and any match bindings taken from them) stay valid until
/// the next lift into this result; moving the result keeps them valid.
struct LiftResult {
  std::vector<Event> events;
  ExprArena arena;
  /// Instructions whose semantics the lifter models only through def/use
  /// clobbers (diagnostic counter; high ratios indicate data, not code).
  std::size_t approximated = 0;
};

/// Lift `trace` (from arch::Arch::execution_trace or linear_sweep) into `out`,
/// releasing whatever `out` held. The event buffer and the arena's
/// chunks are reused, so a worker lifting thousands of traces into one
/// result allocates only when it passes its high-water mark.
void lift(const std::vector<arch::Instruction>& trace, LiftResult& out);

}  // namespace senids::ir
