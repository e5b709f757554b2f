// Per-layer traced run (--trace 1): the benchmark composes the pipeline
// from each layer's public calls, records a span around every call, and
// derives per-layer costs from the spans plus the program's own counts.
#pragma once

#include <string>

#include "workload.hpp"

namespace perfbench {

/// Fixed-input host-speed probe: a hash loop of the benchmark's own over
/// a constant buffer, in ns per byte. Tells a slow host from a slow change.
double host_ref_ns_per_byte();

/// The traced run; prints the result line and returns the exit code.
int run_traced(const Workload& w, double seconds, const std::string& trace_out);

}  // namespace perfbench
