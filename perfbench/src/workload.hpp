// Benchmark workloads: seeded traffic generators with per-flow ground
// truth. Every input is built here, before any timing starts; the
// program under test only ever sees the serialized capture.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "classify/classifier.hpp"
#include "core/engine.hpp"
#include "pcap/pcap.hpp"
#include "semantic/template.hpp"
#include "util/bytes.hpp"

namespace perfbench {

using namespace senids;

/// One flow offered to the sensor and the verdict it must get.
struct FlowTruth {
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  /// Threat class a planted attack must raise; nullopt = benign flow,
  /// which must raise nothing.
  std::optional<semantic::ThreatClass> expect;
};

struct Workload {
  std::string name;
  core::NidsOptions options;
  /// Registered on every engine after construction (part of set-up).
  classify::Prefix dark;
  util::Bytes wire;          // the serialized capture: the only input passes get
  std::size_t records = 0;   // packets in it
  std::vector<FlowTruth> flows;
};

/// Build the named workload from `seed`. `scale` multiplies every flow
/// count (the self-test runs at a small fraction). nullopt = unknown name.
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                      double scale);

/// A fresh engine configured like the workload's sensor, ready to run:
/// constructed, dark prefix registered. This is what set-up time covers
/// (together with one make_analysis_context()).
core::NidsEngine make_engine(const Workload& w);

}  // namespace perfbench
