// Untraced end-to-end passes over a workload and the correctness gate.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/alert.hpp"
#include "core/engine.hpp"
#include "workload.hpp"

namespace perfbench {

/// Seconds from an arbitrary steady epoch.
double now_s() noexcept;

/// One construction of a ready engine: NidsEngine with the workload's
/// options, dark prefix registered, one analysis context made.
double time_setup(const Workload& w);

struct BatchPass {
  double seconds = 0;              // pcap::parse + process_capture
  std::size_t heap_peak_bytes = 0; // above the live heap before the pass
  core::Report report;             // alerts sorted by alert_less
};

/// pcap::parse(serialized capture) -> NidsEngine::process_capture on a
/// fresh engine (constructed before the clock starts).
BatchPass batch_pass(const Workload& w);

struct StreamPass {
  /// Per unit-completing feed: index of the record fed, and the wall
  /// time of that LiveSession::feed call.
  std::vector<std::uint32_t> records;
  std::vector<double> seconds;
  std::size_t heap_peak_bytes = 0;
  std::vector<core::Alert> alerts;  // sorted by alert_less
};

/// Feed every record through LiveSession::feed on a fresh engine.
StreamPass stream_pass(const Workload& w);

/// The correctness gate. Holds the reference verdicts (the first batch
/// pass) and classifies every offered flow against ground truth and
/// against every later pass:
///  - missed: a planted attack without an alert of its class;
///  - false positive: a benign flow with any alert;
///  - inconsistent: alerts that differ from the reference in some pass.
/// Alerts on no offered flow are counted once each. Every one of these is
/// a failed flow. The run is correct when nothing was missed, nothing
/// differed between passes and nothing was stray: false positives are a
/// detection-quality rate that the pure static matcher is documented to
/// have on high-entropy data (DESIGN.md, "Optional dynamic
/// confirmation"), so they are counted and printed, not fatal.
class Verifier {
 public:
  Verifier(const Workload& w, std::vector<core::Alert> reference);
  Verifier(const Verifier&) = delete;  // ref_ points into reference_
  Verifier& operator=(const Verifier&) = delete;

  /// Compare one more pass's sorted alerts against the reference.
  void compare(const std::vector<core::Alert>& alerts);

  [[nodiscard]] std::size_t failed() const;
  [[nodiscard]] bool correct() const;
  /// Print the failure counts and up to `max` failed flows.
  void print_failures(std::size_t max) const;

 private:
  static constexpr std::uint8_t kMissed = 1;
  static constexpr std::uint8_t kFalsePositive = 2;
  static constexpr std::uint8_t kInconsistent = 4;

  struct KeyHash {
    std::size_t operator()(const std::pair<std::uint64_t, std::uint32_t>& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.first * 0x9e3779b97f4a7c15ULL ^ k.second);
    }
  };
  /// Alerts grouped by flow index; alerts of no offered flow in `stray`.
  struct ByFlow {
    std::vector<std::vector<const core::Alert*>> flows;
    std::size_t stray = 0;
  };
  [[nodiscard]] ByFlow group(const std::vector<core::Alert>& alerts) const;
  [[nodiscard]] std::size_t count(std::uint8_t kind) const;

  const std::vector<FlowTruth>& flows_;
  std::unordered_map<std::pair<std::uint64_t, std::uint32_t>, std::size_t, KeyHash> index_;
  std::vector<core::Alert> reference_;
  ByFlow ref_;
  std::vector<std::uint8_t> fault_;  // kMissed | kFalsePositive | kInconsistent per flow
  std::size_t stray_ = 0;
};

}  // namespace perfbench
