// Unit flight recorder: per-worker lock-free ring buffers holding the
// last N analysis units each thread completed — source, payload size,
// frame/alert counts, per-stage (b)-(e) timings, and the verdict-cache
// disposition — plus a shared retained buffer that tail-latency
// *outliers* are promoted into, so "which unit just took 40 ms" still
// has an answer after ten thousand benign units have rolled the main
// rings over. The telemetry server dumps both on /tracez.
//
// Concurrency: each ring has exactly one writer (bound thread_local,
// like the tracer's span buffers) and any number of scraping readers.
// Records are packed into per-slot atomic words behind a seqlock
// sequence plus a fold checksum; readers that race a writer simply drop
// the torn slot. The slow buffer is multi-writer: slots are claimed
// with a fetch_add cursor and written under the same seqlock+checksum
// discipline. No mutex is ever taken on the record path.
//
// The slow threshold is rolling: it re-seeds every 256 records from the
// live senids_unit_seconds histogram (multiplier x p95, floored), so
// "slow" tracks the deployment's own latency distribution instead of a
// hard-coded constant.
//
// Disabled by default (configure(0) state); recording is additionally
// behind the metrics kill switch (obs::set_metrics_enabled).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace senids::obs {

/// How the verdict cache handled a unit.
enum class CacheDisposition : std::uint8_t {
  kNone = 0,  // cache disabled
  kHit,
  kMiss,
  kBypass,  // over cache_max_unit_bytes
};

[[nodiscard]] std::string_view cache_disposition_name(CacheDisposition d) noexcept;

/// One completed analysis unit as the recorder remembers it. Stage
/// timings are microseconds, saturated at ~71 minutes (u32).
struct UnitRecord {
  std::uint64_t unit_id = 0;   // tracer correlation id (0 = unlabelled)
  std::uint64_t ts_us = 0;     // completion time, µs since recorder epoch
  std::uint32_t src = 0;       // IPv4 source address of the unit
  std::uint32_t payload_bytes = 0;
  std::uint32_t frames = 0;    // binary frames extracted
  std::uint32_t alerts = 0;
  std::uint32_t worker = 0;    // ring index (assigned on record)
  CacheDisposition cache = CacheDisposition::kNone;
  std::uint32_t extract_us = 0;
  std::uint32_t disasm_us = 0;
  std::uint32_t lift_us = 0;
  std::uint32_t match_us = 0;
  std::uint32_t emulate_us = 0;
  std::uint32_t total_us = 0;  // whole-unit wall (stages (b)-(e))
};

class FlightRecorder {
 public:
  struct Options {
    std::size_t slots = 0;       // per-worker ring entries; 0 disables
    std::size_t slow_slots = 64; // retained slow-unit buffer entries
    /// Floor of the rolling slow threshold: a unit is never promoted for
    /// being faster than this, however tight the p95 gets.
    double slow_floor_seconds = 250e-6;
    /// Rolling threshold = max(floor, multiplier x p95(senids_unit_seconds)).
    double slow_multiplier = 8.0;
  };

  static FlightRecorder& instance();

  /// Reconfigure (drops all held records). configure({.slots = 0})
  /// disables recording entirely.
  void configure(const Options& options);
  [[nodiscard]] static bool enabled() noexcept;
  [[nodiscard]] Options options() const;

  /// Append one completed unit to the calling thread's ring; promotes it
  /// into the slow buffer when total_us exceeds the rolling threshold.
  /// No-op while disabled (either kill switch, or slots == 0).
  void record(const UnitRecord& rec) noexcept;

  /// Current promotion threshold in seconds.
  [[nodiscard]] double slow_threshold_seconds() const noexcept;
  /// Re-seed the rolling threshold from the unit-latency histogram now
  /// (record() does this automatically every 256 records per ring).
  void refresh_slow_threshold() noexcept;

  /// Every readable record across all rings, oldest-first within each
  /// ring, ring-major. Torn slots (scraped mid-write) are skipped.
  [[nodiscard]] std::vector<UnitRecord> recent() const;

  /// The retained slow-unit records, oldest first. `clear` empties the
  /// buffer after reading (scrape-and-ack).
  [[nodiscard]] std::vector<UnitRecord> slow(bool clear = false);

  /// JSON for /tracez: threshold, recent rings, and the slow buffer.
  [[nodiscard]] std::string json() const;

  /// Drop every record, keep the configuration.
  void reset();

 private:
  FlightRecorder();
  struct Impl;
  Impl* impl_;
};

}  // namespace senids::obs
