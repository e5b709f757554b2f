// Per-thread work attribution for the pipeline's long-running loops:
// the engine's threads running stage (a) for a shard and analyzing
// units, and live sessions fed from a capture thread. Each loop
// owns one WorkerSlot and splits its wall time into *busy* (doing
// pipeline work) and *idle* (blocked on a queue or waiting for input),
// stamping a heartbeat every iteration — which is exactly what a live
// operator needs to answer "is worker 3 stalled or merely idle" and
// "where did the worker wall time go". The telemetry server surfaces
// the table on /statusz and derives readiness from the heartbeats.
//
// Slots are found-or-created by (kind, index) and live for the process
// lifetime, so repeated captures accumulate into the same slots the way
// the metric registry accumulates counters. All mutation is relaxed
// atomics on a slot owned by one thread at a time; the metrics kill
// switch (obs::set_metrics_enabled) silences the per-unit busy, idle,
// unit and heartbeat updates.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace senids::obs {

/// One attribution slot, owned by one pipeline thread at a time.
class WorkerSlot {
 public:
  /// Mark the owning loop running: bumps the active count and stamps the
  /// run start + a heartbeat. Balanced by end_run().
  void begin_run() noexcept;
  void end_run() noexcept;

  void add_busy(double seconds) noexcept { add_ns(busy_ns_, seconds); }
  void add_idle(double seconds) noexcept { add_ns(idle_ns_, seconds); }
  void add_units(std::uint64_t n = 1) noexcept {
    if (metrics_enabled()) units_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Stamp "this loop is making progress". Cheap enough per iteration.
  void heartbeat() noexcept;

  struct Snapshot {
    std::string kind;
    std::size_t index = 0;
    bool active = false;
    double busy_seconds = 0.0;
    double idle_seconds = 0.0;
    std::uint64_t units = 0;
    /// Wall seconds since the last heartbeat, measured at snapshot time.
    /// Negative when the slot never heartbeat.
    double seconds_since_heartbeat = -1.0;
    /// Wall of the current run so far (active) or of the last finished
    /// run (inactive). 0 before the first begin_run().
    double run_seconds = 0.0;
  };

 private:
  friend class WorkerTable;
  WorkerSlot() = default;

  void add_ns(std::atomic<std::uint64_t>& field, double seconds) noexcept {
    if (!metrics_enabled() || seconds <= 0) return;
    field.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                    std::memory_order_relaxed);
  }

  std::string kind_;
  std::size_t index_ = 0;
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> idle_ns_{0};
  std::atomic<std::uint64_t> units_{0};
  std::atomic<std::uint64_t> heartbeat_ns_{0};  // since table epoch; 0 = never
  std::atomic<std::uint64_t> run_start_ns_{0};
  std::atomic<std::uint64_t> run_end_ns_{0};
  std::atomic<std::int64_t> active_{0};  // count: slots survive engine reuse
};

/// Process-wide slot registry, mirroring the metric Registry's
/// find-or-create contract: look the slot up once per run, keep the
/// reference (registration takes a lock, mutation never does).
class WorkerTable {
 public:
  static WorkerTable& instance();

  /// Find-or-create the slot for (kind, index). `kind` is a short stable
  /// family name: "worker" (process_capture's threads), "session"
  /// (LiveSession feeds).
  WorkerSlot& slot(std::string_view kind, std::size_t index);

  /// Claim the lowest-index slot of `kind` that no other claimant holds
  /// (found or created), until release(). For owners that come and go
  /// without a fixed index, like live sessions: the table then holds one
  /// slot per owner alive at once, not one per owner ever made.
  WorkerSlot& claim(std::string_view kind);
  /// Give back a slot returned by claim().
  void release(WorkerSlot& slot);

  /// Point-in-time view of every slot, ordered by (kind, index).
  [[nodiscard]] std::vector<WorkerSlot::Snapshot> snapshot() const;

  /// Nanoseconds since the table epoch (process start, effectively).
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Zero every slot (handles stay valid). Tests / per-run deltas only.
  void reset();

 private:
  WorkerTable();
  struct Impl;
  Impl* impl_;
};

}  // namespace senids::obs
