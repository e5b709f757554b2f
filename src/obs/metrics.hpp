// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms with quantile summaries, exportable as Prometheus
// text exposition or JSON.
//
// Hot-path design: counters and histograms are sharded into cache-line-
// padded atomic cells indexed by a per-thread slot, so concurrent
// increments from the engine's analysis threads never contend on one line;
// reads aggregate across shards (monotonic but not a point-in-time
// snapshot, which is all scrape-style consumers need). Handles returned
// by the registry are stable for the process lifetime — look them up
// once, keep the reference.
//
// One kill switch: `set_metrics_enabled(false)` turns every mutation
// into a single relaxed load + branch. Export/registration stay available
// either way so callers need no conditional code.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace senids::obs {

/// Runtime kill switch shared by every metric. On by default: a sharded
/// relaxed increment is a handful of nanoseconds.
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool enabled) noexcept;

namespace detail {
/// Slot index for the calling thread, stable for the thread's lifetime.
[[nodiscard]] std::size_t thread_shard() noexcept;

inline constexpr std::size_t kShards = 16;  // power of two

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

/// Monotonic counter. add() is wait-free and contention-free across
/// threads that land on different shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    shards_[detail::thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedU64, detail::kShards> shards_;
};

/// Instantaneous value (queue depth, live flows). Set/add from any
/// thread; one atomic cell is enough because gauges are updated at unit
/// granularity, not per byte.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) noexcept { add(-n); }

  /// Raise the gauge to `v` if it is below it (high-watermark semantics,
  /// e.g. peak queue depth). CAS loop; contention is bounded because the
  /// maximum only ratchets upward.
  void set_max(std::int64_t v) noexcept {
    if (!metrics_enabled()) return;
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram over seconds. Bucket upper bounds are
/// geometric, 1 µs · 2^k up to ~16.8 s, plus +Inf — wide enough for a
/// per-packet classify tick and a whole-capture emulation stage alike.
/// Per-shard bucket counts keep observe() contention-free; quantiles are
/// estimated from the aggregated buckets by linear interpolation inside
/// the bucket holding the rank (standard Prometheus-style estimation:
/// exact count, bounded value error).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 25;  // finite bounds; +Inf implicit

  /// Upper bound (seconds) of finite bucket `i`: 1e-6 * 2^i.
  [[nodiscard]] static double bucket_bound(std::size_t i) noexcept;

  void observe(double seconds) noexcept {
    if (!metrics_enabled()) return;
    Shard& s = shards_[detail::thread_shard()];
    s.buckets[bucket_index(seconds)].fetch_add(1, std::memory_order_relaxed);
    const double ns = seconds * 1e9;
    s.sum_ns.fetch_add(ns > 0 ? static_cast<std::uint64_t>(ns) : 0,
                       std::memory_order_relaxed);
  }

  struct Snapshot {
    std::array<std::uint64_t, kBuckets + 1> buckets{};  // last = +Inf overflow
    std::uint64_t count = 0;
    double sum_seconds = 0.0;

    /// Quantile estimate, q in [0,1]. 0 when the histogram is empty.
    [[nodiscard]] double quantile(double q) const noexcept;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return snapshot().count; }

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets + 1> buckets{};
    std::atomic<std::uint64_t> sum_ns{0};
  };

  [[nodiscard]] static std::size_t bucket_index(double seconds) noexcept;

  std::array<Shard, detail::kShards> shards_;
};

/// One registered metric as seen by the exporters.
struct MetricView {
  std::string_view family;  // e.g. "senids_stage_seconds"
  std::string_view labels;  // e.g. "stage=\"extract\"" ("" = none)
  std::string_view help;
  const Counter* counter = nullptr;      // exactly one of the three is set
  const Gauge* gauge = nullptr;
  const Histogram* histogram = nullptr;
};

/// Name → metric map. Registration is find-or-create keyed on
/// (family, labels): two call sites asking for the same name share the
/// handle, which is what lets e.g. every engine instance feed one set of
/// process-wide pipeline metrics. Registration takes a lock; it is meant
/// for startup / first-use, with the handle cached by the caller.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view family, std::string_view help = "",
                   std::string_view label_key = "", std::string_view label_value = "");
  Gauge& gauge(std::string_view family, std::string_view help = "",
               std::string_view label_key = "", std::string_view label_value = "");
  Histogram& histogram(std::string_view family, std::string_view help = "",
                       std::string_view label_key = "", std::string_view label_value = "");

  /// Stable views over every registered metric, sorted by (family, labels).
  [[nodiscard]] std::vector<MetricView> metrics() const;

  /// Prometheus text exposition format (one HELP/TYPE per family).
  [[nodiscard]] std::string prometheus_text() const;

  /// JSON array; histograms carry count/sum/p50/p95/p99 plus raw buckets.
  [[nodiscard]] std::string json() const;

  /// Zero every registered metric (handles stay valid). For tests and
  /// per-run deltas; not meant for the hot path.
  void reset_values();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace senids::obs
