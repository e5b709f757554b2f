// Bounded multi-producer/multi-consumer queue. Backpressure container
// for deployments that decouple a capture thread from analysis sessions:
// producers block (or fail, with try_push) when the queue is full, so a
// traffic burst cannot exhaust memory.
//
// Items can carry an optional *weight* (typically their payload size in
// bytes). When the queue is constructed with a weight budget, producers
// also block while the queued weight would exceed the budget — the item
// count bounds queue management overhead, the weight budget bounds actual
// memory. An over-budget item is still admitted into an empty queue so a
// single oversized unit can never deadlock the pipeline.
//
// Locking: everything mutable is GUARDED_BY(mu_) — the annotations are
// compiler-enforced under Clang (see util/sync.hpp). Condition-variable
// waits are written as explicit predicate loops so the thread-safety
// analysis sees every guarded access inside the locked scope.
#pragma once

#include <chrono>
#include <deque>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "util/sync.hpp"

namespace senids::util {

/// Optional observability hooks for a BoundedQueue. All pointers must
/// outlive the queue; any may be null. Depth/bytes gauges track the
/// queue contents, the backpressure pair records every producer push
/// that had to block and for how long.
struct QueueMetrics {
  obs::Gauge* depth = nullptr;
  obs::Gauge* depth_peak = nullptr;  // high watermark (Gauge::set_max)
  obs::Gauge* bytes = nullptr;
  obs::Counter* pushed = nullptr;
  obs::Counter* backpressure_waits = nullptr;
  obs::Histogram* backpressure_wait_seconds = nullptr;
};

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` bounds the item count; `max_weight` (0 = unlimited)
  /// bounds the summed weights of queued items.
  explicit BoundedQueue(std::size_t capacity, std::size_t max_weight = 0)
      : capacity_(capacity ? capacity : 1), max_weight_(max_weight) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Attach observability hooks (call before producers/consumers start;
  /// `metrics` must outlive the queue). Nullptr detaches.
  void set_metrics(const QueueMetrics* metrics) noexcept {
    MutexLock lock(mu_);
    metrics_ = metrics;
  }

  /// Blocking push; returns false if the queue was closed.
  bool push(T value, std::size_t weight = 0) {
    {
      MutexLock lock(mu_);
      if (metrics_ && !closed_ && !admits(weight)) {
        // The producer is about to block: that is the backpressure signal
        // operators watch, so record the event and how long it lasted.
        if (metrics_->backpressure_waits) metrics_->backpressure_waits->add();
        const auto wait_start = std::chrono::steady_clock::now();
        while (!admits(weight) && !closed_) not_full_.wait(mu_);
        if (metrics_->backpressure_wait_seconds) {
          metrics_->backpressure_wait_seconds->observe(
              std::chrono::duration<double>(std::chrono::steady_clock::now() - wait_start)
                  .count());
        }
      } else {
        while (!admits(weight) && !closed_) not_full_.wait(mu_);
      }
      if (closed_) return false;
      weight_ += weight;
      items_.emplace_back(std::move(value), weight);
      if (metrics_ && metrics_->pushed) metrics_->pushed->add();
      publish_gauges();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full, over budget, or closed.
  bool try_push(T value, std::size_t weight = 0) {
    {
      MutexLock lock(mu_);
      if (closed_ || !admits(weight)) return false;
      weight_ += weight;
      items_.emplace_back(std::move(value), weight);
      if (metrics_ && metrics_->pushed) metrics_->pushed->add();
      publish_gauges();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; nullopt once the queue is closed *and* drained.
  std::optional<T> pop() {
    std::optional<T> value;
    {
      MutexLock lock(mu_);
      while (items_.empty() && !closed_) not_empty_.wait(mu_);
      if (items_.empty()) return std::nullopt;  // closed and drained
      value = std::move(items_.front().first);
      weight_ -= items_.front().second;
      items_.pop_front();
      publish_gauges();
    }
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking pop; nullopt when empty.
  std::optional<T> try_pop() {
    std::optional<T> out;
    {
      MutexLock lock(mu_);
      if (items_.empty()) return std::nullopt;
      out = std::move(items_.front().first);
      weight_ -= items_.front().second;
      items_.pop_front();
      publish_gauges();
    }
    not_full_.notify_one();
    return out;
  }

  /// Close: producers fail from now on; consumers drain what remains.
  void close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }
  /// Summed weights of the items currently queued.
  [[nodiscard]] std::size_t weight() const {
    MutexLock lock(mu_);
    return weight_;
  }
  [[nodiscard]] bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

 private:
  void publish_gauges() const REQUIRES(mu_) {
    if (!metrics_) return;
    if (metrics_->depth) metrics_->depth->set(static_cast<std::int64_t>(items_.size()));
    if (metrics_->depth_peak) {
      metrics_->depth_peak->set_max(static_cast<std::int64_t>(items_.size()));
    }
    if (metrics_->bytes) metrics_->bytes->set(static_cast<std::int64_t>(weight_));
  }

  /// Empty-queue admission keeps oversized items live.
  [[nodiscard]] bool admits(std::size_t weight) const REQUIRES(mu_) {
    if (items_.size() >= capacity_) return false;
    if (max_weight_ == 0 || items_.empty()) return true;
    return weight_ + weight <= max_weight_;
  }

  const std::size_t capacity_;
  const std::size_t max_weight_;
  mutable Mutex mu_{"BoundedQueue"};
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<std::pair<T, std::size_t>> items_ GUARDED_BY(mu_);
  std::size_t weight_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
  const QueueMetrics* metrics_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace senids::util
