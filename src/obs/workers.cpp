#include "obs/workers.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>

#include "util/sync.hpp"

namespace senids::obs {

namespace {

using SteadyClock = std::chrono::steady_clock;

}  // namespace

void WorkerSlot::begin_run() noexcept {
  const std::uint64_t now = WorkerTable::instance().now_ns();
  active_.fetch_add(1, std::memory_order_relaxed);
  run_start_ns_.store(now, std::memory_order_relaxed);
  run_end_ns_.store(0, std::memory_order_relaxed);
  heartbeat_ns_.store(now, std::memory_order_relaxed);
}

void WorkerSlot::end_run() noexcept {
  run_end_ns_.store(WorkerTable::instance().now_ns(), std::memory_order_relaxed);
  active_.fetch_sub(1, std::memory_order_relaxed);
}

void WorkerSlot::heartbeat() noexcept {
  if (!metrics_enabled()) return;
  heartbeat_ns_.store(WorkerTable::instance().now_ns(), std::memory_order_relaxed);
}

struct WorkerTable::Impl {
  const SteadyClock::time_point epoch = SteadyClock::now();
  mutable util::Mutex mu{"WorkerTable"};
  // Node stability keeps WorkerSlot& handles valid forever. The slots
  // themselves are all-atomic (mutated lock-free by their owner thread);
  // mu guards only the registration map.
  std::map<std::pair<std::string, std::size_t>, std::unique_ptr<WorkerSlot>> slots
      GUARDED_BY(mu);
  std::set<const WorkerSlot*> claimed GUARDED_BY(mu);  // by claim(), until release()

  WorkerSlot& find_or_create(std::string_view kind, std::size_t index) REQUIRES(mu) {
    auto key = std::make_pair(std::string(kind), index);
    auto it = slots.find(key);
    if (it == slots.end()) {
      auto slot = std::unique_ptr<WorkerSlot>(new WorkerSlot());
      slot->kind_ = key.first;
      slot->index_ = index;
      it = slots.emplace(std::move(key), std::move(slot)).first;
    }
    return *it->second;
  }
};

WorkerTable::WorkerTable() : impl_(new Impl) {}

WorkerTable& WorkerTable::instance() {
  static WorkerTable table;
  return table;
}

std::uint64_t WorkerTable::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           impl_->epoch)
          .count());
}

WorkerSlot& WorkerTable::slot(std::string_view kind, std::size_t index) {
  util::MutexLock lock(impl_->mu);
  return impl_->find_or_create(kind, index);
}

WorkerSlot& WorkerTable::claim(std::string_view kind) {
  util::MutexLock lock(impl_->mu);
  for (std::size_t index = 0;; ++index) {
    WorkerSlot& slot = impl_->find_or_create(kind, index);
    if (impl_->claimed.insert(&slot).second) return slot;
  }
}

void WorkerTable::release(WorkerSlot& slot) {
  util::MutexLock lock(impl_->mu);
  impl_->claimed.erase(&slot);
}

std::vector<WorkerSlot::Snapshot> WorkerTable::snapshot() const {
  const std::uint64_t now = now_ns();
  util::MutexLock lock(impl_->mu);
  std::vector<WorkerSlot::Snapshot> out;
  out.reserve(impl_->slots.size());
  for (const auto& [key, slot] : impl_->slots) {
    WorkerSlot::Snapshot s;
    s.kind = slot->kind_;
    s.index = slot->index_;
    s.active = slot->active_.load(std::memory_order_relaxed) > 0;
    s.busy_seconds =
        static_cast<double>(slot->busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
    s.idle_seconds =
        static_cast<double>(slot->idle_ns_.load(std::memory_order_relaxed)) * 1e-9;
    s.units = slot->units_.load(std::memory_order_relaxed);
    const std::uint64_t hb = slot->heartbeat_ns_.load(std::memory_order_relaxed);
    s.seconds_since_heartbeat =
        hb == 0 ? -1.0 : static_cast<double>(now - std::min(hb, now)) * 1e-9;
    const std::uint64_t start = slot->run_start_ns_.load(std::memory_order_relaxed);
    const std::uint64_t end = slot->run_end_ns_.load(std::memory_order_relaxed);
    if (start != 0) {
      const std::uint64_t until = s.active || end < start ? now : end;
      s.run_seconds = static_cast<double>(until - std::min(start, until)) * 1e-9;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void WorkerTable::reset() {
  util::MutexLock lock(impl_->mu);
  for (auto& [key, slot] : impl_->slots) {
    slot->busy_ns_.store(0, std::memory_order_relaxed);
    slot->idle_ns_.store(0, std::memory_order_relaxed);
    slot->units_.store(0, std::memory_order_relaxed);
    slot->heartbeat_ns_.store(0, std::memory_order_relaxed);
    slot->run_start_ns_.store(0, std::memory_order_relaxed);
    slot->run_end_ns_.store(0, std::memory_order_relaxed);
    slot->active_.store(0, std::memory_order_relaxed);
  }
}

}  // namespace senids::obs
