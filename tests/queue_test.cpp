#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "obs/metrics.hpp"
#include "util/queue.hpp"

namespace senids::util {
namespace {

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BoundedQueue, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueue, TryPopEmptyReturnsNullopt) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(7);
  EXPECT_EQ(q.try_pop().value(), 7);
}

TEST(BoundedQueue, CloseUnblocksConsumer) {
  BoundedQueue<int> q(2);
  std::thread consumer([&q] {
    auto v = q.pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(BoundedQueue, CloseDrainsRemainingItems) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, BlockingPushWaitsForSpace) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  BoundedQueue<int> q(16);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  std::atomic<long> sum{0};
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++consumed;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long>(total) * (total - 1) / 2);
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));
}

TEST(BoundedQueue, MoveOnlyTypes) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  q.push(std::make_unique<int>(42));
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 42);
}

TEST(BoundedQueue, WeightBudgetLimitsQueuedBytes) {
  BoundedQueue<int> q(8, /*max_weight=*/100);
  ASSERT_TRUE(q.push(1, 60));
  EXPECT_FALSE(q.try_push(2, 60));  // 120 would exceed the budget
  EXPECT_TRUE(q.try_push(3, 40));   // exactly at the budget
  EXPECT_EQ(q.weight(), 100u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.weight(), 40u);
  EXPECT_TRUE(q.try_push(4, 60));
}

TEST(BoundedQueue, DepthPeakGaugeRatchetsToHighWatermark) {
  obs::set_metrics_enabled(true);
  obs::Gauge depth;
  obs::Gauge depth_peak;
  QueueMetrics metrics;
  metrics.depth = &depth;
  metrics.depth_peak = &depth_peak;
  BoundedQueue<int> q(8);
  q.set_metrics(&metrics);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  EXPECT_EQ(depth.value(), 5);
  EXPECT_EQ(depth_peak.value(), 5);
  for (int i = 0; i < 4; ++i) (void)q.pop();
  EXPECT_EQ(depth.value(), 1);
  EXPECT_EQ(depth_peak.value(), 5) << "the peak must survive the drain";
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.push(i));
  EXPECT_EQ(depth_peak.value(), 7) << "a new high watermark ratchets up";
}

TEST(BoundedQueue, OversizedItemAdmittedWhenEmpty) {
  // A single unit bigger than the whole budget must not deadlock: an
  // empty queue always admits one item.
  BoundedQueue<int> q(4, /*max_weight=*/10);
  EXPECT_TRUE(q.try_push(1, 1000));
  EXPECT_FALSE(q.try_push(2, 1));  // budget exhausted by the big item
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.weight(), 0u);
  EXPECT_TRUE(q.try_push(2, 1));
}

TEST(BoundedQueue, WeightBudgetBlockingPushWaitsForPop) {
  BoundedQueue<int> q(8, /*max_weight=*/10);
  ASSERT_TRUE(q.push(1, 10));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(2, 5);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, UnweightedItemsIgnoreBudget) {
  BoundedQueue<int> q(2, /*max_weight=*/1);
  EXPECT_TRUE(q.try_push(1));  // weight 0 items ride on count alone
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // count cap still applies
}

}  // namespace
}  // namespace senids::util
