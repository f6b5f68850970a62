// Shutdown edges of the bounded MPSC queue under the serving layer:
// push-after-close fails fast without consuming the item, a concurrent
// drain during a producer storm drops and duplicates nothing, and close()
// releases parked producers and consumers. All of it runs under the
// DV_SANITIZE=thread stage, so the assertions double as race detectors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "util/bounded_queue.h"

namespace dv {
namespace {

using namespace std::chrono_literals;

TEST(QueueShutdown, PushAfterCloseFailsFastAndKeepsTheItem) {
  bounded_queue<int> q{4};
  q.close();
  EXPECT_TRUE(q.closed());
  int item = 41;
  EXPECT_FALSE(q.push(item));
  EXPECT_EQ(item, 41);  // failed pushes must not consume the item
  EXPECT_EQ(q.try_push(item), queue_push_result::closed);
  EXPECT_EQ(item, 41);
  EXPECT_EQ(q.size(), 0u);
  // The consumer sees the drain-complete signal immediately.
  std::vector<int> batch;
  EXPECT_FALSE(q.pop_batch(batch, 8));
  EXPECT_TRUE(batch.empty());
  q.close();  // idempotent
  EXPECT_TRUE(q.closed());
}

TEST(QueueShutdown, CloseReleasesParkedProducerWithoutConsuming) {
  bounded_queue<int> q{1};
  int head = 1;
  ASSERT_TRUE(q.push(head));
  std::atomic<bool> started{false};
  int stuck = 7;
  bool pushed = true;
  std::thread producer{[&] {
    started.store(true);
    pushed = q.push(stuck);  // parks: the queue is full
  }};
  while (!started.load()) std::this_thread::yield();
  q.close();
  producer.join();
  EXPECT_FALSE(pushed);
  EXPECT_EQ(stuck, 7);
  // The item accepted before close() is still drained.
  std::vector<int> batch;
  EXPECT_TRUE(q.pop_batch(batch, 8));
  EXPECT_EQ(batch, std::vector<int>{1});
  EXPECT_FALSE(q.pop_batch(batch, 8));
}

TEST(QueueShutdown, CloseReleasesParkedConsumer) {
  bounded_queue<int> q{4};
  std::promise<bool> popped;
  auto fut = popped.get_future();
  std::thread consumer{[&] {
    std::vector<int> batch;
    popped.set_value(q.pop_batch(batch, 4));
  }};
  // Nothing is ever pushed, so only close() can release the consumer.
  EXPECT_EQ(fut.wait_for(20ms), std::future_status::timeout);
  q.close();
  consumer.join();
  EXPECT_FALSE(fut.get());
}

TEST(QueueShutdown, DrainWhilePushingDropsAndDuplicatesNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 256;
  // A tiny bound keeps every producer cycling through the park/wake path
  // while the consumer drains concurrently.
  bounded_queue<int> q{8};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        EXPECT_TRUE(q.push(item));
      }
    });
  }
  std::vector<int> hits(kProducers * kPerProducer, 0);
  std::size_t total = 0;
  std::thread consumer{[&] {
    std::vector<int> batch;
    while (q.pop_batch(batch, 32)) {
      for (const int v : batch) ++hits[static_cast<std::size_t>(v)];
      total += batch.size();
    }
  }};
  for (auto& t : producers) t.join();
  q.close();  // all pushes accepted; the consumer drains the tail and exits
  consumer.join();
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers * kPerProducer));
  for (const int h : hits) ASSERT_EQ(h, 1);
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace dv
