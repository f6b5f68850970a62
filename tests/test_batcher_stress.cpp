// Stress tests for micro_batcher's lock-free pending_ counter.
// note_pending takes pending_mutex_ only on the transition to zero, so a
// flush() racing between its predicate check and its wait must still see
// the notify. Under DV_SANITIZE=thread these tests are the data-race
// oracle for that path; without TSan they still pin the liveness contract
// (a missed wakeup hangs the final flush) and the completion contract
// (flush returning implies every accepted future is ready).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "serve/micro_batcher.h"
#include "tensor/tensor.h"

namespace dv {
namespace {

using namespace std::chrono_literals;

/// A [1,2,2] frame whose first pixel encodes `value`.
tensor tagged_frame(float value) {
  tensor frame{{1, 2, 2}};
  frame.data()[0] = value;
  return frame;
}

micro_batcher<float>::batch_fn first_pixel_fn() {
  return [](const tensor& frames) {
    const std::int64_t n = frames.extent(0);
    std::vector<float> out(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] = frames.data()[i * 4];
    }
    return out;
  };
}

serve_config stress_config(int max_batch, std::size_t capacity,
                           overflow_policy policy) {
  serve_config cfg;
  cfg.batch.max_batch = max_batch;
  cfg.queue_capacity = capacity;
  cfg.on_full = policy;
  return cfg;
}

TEST(MicroBatcherStress, FlushRacesPendingTransitionToZero) {
  // Capacity 1 maximizes contention: every submitter parks on the full
  // queue, the worker decrements pending_ per frame, and the counter
  // crosses zero over and over while the flusher spins on it.
  micro_batcher<float> mb{"stress", first_pixel_fn(),
                          stress_config(1, 1, overflow_policy::block)};
  constexpr int k_threads = 4;
  constexpr int k_frames = 200;
  std::atomic<bool> done{false};
  std::thread flusher{[&] {
    while (!done.load(std::memory_order_acquire)) mb.flush();
  }};
  std::vector<std::thread> submitters;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < k_threads; ++t) {
    submitters.emplace_back([&mb, &mismatches, t] {
      for (int i = 0; i < k_frames; ++i) {
        const float tag = static_cast<float>(t * k_frames + i);
        // Waiting on each future makes pending_ bounce through zero.
        if (mb.submit(tagged_frame(tag)).get() != tag) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& s : submitters) s.join();
  done.store(true, std::memory_order_release);
  flusher.join();
  mb.flush();  // a missed wakeup would hang here
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(mb.pending(), 0);
  mb.shutdown();
}

TEST(MicroBatcherStress, FlushImpliesEveryAcceptedFutureIsReady) {
  micro_batcher<float> mb{"stress", first_pixel_fn(),
                          stress_config(4, 64, overflow_policy::block)};
  for (int round = 0; round < 50; ++round) {
    std::vector<std::future<float>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(mb.submit(tagged_frame(static_cast<float>(i))));
    }
    mb.flush();
    EXPECT_EQ(mb.pending(), 0);
    for (std::size_t i = 0; i < futures.size(); ++i) {
      ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready);
      EXPECT_EQ(futures[i].get(), static_cast<float>(i));
    }
  }
  mb.shutdown();
}

}  // namespace
}  // namespace dv
