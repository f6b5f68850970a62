// Tests of the shared parallel runtime (util/thread_pool.h) and of the
// determinism contract of every parallelized kernel: results must be
// bit-identical regardless of DV_THREADS.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/deep_validator.h"
#include "nn/layers.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace dv {
namespace {

/// Restores the default thread count when a test exits.
struct thread_count_guard {
  ~thread_count_guard() { set_thread_count(0); }
};

/// Runs `fn` under `threads` pool threads and returns its result.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  set_thread_count(threads);
  return fn();
}

bool bitwise_equal(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// -- parallel_for mechanics ------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  thread_count_guard guard;
  set_thread_count(7);
  const struct {
    std::int64_t begin, end, grain;
  } cases[] = {{0, 1, 1},    {0, 7, 3},   {5, 23, 4},  {0, 100, 1},
               {0, 1000, 7}, {3, 3, 1},   {10, 9, 4},  {-6, 5, 2},
               {0, 64, 64},  {0, 64, 100}};
  for (const auto& c : cases) {
    const std::int64_t len = std::max<std::int64_t>(0, c.end - c.begin);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(len));
    // dv:parallel-safe(atomic per-index hit counters, coverage test)
    parallel_for(c.begin, c.end, c.grain,
                 [&](std::int64_t lo, std::int64_t hi) {
                   ASSERT_LE(lo, hi);
                   for (std::int64_t i = lo; i < hi; ++i) {
                     hits[static_cast<std::size_t>(i - c.begin)].fetch_add(1);
                   }
                 });
    for (std::int64_t i = 0; i < len; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "begin=" << c.begin << " end=" << c.end << " grain=" << c.grain
          << " index " << c.begin + i;
    }
  }
}

TEST(ParallelFor, ChunkIdsAreDenseAndRanksInRange) {
  thread_count_guard guard;
  set_thread_count(5);
  const std::int64_t begin = 2, end = 45, grain = 4;
  const std::int64_t chunks = parallel_chunk_count(begin, end, grain);
  EXPECT_EQ(chunks, (end - begin + grain - 1) / grain);
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(chunks));
  // dv:parallel-safe(atomic per-chunk counters, decomposition test)
  parallel_for_chunks(begin, end, grain,
                      [&](std::int64_t chunk, std::int64_t lo,
                          std::int64_t hi, int rank) {
                        ASSERT_GE(chunk, 0);
                        ASSERT_LT(chunk, chunks);
                        EXPECT_EQ(lo, begin + chunk * grain);
                        EXPECT_EQ(hi, std::min(end, lo + grain));
                        EXPECT_GE(rank, 0);
                        EXPECT_LT(rank, thread_count());
                        seen[static_cast<std::size_t>(chunk)].fetch_add(1);
                      });
  for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
    EXPECT_EQ(seen[static_cast<std::size_t>(chunk)].load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeRunsNothingAndBadGrainThrows) {
  thread_count_guard guard;
  bool ran = false;
  // dv:parallel-safe(empty range) dv-lint: allow(capture) body never runs
  parallel_for(4, 4, 1, [&](std::int64_t, std::int64_t) { ran = true; });
  // dv:parallel-safe(empty range) dv-lint: allow(capture) body never runs
  parallel_for(4, 0, 1, [&](std::int64_t, std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
  // dv:parallel-safe(invalid grain throws before running anything)
  EXPECT_THROW(parallel_for(0, 3, 0, [](std::int64_t, std::int64_t) {}),
               std::invalid_argument);
}

TEST(ParallelFor, PropagatesFirstException) {
  thread_count_guard guard;
  set_thread_count(4);
  EXPECT_THROW(
      // dv:parallel-safe(exception propagation test, no shared writes)
      parallel_for(0, 64, 1,
                   [](std::int64_t lo, std::int64_t) {
                     if (lo >= 32) throw std::runtime_error{"chunk failed"};
                   }),
      std::runtime_error);
  // The pool stays usable after a failed region.
  std::atomic<std::int64_t> sum{0};
  // dv:parallel-safe(atomic sum, pool-reuse smoke test)
  parallel_for(0, 10, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelFor, NestedRegionsRunSequentially) {
  thread_count_guard guard;
  set_thread_count(4);
  std::vector<std::atomic<int>> hits(64);
  // dv:parallel-safe(atomic hit counters, nesting test)
  parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // dv:parallel-safe(atomic hit counters, nested region)
      parallel_for(0, 8, 1, [&](std::int64_t jlo, std::int64_t jhi) {
        for (std::int64_t j = jlo; j < jhi; ++j) {
          hits[static_cast<std::size_t>(i * 8 + j)].fetch_add(1);
        }
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// -- Tiled GEMM vs naive reference --------------------------------------------------

/// The pre-rewrite naive triple loop, double-accumulated per output cell.
void reference_gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                    float alpha, const float* a, bool ta, const float* b,
                    bool tb, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      const double prev =
          beta == 0.0f ? 0.0 : static_cast<double>(beta) * c[i * n + j];
      c[i * n + j] = static_cast<float>(alpha * acc + prev);
    }
  }
}

TEST(TiledGemm, MatchesReferenceOnOddShapesAndAllAlphaBeta) {
  thread_count_guard guard;
  set_thread_count(3);
  const std::int64_t sizes[] = {1, 3, 17, 64, 130};
  const float alphas[] = {1.0f, -0.5f};
  const float betas[] = {0.0f, 1.0f, 0.5f};
  rng gen{12345};
  for (const auto m : sizes) {
    for (const auto n : sizes) {
      for (const auto k : sizes) {
        const tensor a_nn = tensor::randn({m, k}, gen);
        const tensor a_tn = tensor::randn({k, m}, gen);
        const tensor b_nn = tensor::randn({k, n}, gen);
        const tensor b_nt = tensor::randn({n, k}, gen);
        const tensor c0 = tensor::randn({m, n}, gen);
        for (const auto alpha : alphas) {
          for (const auto beta : betas) {
            // beta == 0 must overwrite without reading C: poison it.
            const float fill = beta == 0.0f
                                   ? std::numeric_limits<float>::quiet_NaN()
                                   : 0.0f;
            for (int variant = 0; variant < 3; ++variant) {
              tensor c{{m, n}};
              tensor ref{{m, n}};
              for (std::int64_t i = 0; i < c.numel(); ++i) {
                c[i] = beta == 0.0f ? fill : c0[i];
                ref[i] = c[i];
              }
              const bool ta = variant == 2;
              const bool tb = variant == 1;
              const float* a = ta ? a_tn.data() : a_nn.data();
              const float* b = tb ? b_nt.data() : b_nn.data();
              if (variant == 0) {
                gemm_nn(m, n, k, alpha, a, b, beta, c.data());
              } else if (variant == 1) {
                gemm_nt(m, n, k, alpha, a, b, beta, c.data());
              } else {
                gemm_tn(m, n, k, alpha, a, b, beta, c.data());
              }
              reference_gemm(m, n, k, alpha, a, ta, b, tb, beta, ref.data());
              const float tol =
                  1e-4f * static_cast<float>(k) * std::abs(alpha) + 1e-5f;
              for (std::int64_t i = 0; i < c.numel(); ++i) {
                ASSERT_NEAR(c[i], ref[i], tol)
                    << "variant=" << variant << " m=" << m << " n=" << n
                    << " k=" << k << " alpha=" << alpha << " beta=" << beta
                    << " index " << i;
              }
            }
          }
        }
      }
    }
  }
}

// -- Bit-identical results across thread counts ----------------------------------------

TEST(Determinism, GemmBitIdenticalAcrossThreadCounts) {
  thread_count_guard guard;
  rng gen{7};
  const std::int64_t m = 130, n = 97, k = 301;
  const tensor a = tensor::randn({m, k}, gen);
  const tensor a_t = tensor::randn({k, m}, gen);
  const tensor b = tensor::randn({k, n}, gen);
  const tensor b_t = tensor::randn({n, k}, gen);
  auto run_all = [&] {
    std::vector<tensor> out;
    tensor c{{m, n}};
    gemm_nn(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    out.push_back(c);
    gemm_nt(m, n, k, 0.5f, a.data(), b_t.data(), 0.0f, c.data());
    out.push_back(c);
    gemm_tn(m, n, k, 1.0f, a_t.data(), b.data(), 1.0f, c.data());
    out.push_back(c);
    return out;
  };
  const auto serial = with_threads(1, run_all);
  const auto threaded = with_threads(8, run_all);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(serial[i], threaded[i])) << "gemm variant " << i;
  }
}

TEST(Determinism, Conv2dBitIdenticalAcrossThreadCounts) {
  thread_count_guard guard;
  auto run = [&] {
    rng gen{11};
    conv2d conv{3, 8, 3, 1, 1, gen};
    tensor x = tensor::randn({9, 3, 14, 14}, gen);
    tensor y = conv.forward(x, true);
    tensor g = tensor::randn(y.shape(), gen);
    tensor dx = conv.backward(g);
    std::vector<tensor> out{y, dx};
    for (auto& p : conv.params()) out.push_back(*p.grad);
    return out;
  };
  const auto serial = with_threads(1, run);
  const auto threaded = with_threads(8, run);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(serial[i], threaded[i]))
        << "conv output " << i << " differs between 1 and 8 threads";
  }
}

TEST(Determinism, KernelMatrixAndSvmBitIdenticalAcrossThreadCounts) {
  thread_count_guard guard;
  rng gen{13};
  const tensor samples = tensor::randn({120, 9}, gen);
  const tensor queries = tensor::randn({33, 9}, gen);
  auto run = [&] {
    const tensor k = kernel_matrix(kernel_kind::rbf, samples, 0.05);
    one_class_svm svm;
    svm.fit(samples, {});
    return std::make_pair(k, svm.view().decision_batch(queries));
  };
  const auto serial = with_threads(1, run);
  const auto threaded = with_threads(8, run);
  EXPECT_TRUE(bitwise_equal(serial.first, threaded.first));
  ASSERT_EQ(serial.second.size(), threaded.second.size());
  for (std::size_t i = 0; i < serial.second.size(); ++i) {
    EXPECT_EQ(serial.second[i], threaded.second[i]) << "query " << i;
  }
}

TEST(Determinism, DecisionBatchMatchesSingleDecision) {
  thread_count_guard guard;
  set_thread_count(4);
  rng gen{17};
  const tensor samples = tensor::randn({80, 6}, gen);
  const tensor queries = tensor::randn({21, 6}, gen);
  one_class_svm svm;
  svm.fit(samples, {});
  const one_class_svm_view view = svm.view();
  const auto batch = view.decision_batch(queries);
  ASSERT_EQ(batch.size(), 21u);
  for (std::int64_t i = 0; i < queries.extent(0); ++i) {
    const double single =
        view.decision({queries.data() + i * 6, static_cast<std::size_t>(6)});
    EXPECT_EQ(batch[static_cast<std::size_t>(i)], single) << "query " << i;
  }
}

TEST(Determinism, LinalgBitIdenticalAcrossThreadCounts) {
  thread_count_guard guard;
  rng gen{19};
  const tensor samples = tensor::randn({150, 23}, gen);
  auto run = [&] {
    const auto means = column_means(samples);
    return std::make_pair(means, covariance(samples, means, 1e-3));
  };
  const auto serial = with_threads(1, run);
  const auto threaded = with_threads(8, run);
  ASSERT_EQ(serial.first.size(), threaded.first.size());
  for (std::size_t i = 0; i < serial.first.size(); ++i) {
    EXPECT_EQ(serial.first[i], threaded.first[i]);
  }
  ASSERT_EQ(serial.second.size(), threaded.second.size());
  for (std::size_t i = 0; i < serial.second.size(); ++i) {
    EXPECT_EQ(serial.second[i], threaded.second[i]);
  }
}

// -- Conv2d scratch reshaping (regression for the stale-shape bug) -----------------

TEST(Conv2dScratch, GeometryChangeWithEqualElementCountReshapesScratch) {
  thread_count_guard guard;
  set_thread_count(2);
  rng gen{23};
  conv2d conv{1, 2, 3, 1, 1, gen};
  // 8x8 and 4x16 inputs produce im2col buffers with the same element count
  // (64 output pixels each) but different spatial layouts.
  tensor x1 = tensor::randn({2, 1, 8, 8}, gen);
  tensor x2 = tensor::randn({2, 1, 4, 16}, gen);
  const tensor y1 = conv.forward(x1, false);
  const tensor y2 = conv.forward(x2, false);
  EXPECT_EQ(y2.extent(2), 4);
  EXPECT_EQ(y2.extent(3), 16);
  // Re-running the first geometry after the second must reproduce the
  // original output exactly.
  const tensor y1_again = conv.forward(x1, false);
  EXPECT_TRUE(bitwise_equal(y1, y1_again));
}

// -- End-to-end: deep_validator scores ----------------------------------------------

TEST(Determinism, DeepValidatorScoresBitIdenticalAcrossThreadCounts) {
  thread_count_guard guard;
  const auto& world = dv::testing::shared_tiny_world();
  const tensor batch = world.test.images.slice_rows(0, 12);
  auto run = [&] {
    deep_validator validator;
    deep_validator_config cfg;
    cfg.max_train_per_class = 30;
    validator.fit(*world.model, world.train, cfg);
    return validator.evaluate(*world.model, batch);
  };
  const auto serial = with_threads(1, run);
  const auto threaded = with_threads(8, run);
  ASSERT_EQ(serial.joint.size(), threaded.joint.size());
  for (std::size_t i = 0; i < serial.joint.size(); ++i) {
    EXPECT_EQ(serial.joint[i], threaded.joint[i])
        << "joint discrepancy of image " << i
        << " differs between 1 and 8 threads";
    EXPECT_EQ(serial.predictions[i], threaded.predictions[i]);
  }
  for (std::size_t v = 0; v < serial.per_layer.size(); ++v) {
    for (std::size_t i = 0; i < serial.per_layer[v].size(); ++i) {
      EXPECT_EQ(serial.per_layer[v][i], threaded.per_layer[v][i]);
    }
  }
}

}  // namespace
}  // namespace dv
