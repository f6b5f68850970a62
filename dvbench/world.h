// Benchmark set-up: the fixed model and validator bank of a workload, plus
// its seeded inputs (corner cases and camera streams).
//
// The model, its training data and the fitted bank depend only on fixed
// seeds, so every workload seed measures the same system. The workload
// seed drives only the inputs: which test images seed the corner cases
// (and a small jitter of each fixed transform chain), and the frame
// selection, drift and repetition of the camera streams. No artifact cache
// is read or written: every set-up trains from scratch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/deep_validator.h"
#include "data/factory.h"
#include "nn/model.h"
#include "tensor/tensor.h"

namespace dvb {

/// Everything fixed about one benchmarked system.
struct world_spec {
  dv::dataset_kind kind{dv::dataset_kind::digits};
  std::int64_t train_size{0};
  std::int64_t test_size{0};
  int epochs{1};
  dv::deep_validator_config validator;
  /// Seed images per corner-case transform chain.
  std::int64_t corner_seeds{0};
  std::uint64_t model_seed{99};
  std::uint64_t data_seed{2019};
};

/// The paper's digits CNN with all six probes validated.
world_spec digits_spec();
/// The paper's objects DenseNet with the last six probes validated.
world_spec objects_spec();

/// Wall time of each set-up stage, in seconds.
struct setup_times {
  double data_gen_s{0.0};
  double train_s{0.0};
  double bank_fit_s{0.0};
  double threshold_s{0.0};
  double corner_gen_s{0.0};
  double stream_gen_s{0.0};
  double total_s{0.0};
};

/// The seeded corner-case set: one block of transformed seed images per
/// fixed transform chain (Table IV transforms plus the combined one).
struct corner_set {
  dv::tensor images;                  // [N, C, H, W]
  std::vector<std::int64_t> labels;   // true class of each image
  std::vector<int> chain;             // chain index of each image
  std::vector<std::string> chain_names;
};

struct world {
  world_spec spec;
  dv::dataset_bundle data;
  std::unique_ptr<dv::sequential> model;
  /// Fitted bank with the threshold set. Nothing scores through this
  /// object, so copies of it start with cold decision caches.
  dv::deep_validator validator;
  double test_accuracy{0.0};
  corner_set corners;
  setup_times times;
};

/// Builds the world: data generation, training, bank fit, threshold at 5%
/// FPR on the clean test split, corner-case generation from `seed`.
world build_world(const world_spec& spec, std::uint64_t seed);

/// A frame sequence over a pool of distinct frames: frame k of the stream
/// is pool[order[k]]. Streams are replayed cyclically.
struct frame_stream {
  std::vector<dv::tensor> pool;
  std::vector<std::int32_t> order;
  /// Strong hash of each pool frame's bytes (hi, lo).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pool_hash;

  const dv::tensor& frame(std::int64_t k) const {
    return pool[static_cast<std::size_t>(
        order[static_cast<std::size_t>(k % static_cast<std::int64_t>(
                                               order.size()))])];
  }
  std::int32_t pool_index(std::int64_t k) const {
    return order[static_cast<std::size_t>(
        k % static_cast<std::int64_t>(order.size()))];
  }
  std::int64_t size() const { return static_cast<std::int64_t>(order.size()); }
};

/// Distinct frames from the environment stream (brightness / contrast /
/// rotation / translation random walk with a seeded drift).
frame_stream make_live_stream(const world& w, std::uint64_t seed,
                              std::int64_t frames);

/// Near-static camera: each scene is held for 6..10 consecutive frames
/// (mean 8), and one hold in eight revisits one of a few recurring scenes.
frame_stream make_static_stream(const world& w, std::uint64_t seed,
                                std::int64_t frames);

/// Share of stream positions [0, frames) whose bytes already occurred
/// earlier in the same range (strong hash of the frame bytes).
double repeat_share(const frame_stream& s, std::int64_t frames);

/// Order-sensitive digest of the first `frames` frames (for the self-test:
/// a different seed must give different frames).
std::uint64_t stream_digest(const frame_stream& s, std::int64_t frames);

}  // namespace dvb
