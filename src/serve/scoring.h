// Batch-first scoring runtime: request/result types and the pluggable
// batch scorer behind the serving layer (docs/SERVING.md).
//
// The serving layer turns single-frame requests into coalesced batches so
// one probe forward pass is amortized across the deep validator, the
// weighted joint validator, and every attached anomaly detector. Because
// all forward kernels are per-row independent (DESIGN.md §8), a frame's
// scores are bitwise identical no matter which batch it lands in — batch
// composition is purely a throughput knob.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/activation_cache.h"
#include "core/batch_config.h"
#include "core/deep_validator.h"
#include "detect/detector.h"
#include "serve/engine_handle.h"
#include "tensor/tensor.h"

namespace dv {

/// What a producer does when the bounded request queue is full.
enum class overflow_policy {
  /// Block the submitting thread until the worker frees a slot.
  block,
  /// Throw serve_rejected_error immediately (load shedding).
  reject,
};

struct serve_config {
  /// Maximum frames coalesced into one evaluate call. The worker never
  /// waits to fill a batch: it scores whatever is queued when it is free.
  batch_config batch{};
  /// Bound of the request queue — the backpressure knob.
  std::size_t queue_capacity{256};
  overflow_policy on_full{overflow_policy::block};
};

/// Thrown by submit() under overflow_policy::reject when the queue is full.
class serve_rejected_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything the batch path knows about one scored frame.
struct scoring_result {
  /// Joint discrepancy d = sum_i d_i (Equation 3).
  double joint{0.0};
  std::int64_t prediction{-1};
  /// joint > validator threshold epsilon, or joint is NaN.
  bool invalid{false};
  /// Per validated layer discrepancy d_i.
  std::vector<double> per_layer;
  /// One score per attached detector, in attachment order.
  std::vector<double> detector_scores;
  /// Weighted joint score; meaningful only when has_weighted.
  double weighted{0.0};
  bool has_weighted{false};
  /// Generation of the published bank that scored this frame (1 for a
  /// fixed-bank validator_scorer; see serve/engine_handle.h). Every
  /// frame of one batch carries the same generation.
  std::uint64_t generation{0};
};

/// Scores a stacked [N,C,H,W] batch of frames. Implementations are called
/// only from the micro-batcher's worker thread, so never concurrently.
class batch_scorer {
 public:
  virtual ~batch_scorer() = default;
  batch_scorer() = default;
  batch_scorer(const batch_scorer&) = delete;
  batch_scorer& operator=(const batch_scorer&) = delete;

  virtual std::vector<scoring_result> score(const tensor& frames) = 0;
};

/// The one production scorer: one activation extraction per batch, fanned
/// out to the bank an engine_handle publishes (serve/engine_handle.h) and
/// every attached detector. The bank is pinned ONCE per batch — every
/// frame of a batch scores against one generation, and a publish between
/// batches never drains the queue. Weighted scores come from the bank's
/// combiner when it carries one (deep_validator::bank(&weighted) or a
/// snapshot written with one).
class validator_scorer : public batch_scorer {
 public:
  /// Hot-swappable bank: `model` and `handle` must outlive the scorer.
  /// The handle may be empty at construction; score() before the first
  /// publish throws.
  validator_scorer(sequential& model, const engine_handle& handle);

  /// Fixed bank: pins `validator.bank()` as generation 1 for the
  /// scorer's life, without publishing it anywhere (so no
  /// dv_snapshot_* metric moves). The bank borrows the validator's
  /// storage from construction on: `model` and `validator` must outlive
  /// the scorer, the validator must be fitted, and it must not be refit
  /// or re-thresholded while the scorer lives.
  validator_scorer(sequential& model, const deep_validator& validator);

  /// Also score each batch with `detector` (must outlive the scorer).
  /// Scores land in scoring_result::detector_scores in attachment order.
  void attach_detector(anomaly_detector& detector);

  std::vector<scoring_result> score(const tensor& frames) override;

  /// The frame-level activation cache, or nullptr when caching was off at
  /// construction (DV_CACHE, docs/CACHING.md). Exposed for benches/tests
  /// that read hit/miss stats.
  const activation_cache* frame_cache() const { return frame_cache_.get(); }

 private:
  sequential& model_;
  /// The hot-swap slot, or nullptr for a fixed bank.
  const engine_handle* handle_{nullptr};
  /// The fixed bank; set only by the fixed-bank constructor.
  std::shared_ptr<const published_bank> fixed_;
  std::vector<anomaly_detector*> detectors_;
  /// Strong-hash LRU over per-frame forward-pass products, present when
  /// caching is on at construction; score() runs only on the batcher
  /// worker, which is the single-mutator stream the cache requires.
  std::unique_ptr<activation_cache> frame_cache_{
      cache_enabled() ? std::make_unique<activation_cache>() : nullptr};
};

}  // namespace dv
