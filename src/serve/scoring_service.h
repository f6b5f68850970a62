// Async scoring front end: single-frame submits, micro-batched execution
// against a batch_scorer (docs/SERVING.md). Stateless per frame; overflow
// either blocks the producer or rejects the frame.
#pragma once

#include <cstddef>
#include <future>

#include "serve/micro_batcher.h"
#include "serve/scoring.h"

namespace dv {

class scoring_service {
 public:
  /// `scorer` must outlive the service. The worker starts immediately.
  explicit scoring_service(batch_scorer& scorer,
                           const serve_config& config = {});

  /// Enqueues one [C,H,W] frame; the future resolves to its scores.
  std::future<scoring_result> submit(tensor frame);

  /// Blocks until every accepted frame has completed.
  void flush();
  /// Stops accepting, drains in-flight frames, joins the worker.
  void shutdown();

  bool running() const { return batcher_.running(); }
  std::size_t queue_depth() const { return batcher_.queue_depth(); }

 private:
  batch_scorer& scorer_;
  micro_batcher<scoring_result> batcher_;
};

}  // namespace dv
