// Metric reporting shared by the workloads: the set-up breakdown, the
// corner-case AUC, and the traced runs (per-layer metrics).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "staged.h"
#include "workloads.h"
#include "world.h"

namespace dvb {

/// setup_s (median over the repetitions) and the breakdown of the
/// median repetition.
void report_setup(const std::vector<setup_times>& reps, metric_list& m);

/// Joint-validator ROC-AUC of the corner cases the model misclassifies
/// (SCCs) against the clean test split, from given scores.
double corner_auc(const world& w, std::span<const double> clean_joint,
                  std::span<const double> corner_joint,
                  std::span<const std::int64_t> corner_predictions, outcome& ops);
/// The same, scored by a cold copy of the bank.
double corner_auc(const world& w, outcome& ops);

/// What a traced run drives.
struct trace_plan {
  /// Offered rate and length of the serve passes.
  double serve_fps{0.0};
  std::int64_t serve_frames{0};
  /// Assert that neither cache serves a hit (the live stream).
  bool caches_idle{false};
  /// Closed-loop batches; empty means "the batches the traced serve pass
  /// formed" (stream workloads).
  std::vector<dv::tensor> batches;
  /// Front the forward pass with an activation cache (serve path).
  bool frame_cache{false};
};

/// At one thread and at the production thread count: an untraced and a
/// traced serve pass over the same frames (serve.* metrics, the per-frame
/// latency decomposition), the closed-loop production vs stage-by-stage
/// scoring (nn.*, core.*, svm.* stage metrics and the add-up check), and
/// a fit with the library's fit histograms (fit metrics). Span files go
/// to args.trace_dir.
void traced_runs(const run_args& args, const world& w, const frame_stream& s,
                 replayer& replay, const trace_plan& plan, outcome& ops,
                 metric_list& m);

}  // namespace dvb
