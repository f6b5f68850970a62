// Closed-loop scoring passes over a fixed batch sequence: the production
// path timed as a whole, and the same work recomputed stage by stage from
// the modules' public functions with one span per stage.
//
// Production: validator_scorer::score (stream workloads, activation cache
// on) or extract_activations + validator_bank_view::evaluate (offline),
// then runtime_monitor::apply per row.
// Staged: nn.forward -> per layer core.probe_reduce, core.scaler,
// svm.decision (rows grouped by predicted class, one decision_batch per
// class SVM) -> core.joint -> core.monitor_apply, under one "score" root
// span per batch. The staged scores must be bitwise equal to
// validator_bank_view::evaluate on the same activations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common.h"
#include "core/activation_cache.h"
#include "core/deep_validator.h"
#include "core/monitor.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "serve/scoring.h"
#include "tensor/tensor.h"

namespace dvb {

/// The production scoring path, timed as a whole per batch. `validator`
/// is a fresh copy of the fitted bank (its decision caches start cold) and
/// must outlive this object. `frame_cache` selects the serve path's
/// validator_scorer (activation cache in front of the forward pass).
class production_scoring {
 public:
  production_scoring(dv::sequential& model, const dv::deep_validator& validator,
                     bool frame_cache);
  void score(const dv::tensor& frames);

  double total_ns{0.0};
  std::vector<dv::monitor_verdict> verdicts;
  std::vector<double> joint;

 private:
  dv::sequential& model_;
  const dv::validator_bank_view bank_;
  std::optional<dv::validator_scorer> scorer_;
  dv::runtime_monitor monitor_;
};

/// The same scores recomputed stage by stage, one span per stage under a
/// "score" root span per batch. `validator` and `verify` are two fresh
/// copies of the fitted bank that must outlive this object: the first is
/// scored stage by stage, the second runs validator_bank_view::evaluate on
/// the same activations outside every span for the bitwise comparison.
class staged_scoring {
 public:
  staged_scoring(dv::sequential& model, const dv::deep_validator& validator,
                 const dv::deep_validator& verify, bool frame_cache);
  void score(const dv::tensor& frames, std::int64_t batch_id);

  span_log log;
  double total_ns{0.0};  // sum of the root spans (= sum of self times)
  std::vector<dv::monitor_verdict> verdicts;
  std::vector<double> joint;
  std::int64_t frames{0};
  /// Distinct frames that reached the forward pass.
  std::int64_t forwarded{0};
  /// rows x support vectors over every decision_batch call.
  std::int64_t kernel_evals{0};
  /// Rows whose staged scores differ from validator_bank_view::evaluate.
  std::int64_t mismatches{0};

 private:
  dv::sequential& model_;
  const dv::deep_validator& validator_;
  const dv::validator_bank_view bank_;
  const dv::validator_bank_view reference_;
  std::unique_ptr<dv::activation_cache> cache_;
  dv::runtime_monitor monitor_;
  bool pack_rows_{false};
};

/// Per-stage wall time of one deep_validator::fit, read from the library's
/// own fit histograms (metrics are switched on for the call).
struct fit_breakdown {
  double total_s{0.0};
  /// Prediction, subsampling and probe extraction over the training set:
  /// the fit minus its per-layer fits.
  double fit_forward_s{0.0};
  /// Per-layer fits minus their SVM fits: scaler fit, transform, class
  /// subsets.
  double scaler_fit_s{0.0};
  double svm_fit_s{0.0};
  std::int64_t smo_iterations{0};
  std::int64_t support_vectors{0};
};

fit_breakdown traced_fit(dv::sequential& model, const dv::dataset& train,
                         const dv::deep_validator_config& config);

/// Bitwise equality of two fitted banks: every SVM's support vectors,
/// coefficients, rho, gamma and SMO iteration count, and every scaler.
bool same_fit(const dv::deep_validator& a, const dv::deep_validator& b);

/// Bitwise equality of two verdicts.
bool same_verdict(const dv::monitor_verdict& a, const dv::monitor_verdict& b);
/// Bitwise equality of two doubles.
bool same_bits(double a, double b);

}  // namespace dvb
