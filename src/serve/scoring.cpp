#include "serve/scoring.h"

#include <stdexcept>

#include "core/activation_batch.h"

namespace dv {

validator_scorer::validator_scorer(sequential& model,
                                   const engine_handle& handle)
    : model_{model}, handle_{&handle} {}

validator_scorer::validator_scorer(sequential& model,
                                   const deep_validator& validator)
    : model_{model},
      fixed_{std::make_shared<const published_bank>(
          published_bank{validator.bank(), 1})} {}

void validator_scorer::attach_detector(anomaly_detector& detector) {
  detectors_.push_back(&detector);
}

std::vector<scoring_result> validator_scorer::score(const tensor& frames) {
  // Pin the current bank ONCE for the whole batch: a publish() racing
  // with this call either lands before the load (whole batch on the new
  // generation) or after (whole batch on the old one, kept alive by this
  // shared_ptr) — never a mix.
  const std::shared_ptr<const published_bank> current =
      handle_ != nullptr ? handle_->current() : fixed_;
  if (current == nullptr) {
    throw std::logic_error{"validator_scorer: no bank published yet"};
  }
  const validator_bank_view& bank = current->bank;
  // The one shared forward pass for the whole fan-out; repeated frames
  // come out of the activation cache instead (docs/CACHING.md).
  const activation_batch acts =
      extract_activations_cached(model_, frames, frame_cache_.get());
  const auto s = bank.evaluate(acts);

  std::vector<std::vector<double>> detector_scores(detectors_.size());
  for (std::size_t d = 0; d < detectors_.size(); ++d) {
    detector_scores[d] = detectors_[d]->score_activations(acts);
  }

  const bool has_weighted = bank.weighted().valid();
  const std::size_t n = s.joint.size();
  std::vector<scoring_result> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& row = out[i];
    row.joint = s.joint[i];
    row.prediction = s.predictions[i];
    row.invalid = bank.flags_invalid(row.joint);
    row.generation = current->generation;
    row.per_layer.reserve(s.per_layer.size());
    for (const auto& layer : s.per_layer) row.per_layer.push_back(layer[i]);
    row.detector_scores.reserve(detectors_.size());
    for (const auto& scores : detector_scores) {
      row.detector_scores.push_back(scores[i]);
    }
    if (has_weighted) {
      row.weighted = bank.weighted().decision(row.per_layer);
      row.has_weighted = true;
    }
  }
  return out;
}

}  // namespace dv
