#include "staged.h"

#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "core/activation_batch.h"
#include "util/metrics.h"
#include "util/strong_lru.h"

namespace dvb {

using namespace dv;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_verdict(const monitor_verdict& a, const monitor_verdict& b) {
  return same_bits(a.discrepancy, b.discrepancy) &&
         a.prediction == b.prediction && a.frame_invalid == b.frame_invalid &&
         a.alarm == b.alarm;
}

namespace {

template <typename T>
bool same_span(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

}  // namespace

bool same_fit(const deep_validator& a, const deep_validator& b) {
  const validator_bank_view x = a.bank();
  const validator_bank_view y = b.bank();
  if (x.validated_layers() != y.validated_layers()) return false;
  for (std::size_t v = 0; v < x.layers().size(); ++v) {
    const auto& lx = x.layers()[v];
    const auto& ly = y.layers()[v];
    if (lx.svms().size() != ly.svms().size() ||
        !same_span(lx.scaler().mean(), ly.scaler().mean()) ||
        !same_span(lx.scaler().inv_std(), ly.scaler().inv_std())) {
      return false;
    }
    for (std::size_t k = 0; k < lx.svms().size(); ++k) {
      const auto& sx = lx.svms()[k];
      const auto& sy = ly.svms()[k];
      if (!same_bits(sx.rho(), sy.rho()) || !same_bits(sx.gamma(), sy.gamma()) ||
          sx.iterations_used() != sy.iterations_used() ||
          !same_span(sx.support_vectors(), sy.support_vectors()) ||
          !same_span(sx.alpha(), sy.alpha())) {
        return false;
      }
    }
  }
  return true;
}

production_scoring::production_scoring(sequential& model,
                                       const deep_validator& validator,
                                       bool frame_cache)
    : model_{model}, bank_{validator.bank()}, monitor_{model, validator} {
  if (frame_cache) scorer_.emplace(model, validator);
}

void production_scoring::score(const tensor& frames) {
  const std::int64_t t0 = now_ns();
  if (scorer_) {
    const auto rows = scorer_->score(frames);
    for (const auto& row : rows) {
      joint.push_back(row.joint);
      verdicts.push_back(monitor_.apply({row.joint, row.prediction}));
    }
  } else {
    const activation_batch acts = extract_activations(model_, frames);
    const validation_scores s = bank_.evaluate(acts);
    for (std::size_t i = 0; i < s.joint.size(); ++i) {
      joint.push_back(s.joint[i]);
      verdicts.push_back(monitor_.apply({s.joint[i], s.predictions[i]}));
    }
  }
  total_ns += static_cast<double>(now_ns() - t0);
}

namespace {

/// Distinct rows of `frames` that the cache does not hold: the frames the
/// forward pass will actually run on. Reads the cache without touching
/// its statistics or LRU order.
std::int64_t rows_to_forward(const tensor& frames, const activation_cache* cache) {
  const std::int64_t n = frames.extent(0);
  if (cache == nullptr) return n;
  const std::int64_t elems = frames.numel() / n;
  std::set<std::pair<std::uint64_t, std::uint64_t>> fresh;
  for (std::int64_t i = 0; i < n; ++i) {
    const strong_hash h = strong_hash::of_bytes(
        frames.data() + i * elems, static_cast<std::size_t>(elems) * sizeof(float));
    if (!cache->lru().contains(h)) fresh.insert({h.hi, h.lo});
  }
  return static_cast<std::int64_t>(fresh.size());
}

}  // namespace

staged_scoring::staged_scoring(sequential& model, const deep_validator& validator,
                               const deep_validator& verify,
                               bool frame_cache)
    : model_{model},
      validator_{validator},
      bank_{validator.bank()},
      reference_{verify.bank()},
      monitor_{model, validator},
      pack_rows_{frame_cache} {
  if (frame_cache && cache_enabled()) {
    cache_ = std::make_unique<activation_cache>();
  }
}

void staged_scoring::score(const tensor& batch, std::int64_t id) {
  const auto layers = static_cast<std::size_t>(bank_.validated_layers());
  const std::int64_t n = batch.extent(0);
  frames += n;
  forwarded += rows_to_forward(batch, cache_.get());

  const std::int64_t root_start = now_ns();
  const std::int64_t root = log.open("score", root_start, -1, id);
  const activation_batch acts = cache_ ? extract_activations_cached(model_, batch, cache_.get())
                                       : extract_activations(model_, batch);
  std::int64_t t = now_ns();
  log.add("nn.forward", root_start, t, root, id);

  validation_scores s;
  s.per_layer.assign(layers, std::vector<double>(static_cast<std::size_t>(n)));
  for (std::size_t v = 0; v < layers; ++v) {
    const layer_validator_view& layer = bank_.layers()[v];
    std::int64_t t0 = t;
    const tensor reduced =
        acts.probe_features(bank_.probe_index(static_cast<int>(v)), bank_.spatial());
    t = now_ns();
    log.add("core.probe_reduce", t0, t, root, id);

    t0 = t;
    tensor scaled = reduced;
    layer.scaler().transform(scaled);
    t = now_ns();
    log.add("core.scaler", t0, t, root, id);

    t0 = t;
    const std::int64_t d = scaled.extent(1);
    std::vector<std::vector<std::int64_t>> per_class(layer.svms().size());
    for (std::int64_t i = 0; i < n; ++i) {
      per_class[static_cast<std::size_t>(acts.predictions[static_cast<std::size_t>(i)])]
          .push_back(i);
    }
    for (std::size_t k = 0; k < per_class.size(); ++k) {
      const auto& rows = per_class[k];
      if (rows.empty()) continue;
      tensor subset{{static_cast<std::int64_t>(rows.size()), d}};
      for (std::size_t j = 0; j < rows.size(); ++j) {
        std::memcpy(subset.data() + static_cast<std::int64_t>(j) * d,
                    scaled.data() + rows[j] * d, static_cast<std::size_t>(d) * sizeof(float));
      }
      const std::vector<double> dec = layer.svms()[k].decision_batch(subset);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        s.per_layer[v][static_cast<std::size_t>(rows[j])] = -dec[j];
      }
      kernel_evals += static_cast<std::int64_t>(rows.size()) * layer.svms()[k].support_count();
    }
    t = now_ns();
    log.add("svm.decision", t0, t, root, id);
  }

  std::int64_t t0 = t;
  s.joint.assign(static_cast<std::size_t>(n), 0.0);
  s.predictions = acts.predictions;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    double sum = 0.0;
    for (std::size_t v = 0; v < layers; ++v) sum += s.per_layer[v][i];
    s.joint[i] = sum;
  }
  t = now_ns();
  log.add("core.joint", t0, t, root, id);

  if (pack_rows_) {
    // The serve path packs each row into a scoring_result, as
    // validator_scorer::score does; this stays in the root's self time.
    std::vector<scoring_result> rows(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].joint = s.joint[i];
      rows[i].prediction = s.predictions[i];
      rows[i].invalid = validator_.flags_invalid(s.joint[i]);
      rows[i].per_layer.reserve(layers);
      for (std::size_t v = 0; v < layers; ++v) rows[i].per_layer.push_back(s.per_layer[v][i]);
    }
    t = now_ns();
  }

  t0 = t;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    verdicts.push_back(monitor_.apply({s.joint[i], s.predictions[i]}));
  }
  t = now_ns();
  log.add("core.monitor_apply", t0, t, root, id);
  log.close(root, t);
  total_ns += static_cast<double>(t - root_start);
  joint.insert(joint.end(), s.joint.begin(), s.joint.end());

  // Outside every span: the bitwise comparison with the bank's own
  // evaluate on the same activations.
  const validation_scores ref = reference_.evaluate(acts);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    bool same = same_bits(ref.joint[i], s.joint[i]) && ref.predictions[i] == s.predictions[i];
    for (std::size_t v = 0; v < layers; ++v) {
      same = same && same_bits(ref.per_layer[v][i], s.per_layer[v][i]);
    }
    if (!same) ++mismatches;
  }
}

fit_breakdown traced_fit(sequential& model, const dataset& train,
                         const deep_validator_config& config) {
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  metrics::reset();
  fit_breakdown out;
  deep_validator fitted;
  const std::int64_t t0 = now_ns();
  fitted.fit(model, train, config);
  out.total_s = seconds_between(t0, now_ns());
  const auto latency = metrics::histogram_options::latency();
  const double layer_s =
      metrics::get_histogram("dv_validator_layer_fit_seconds", latency)->sum();
  out.svm_fit_s =
      metrics::get_histogram("dv_validator_svm_fit_seconds", latency)->sum();
  out.fit_forward_s = out.total_s - layer_s;
  out.scaler_fit_s = layer_s - out.svm_fit_s;
  const validator_bank_view bank = fitted.bank();
  for (const auto& layer : bank.layers()) {
    for (const auto& svm : layer.svms()) {
      out.smo_iterations += svm.iterations_used();
      out.support_vectors += svm.support_count();
    }
  }
  metrics::reset();
  metrics::set_enabled(was_enabled);
  return out;
}

}  // namespace dvb
